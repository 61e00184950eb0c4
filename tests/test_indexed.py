"""Indexed families and the telescope walker.

`Vec` is the one indexed family the prelude does not have.  Matching on it
opens the telescopes of its arity and constructor types, and translating
the match opens the relation's arity, three binders per index.  The
abstraction theorem must hold for definitions over it, and the walker must
open every telescope as substituting one binder at a time would.
"""

from pathlib import Path

import pytest

from rcic import Ind, Prod, Var, alpha_eq, free_vars, prelude_path, subst
from rcic.cli import main
from rcic.kernel import instantiate
from rcic.syntax import Case, Const, fresh_name, subterms

from conftest import fresh_prelude_env, load_declarations
from reducts import term_whnf
from walker_counts import VEC_SOURCE

# The decreasing argument's type has an index that is not a variable, so
# the motive cannot rebind it: the translated fix does not check.
VONE = """
def vone : forall (A : Set0) (n : Nat), Vec A (succ n) -> Nat :=
  fix vone {struct 2} : forall (A : Set0) (n : Nat), Vec A (succ n) -> Nat :=
    fun (A : Set0) (n : Nat) (v : Vec A (succ n)) =>
      match v as w in Vec A k return Nat with
      | vnil => zero
      | vcons => fun (m : Nat) (h : A) (t : Vec A m) => one
      end.
"""

# Function types hidden behind definitions: a fix at NatOp2 and its
# application open their telescopes only after unfolding a global.
NATOP = """
def NatOp : Set0 := Nat -> Nat.
def NatOp2 : Set0 := Nat -> NatOp.
def addop : NatOp2 :=
  fix addop {struct 0} : NatOp2 :=
    fun (n : Nat) (m : Nat) =>
      match n as k in Nat return Nat with
      | zero => m
      | succ p => succ (addop p m)
      end.
def addop_use : Nat := addop two three.
"""

# The index binder of Eq is anonymous, so it is named after `x`, which
# the match's parameters already use.
EQ = """
inductive Eq (A : Set0) (x : A) : A -> Prop := refl : Eq A x x.
def sym : forall (A : Set0) (x y : A), Eq A x y -> Eq A y x :=
  fun (A : Set0) (x y : A) (p : Eq A x y) =>
    match p as q in Eq A x i return Eq A i x with
    | refl => refl A x
    end.
"""


def run(capsys, command, *sources, tmp_path, only=None):
    """Run `rcic command` on the prelude and `sources`; return the exit
    code and the output."""
    paths = [str(prelude_path())]
    for i, text in enumerate(sources):
        path = tmp_path / f"src{i}.rcic"
        path.write_text(text)
        paths.append(str(path))
    extra = ["--def", only] if only else []
    code = main([command, *extra, *paths])
    return code, capsys.readouterr().out


def test_vec_definitions_pass_param_check(capsys, tmp_path):
    code, out = run(capsys, "param-check", VEC_SOURCE, tmp_path=tmp_path)
    assert code == 0
    assert out.splitlines()[-3:] == ["PASS vhead", "PASS vlen", "PASS vappend"]


def test_translate_vlen_matches_golden(capsys, tmp_path):
    code, out = run(capsys, "translate", VEC_SOURCE, tmp_path=tmp_path,
                    only="vlen")
    assert code == 0
    golden = Path(__file__).with_name("golden") / "vlen_translate.txt"
    assert out.encode() == golden.read_bytes()


def test_fix_over_a_non_variable_index_fails(capsys, tmp_path):
    code, out = run(capsys, "param-check", VEC_SOURCE, VONE,
                    tmp_path=tmp_path)
    assert code == 1
    assert out.splitlines()[-1] == "FAIL vone"
    code, _ = run(capsys, "check", VEC_SOURCE, VONE, tmp_path=tmp_path)
    assert code == 0


def test_telescope_behind_a_definition(capsys, tmp_path):
    code, _ = run(capsys, "check", NATOP, tmp_path=tmp_path)
    assert code == 0
    code, out = run(capsys, "param-check", NATOP, tmp_path=tmp_path)
    assert code == 0
    assert out.splitlines()[-4:] == ["PASS NatOp", "PASS NatOp2", "PASS addop",
                                     "PASS addop_use"]


def _open_by_steps(env, ty, params, avoid):
    """`instantiate` the sequential way: reduce to a product, substitute
    one binder, repeat."""
    t = ty
    for p in params:
        t = term_whnf(env, t)
        t = subst(t.codomain, t.binder, p)
    taken = set(avoid).union(*(free_vars(p) for p in params))
    binders = []
    while True:
        t = term_whnf(env, t)
        if not isinstance(t, Prod):
            return binders, t
        name = fresh_name(t.binder, taken | free_vars(t.codomain))
        binders.append((name, t.domain))
        taken.add(name)
        t = subst(t.codomain, t.binder, Var(name))


@pytest.fixture(scope="module")
def indexed_env():
    env = fresh_prelude_env()
    return load_declarations(env, VEC_SOURCE + VONE + NATOP + EQ)


def test_opened_telescopes_match_sequential_substitution(indexed_env):
    # For every case in the prelude and the definitions above: the index
    # binders of the arity and the fields and result indices of each
    # constructor, opened by the walker, have the names and (up to alpha)
    # the types that substituting one binder at a time gives.
    env = indexed_env
    seen = 0
    for name in env.names():
        defn = env.definition(name)
        if defn is None:
            continue
        for case in subterms(defn.body):
            if type(case) is not Case:
                continue
            decl = env.inductive(case.ind)
            types = [(decl.arity, frozenset())]
            types += [(cty, free_vars(case.motive))
                      for _, cty in decl.constructors]
            for ty, avoid in types:
                got = instantiate(env, ty, case.params, name, avoid)
                want = _open_by_steps(env, ty, case.params, avoid)
                assert [n for n, _ in got[0]] == [n for n, _ in want[0]]
                assert all(alpha_eq(a, b) for (_, a), (_, b)
                           in zip(got[0], want[0])), name
                assert alpha_eq(got[1], want[1]), name
                seen += 1
    assert seen > 50



def test_instantiate_names_binders_fresh(indexed_env):
    # NatOp2 shows its second binder only once NatOp is unfolded; both
    # binders are anonymous, so they are named x and x1.
    binders, end = instantiate(indexed_env, Const("NatOp2"), (), "NatOp2")
    assert [name for name, _ in binders] == ["x", "x1"]
    assert end == Ind("Nat")
    # The anonymous index of Eq A x would be `x`, which the match's
    # parameters use, so it is `x1`.
    case = next(u for u in subterms(indexed_env.definition("sym").body)
                if type(u) is Case)
    binders, _ = instantiate(indexed_env, indexed_env.inductive("Eq").arity,
                             case.params, "Eq")
    assert [name for name, _ in binders] == ["x1"]
