"""Indexed families and telescopes.

`Vec` is the one indexed family the prelude does not have.  Matching on it
opens the telescopes of its arity and constructor types, and translating
the match opens the relation's arity, three binders per index.  The
abstraction theorem must hold for definitions over it, and the kernel must
type every match as the term oracle, which substitutes into those
telescopes, does.
"""

from pathlib import Path

import pytest

from rcic import Context, Fix, Lam, Prod, conv, infer, prelude_path
from rcic.cli import main
from rcic.syntax import Case, children

from conftest import fresh_prelude_env, load_declarations
from term_infer import term_infer
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

# Motives that return functions.  vfn's returns one over the index: its
# relation is built under the witness motive's binders, which take the
# match's binder names x1 and x; the product's anonymous binder is first
# named x too.  vx's mentions x, so the witness motive's index binders,
# named after Vec_R's x, x' and x_R, must avoid x, its copy and its
# witness.
INDEX_FN = """
def vfn : forall (n : Nat), Vec Nat n -> Nat :=
  fun (n : Nat) (v : Vec Nat n) =>
    match v as x in Vec Nat x1 return (Vec Nat x1 -> Nat -> Nat) -> Nat with
    | vnil => fun (g : Vec Nat zero -> Nat -> Nat) => g (vnil Nat) zero
    | vcons => fun (m : Nat) (h : Nat) (t : Vec Nat m)
                   (g : Vec Nat (succ m) -> Nat -> Nat) => h
    end (fun (w : Vec Nat n) (k : Nat) => k).
def vx : forall (x n : Nat), Vec Nat n -> Eq Nat x x -> Nat :=
  fun (x n : Nat) (v : Vec Nat n) =>
    match v as w in Vec Nat k return Eq Nat x x -> Nat with
    | vnil => fun (e : Eq Nat x x) => zero
    | vcons => fun (m h : Nat) (t : Vec Nat m) (e : Eq Nat x x) => h
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


def test_motives_returning_functions(capsys, tmp_path):
    code, out = run(capsys, "param-check", VEC_SOURCE, EQ, INDEX_FN,
                    tmp_path=tmp_path)
    assert code == 0
    assert out.splitlines()[-2:] == ["PASS vfn", "PASS vx"]


def test_telescope_behind_a_definition(capsys, tmp_path):
    code, _ = run(capsys, "check", NATOP, tmp_path=tmp_path)
    assert code == 0
    code, out = run(capsys, "param-check", NATOP, tmp_path=tmp_path)
    assert code == 0
    assert out.splitlines()[-4:] == ["PASS NatOp", "PASS NatOp2", "PASS addop",
                                     "PASS addop_use"]


@pytest.fixture(scope="module")
def indexed_env():
    env = fresh_prelude_env()
    return load_declarations(env, VEC_SOURCE + VONE + NATOP + EQ)


def _cases(t, ctx):
    """Every Case node of `t`, with the term context it is typed in."""
    stack = [(t, ctx)]
    while stack:
        u, c = stack.pop()
        if type(u) is Case:
            yield u, c
        kids = children(u)
        if type(u) in (Prod, Lam, Fix):
            stack += [(kids[0], c), (kids[1], c.extend(u.binder, kids[0]))]
        else:
            stack += [(k, c) for k in kids]


def test_infer_matches_the_term_oracle_on_indexed_families(indexed_env):
    # For every definition above and in the prelude, the body and each
    # case in it: the type inferred on values is convertible with the one
    # the term oracle gets by substituting into the arity and constructor
    # types.  Vec's matches open its arity and constructor types under a
    # parameter, NatOp2 shows its second product only once NatOp is
    # unfolded, and sym's match abstracts the anonymous index of Eq.
    env = indexed_env
    seen = 0
    for name in env.names():
        defn = env.definition(name)
        if defn is None:
            continue
        for t, ctx in [(defn.body, Context()), *_cases(defn.body, Context())]:
            got = infer(env, ctx, t)
            assert conv(env, got, term_infer(env, ctx, t)), name
            seen += 1
        assert conv(env, infer(env, Context(), defn.body), defn.type), name
    assert seen > 60
