"""Tests for the relational translation and the abstraction check."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import rcic

from rcic import (
    App,
    Const,
    Constr,
    Context,
    ErrorKind,
    Ind,
    Lam,
    PROP,
    Prod,
    SortT,
    TypeCheckError,
    Var,
    abstraction_check,
    alpha_eq,
    app,
    arrow,
    beta_normalize,
    check,
    elaborate,
    infer,
    infer_sort,
    parse_file,
    prime,
    primed,
    print_definition,
    print_inductive,
    print_term,
    relation_name,
    relation_sort,
    set_sort,
    translate_context,
    translate_definition,
    translate_inductive,
    translate_term,
    type_sort,
)
from rcic.cli import main
from rcic.frontend import DDef, DInductive
from rcic.kernel import FULL, STAR
from rcic.param import NameTriple, is_reserved

from conftest import fresh_prelude_env, load_declarations, term_in
from gen import random_typed
from test_free_theorems import EX
from test_indexed import VONE
from translation_gaps import GAPS
from walker_counts import (VEC_SOURCE, binder_depth_source, counting,
                           walker_calls)

NAT = Ind("Nat")


# ---------------------------------------------------------------------------
# Name scheme


def test_name_scheme():
    assert primed("x") == "x'"
    # One rule for a local's witness and a global's relation.
    assert relation_name("x") == "x_R"
    assert relation_name("Nat") == "Nat_R"
    assert is_reserved("x'")
    assert is_reserved("plus_R")
    assert not is_reserved("plain")
    triple = NameTriple.from_base("n")
    assert (triple.base, triple.copy, triple.rel) == ("n", "n'", "n_R")


def test_prime():
    t = Lam("x", NAT, App(Var("f"), Var("x")))
    # Both the binder and free variables are renamed.
    assert prime(t) == Lam("x'", NAT, App(Var("f'"), Var("x'")))
    # Globals keep their names.
    t = Lam("x", NAT, App(Const("f"), Var("x")))
    assert prime(t) == Lam("x'", NAT, App(Const("f"), Var("x'")))
    # A binder named like a global is still renamed, and so are its uses.
    shadow = Lam("f", NAT, App(Const("f"), Var("f")))
    assert prime(shadow) == Lam("f'", NAT, App(Const("f"), Var("f'")))


def test_relation_sort():
    assert relation_sort(PROP) == PROP
    assert relation_sort(set_sort(0)) == PROP
    assert relation_sort(set_sort(3)) == PROP
    assert relation_sort(type_sort(2)) == type_sort(2)


# ---------------------------------------------------------------------------
# Clause-level translation


def test_translate_sort_clause(fresh_env):
    out = print_term(translate_term(fresh_env, SortT(PROP)), fresh_env)
    assert out == "fun (x x' : Prop) => x -> x' -> Prop"
    out = print_term(translate_term(fresh_env, SortT(set_sort(0))), fresh_env)
    assert out == "fun (x x' : Set0) => x -> x' -> Prop"
    # Type sorts keep their level.
    out = print_term(translate_term(fresh_env, SortT(type_sort(2))), fresh_env)
    assert out == "fun (x x' : Type2) => x -> x' -> Type2"


def test_translate_variable_and_globals(fresh_env):
    rel = translate_term(fresh_env, term_in(fresh_env, "succ"))
    assert rel == Constr("succ_R")
    rel = translate_term(fresh_env, NAT)
    assert rel == Ind("Nat_R")
    rel = translate_term(fresh_env, Const("double"))
    assert rel == Const("double_R")
    assert fresh_env.definition("double_R") is not None


def test_translation_binders_avoid_globals(fresh_env):
    # The global d is free in the translated type, so the binder named d
    # is renamed there.
    load_declarations(fresh_env,
                      "def d : forall (d : Nat), Nat := fun (x : Nat) => x.")
    assert print_definition(translate_definition(fresh_env, "d"), fresh_env) == (
        "def d_R : forall (d1 d' : Nat), Nat_R d1 d' -> Nat_R (d d1) (d d') "
        ":= fun (x x' : Nat) (x_R : Nat_R x x') => x_R.")


def test_translation_renames_a_binder_triple(fresh_env):
    # The source binder T is named like the global T, and the translation
    # keeps the triple T / T' / T_R: the node kind tells each local from
    # the global.  The printer renames only T, which would capture the
    # global T of the next domain; the witness T_R is bound only after the
    # domain that uses the global T_R.  The output reads back alpha-equal.
    load_declarations(fresh_env, "def T : Set0 := Nat.")
    t = Lam("T", Const("T"), Var("T"))
    ty = Prod("T", Const("T"), Const("T"))
    assert abstraction_check(fresh_env, Context(), t, ty)
    rel = beta_normalize(translate_term(fresh_env, t))
    assert (rel.binder, rel.body.binder, rel.body.body.binder) == ("T", "T'", "T_R")
    out = print_term(rel, fresh_env)
    assert out == "fun (T1 T' : T) (T_R : T_R T1 T') => T_R"
    back = parse_file(f"check {out}.", allow_reserved=True).decls[0].term
    assert alpha_eq(elaborate(fresh_env, back), rel)


def test_translate_product_clause(fresh_env):
    rel = beta_normalize(app(translate_term(fresh_env, arrow(NAT, NAT)),
                             Const("plus"), Const("plus")))
    # Elaborate the expectation with reserved names allowed.
    want = elaborate(fresh_env, parse_file(
        "check forall (x : Nat) (x' : Nat), Nat_R x x' "
        "-> Nat_R (plus x) (plus x').", allow_reserved=True).decls[0].term)
    assert alpha_eq(rel, want)


def test_translated_relation_sort_is_prop(fresh_env):
    # Small types translate to Prop-valued relations.
    for source in ("Nat", "Nat -> Nat", "List Nat", "Bool -> Nat -> Bool"):
        ty = term_in(fresh_env, source)
        rel = beta_normalize(app(translate_term(fresh_env, ty),
                                 Var("a"), Var("b")))
        ctx = Context().extend("a", ty).extend("b", ty)
        assert infer(fresh_env, ctx, rel) == SortT(PROP)


# ---------------------------------------------------------------------------
# Inductive translation goldens


def _golden_inductive(env, text):
    decl = parse_file(text, allow_reserved=True).decls[0]
    assert isinstance(decl, DInductive)
    arity = elaborate(env, decl.arity)
    constructors = tuple((c, elaborate(env, cty)) for c, cty in decl.constructors)
    return decl.name, decl.params, arity, constructors


def _assert_matches_golden(env, name, golden_text):
    registered = env.inductive(relation_name(name))
    gname, gparams, garity, gctors = _golden_inductive(env, golden_text)
    assert gname == registered.name
    assert gparams == registered.params
    assert alpha_eq(garity, registered.arity)
    assert len(gctors) == len(registered.constructors)
    for (gc, gty), (rc, rty) in zip(gctors, registered.constructors):
        assert gc == rc
        assert alpha_eq(gty, rty)


def test_bool_relation_golden(translated_env):
    _assert_matches_golden(translated_env, "Bool", """
        inductive Bool_R : Bool -> Bool -> Prop :=
          true_R : Bool_R true true
        | false_R : Bool_R false false.
    """)


def test_nat_relation_golden(translated_env):
    _assert_matches_golden(translated_env, "Nat", """
        inductive Nat_R : Nat -> Nat -> Prop :=
          zero_R : Nat_R zero zero
        | succ_R : forall (n : Nat) (n' : Nat),
            Nat_R n n' -> Nat_R (succ n) (succ n').
    """)


def test_list_relation_golden(translated_env):
    # One source parameter becomes three, and the relation lands in Prop
    # because the relation space of a Set0 is a Prop.
    _assert_matches_golden(translated_env, "List", """
        inductive List_R (A : Set0) (A' : Set0) (A_R : A -> A' -> Prop)
            : List A -> List A' -> Prop :=
          nil_R : List_R A A' A_R (nil A) (nil A')
        | cons_R : forall (h : A) (h' : A'), A_R h h' ->
            forall (t : List A) (t' : List A'), List_R A A' A_R t t' ->
            List_R A A' A_R (cons A h t) (cons A' h' t').
    """)


def test_unit_and_empty_relations(translated_env):
    _assert_matches_golden(translated_env, "Unit", """
        inductive Unit_R : Unit -> Unit -> Prop := tt_R : Unit_R tt tt.
    """)
    empty_r = translated_env.inductive("Empty_R")
    assert empty_r.constructors == ()
    assert alpha_eq(empty_r.arity,
                    arrow(Ind("Empty"), arrow(Ind("Empty"), SortT(PROP))))


def test_indexed_relation(fresh_env):
    load_declarations(fresh_env, """
        inductive Vec (A : Set0) : Nat -> Set0 :=
          vnil : Vec A zero
        | vcons : forall (n : Nat), A -> Vec A n -> Vec A (succ n).
    """)
    rel = translate_inductive(fresh_env, fresh_env.inductive("Vec"))
    # Three parameters, then a triple per index, then the two scrutinees.
    assert rel.params == 3
    golden = """
        inductive Vec_R (A : Set0) (A' : Set0) (A_R : A -> A' -> Prop)
            : forall (n : Nat) (n' : Nat), Nat_R n n' ->
              Vec A n -> Vec A' n' -> Prop :=
          vnil_R : Vec_R A A' A_R zero zero zero_R (vnil A) (vnil A')
        | vcons_R : forall (n : Nat) (n' : Nat) (n_R : Nat_R n n')
            (h : A) (h' : A'), A_R h h' ->
            forall (t : Vec A n) (t' : Vec A' n'),
            Vec_R A A' A_R n n' n_R t t' ->
            Vec_R A A' A_R (succ n) (succ n') (succ_R n n' n_R)
                  (vcons A n h t) (vcons A' n' h' t').
    """
    _assert_matches_golden(fresh_env, "Vec", golden)


def test_translate_inductive_idempotent(fresh_env):
    first = translate_inductive(fresh_env, fresh_env.inductive("Nat"))
    again = translate_inductive(fresh_env, fresh_env.inductive("Nat"))
    assert first is again
    assert [c for c, _ in first.constructors] == ["zero_R", "succ_R"]


def test_translated_inductives_kernel_check(translated_env):
    # Redeclaring the produced relation in a fresh environment passes the
    # full inductive wellformedness check.
    env = fresh_prelude_env()
    for name in ("Bool", "Nat", "List", "Unit", "Empty"):
        translate_inductive(env, env.inductive(name))
        assert env.inductive(relation_name(name)) is not None


# ---------------------------------------------------------------------------
# Definition translation


def test_translate_definition_id(translated_env):
    d = translated_env.definition("id_R")
    golden = elaborate(translated_env, parse_file(
        "check forall (A : Set0) (A' : Set0) (A_R : A -> A' -> Prop) "
        "(x : A) (x' : A'), A_R x x' -> A_R (id A x) (id A' x').",
        allow_reserved=True).decls[0].term)
    assert alpha_eq(d.type, golden)


def test_translate_definition_fix(translated_env):
    d = translated_env.definition("plus_R")
    # The decreasing argument moves to the witness slot of its triple.
    assert d.body.decreasing == 2
    # The witness type relates plus to itself.
    golden = elaborate(translated_env, parse_file(
        "check forall (n : Nat) (n' : Nat), Nat_R n n' -> "
        "forall (m : Nat) (m' : Nat), Nat_R m m' -> "
        "Nat_R (plus n m) (plus n' m').", allow_reserved=True).decls[0].term)
    assert alpha_eq(d.type, golden)
    check(translated_env, Context(), d.body, d.type)


def test_translate_definition_unknown(fresh_env):
    with pytest.raises(TypeCheckError) as err:
        translate_definition(fresh_env, "nope")
    assert err.value.kind == ErrorKind.UNBOUND_VARIABLE
    with pytest.raises(TypeCheckError):
        translate_definition(fresh_env, "Nat")


def test_translate_definition_idempotent(fresh_env):
    first = translate_definition(fresh_env, "negb")
    again = translate_definition(fresh_env, "negb")
    assert first is again


def test_translate_rejects_reserved_input(fresh_env):
    with pytest.raises(ValueError):
        translate_term(fresh_env, Var("x'"))
    with pytest.raises(ValueError):
        translate_term(fresh_env, Lam("x_R", NAT, Var("x_R")))


def test_reserved_name_diagnostic_is_deterministic():
    # The term uses three reserved names; the diagnostic names the first
    # in sorted order, whatever the interpreter's string hashing.
    code = ("from rcic import GlobalEnv, Lam, PROP, SortT, Var, "
            "translate_term\n"
            "P = SortT(PROP)\n"
            "try:\n"
            "    translate_term(GlobalEnv(),"
            " Lam(\"a'\", P, Lam('b_R', P, Var('c_R'))))\n"
            "except ValueError as err:\n"
            "    print(err)\n")
    for seed in range(1, 7):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=str(Path(rcic.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=env, timeout=60)
        assert run.stdout == ("cannot translate a term using the reserved "
                              "name \"a'\"\n"), seed


def test_translated_definitions_check(translated_env):
    for name in list(translated_env.names()):
        d = translated_env.definition(name)
        if d is None or not name.endswith("_R"):
            continue
        check(translated_env, Context(), d.body, d.type)


# ---------------------------------------------------------------------------
# Context translation and the abstraction check


def test_translate_context(fresh_env):
    ctx = Context().extend("A", SortT(set_sort(0))).extend("x", Var("A"))
    out = list(translate_context(fresh_env, ctx))
    names = [n for n, _ in out]
    assert names == ["A", "A'", "A_R", "x", "x'", "x_R"]
    tys = dict(out)
    assert tys["A'"] == SortT(set_sort(0))
    assert alpha_eq(tys["A_R"], arrow(Var("A"), arrow(Var("A'"), SortT(PROP))))
    assert tys["x'"] == Var("A'")
    assert tys["x_R"] == app(Var("A_R"), Var("x"), Var("x'"))


def test_abstraction_check_prelude(translated_env):
    for name in ("id", "const", "compose", "negb", "plus", "rev"):
        d = translated_env.definition(name)
        assert abstraction_check(translated_env, Context(), Const(name), d.type)


def test_abstraction_check_open_term(translated_env):
    ctx = Context().extend("A", SortT(set_sort(0))).extend("x", Var("A"))
    assert abstraction_check(translated_env, ctx, Var("x"), Var("A"))
    assert abstraction_check(translated_env, ctx,
                             term_in(translated_env, "fun (y : A) => x"),
                             term_in(translated_env, "A -> A"))


def test_abstraction_check_rejects_ill_typed(translated_env):
    assert not abstraction_check(translated_env, Context(),
                                 Constr("zero"), Ind("Bool"))
    assert not abstraction_check(translated_env, Context(),
                                 Var("missing"), NAT)


def test_abstraction_check_rejects_reserved_names(translated_env):
    assert not abstraction_check(translated_env, Context(), Var("x'"), NAT)


def test_fixes_that_need_unfolding_at_a_variable_fail(capsys, tmp_path):
    # Pinned as the translation stands: the witness type of a fix unfolds
    # only at a constructor (see tests/translation_gaps.py).  All four are
    # well typed.
    path = tmp_path / "gaps.rcic"
    path.write_text("".join(GAPS.values()))
    assert main(["check", str(rcic.prelude_path()), str(path)]) == 0
    capsys.readouterr()
    assert main(["param-check", str(rcic.prelude_path()), str(path)]) == 1
    assert capsys.readouterr().out.splitlines()[-4:] == [
        "FAIL self_id", "FAIL case_other", "FAIL case_self", "PASS case_pred"]


def test_an_anonymous_binder_captures_no_outer_name(capsys, tmp_path):
    # A `_` binder's triple is named afresh (x, x1, ...), so it must avoid
    # the names its scope uses: here an outer `x`, under a Lam and under a
    # product.
    path = tmp_path / "anon.rcic"
    path.write_text(
        "def k : Nat -> Nat -> Nat := fun (x : Nat) (_ : Nat) => x.\n"
        "def e : forall (P : Nat -> Set0) (x : Nat), P x -> Nat -> P x :=\n"
        "  fun (P : Nat -> Set0) (x : Nat) (p : P x) (y : Nat) => p.\n")
    assert main(["param-check", str(rcic.prelude_path()), str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == ["PASS k", "PASS e"]


def _checked_verdicts(sources, mode):
    """The abstraction check of each definition of the prelude and
    `sources` as it is declared: one `PASS name` or `FAIL name` line each."""
    env, lines = rcic.GlobalEnv(), []
    for text in (rcic.prelude_path().read_text(), *sources):
        for decl in parse_file(text).decls:
            rcic.declare(env, decl, mode)
            if isinstance(decl, DDef):
                d = env.definition(decl.name)
                ok = abstraction_check(env, Context(), d.body, d.type)
                lines.append(f"{'PASS' if ok else 'FAIL'} {decl.name}")
    return lines


@pytest.mark.parametrize("sources, flags", [
    ((), ()),
    (("".join(GAPS.values()),), ()),
    ((VEC_SOURCE, VONE), ()),
    ((EX,), ("--full-elim",)),
], ids=["prelude", "gaps", "vec", "wit"])
def test_param_check_agrees_with_abstraction_check(sources, flags, capsys,
                                                   tmp_path):
    # param-check decides a definition by declaring its relation; the
    # abstraction check of its body at its type must give the same verdict.
    paths = []
    for i, text in enumerate(sources):
        paths.append(tmp_path / f"src{i}.rcic")
        paths[-1].write_text(text)
    main(["param-check", *flags, str(rcic.prelude_path()), *map(str, paths)])
    assert capsys.readouterr().out.splitlines() == _checked_verdicts(
        sources, FULL if flags else STAR)


def test_param_check_declares_each_relation_once(capsys):
    # One relation declaration per definition of the prelude, and no other
    # judgment: a later reference reuses the declared relation.
    with counting([(rcic.param, "check")]) as checks, \
            counting([(rcic.param, "declare_definition")]) as declared:
        assert main(["param-check", str(rcic.prelude_path())]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 30
    assert (checks[0], declared[0]) == (0, 30)


def test_a_failed_relation_is_declared_once(capsys, tmp_path):
    # self_id's relation fails to declare.  u1, u2 and u3 use self_id, so
    # theirs fail too, from the recorded failure: 30 declarations for the
    # prelude and one attempt at self_id_R, not one per reference.
    path = tmp_path / "uses.rcic"
    path.write_text(GAPS["self_id"] + "def u1 : Nat := self_id zero.\n"
                    "def u2 : Nat := self_id one.\n"
                    "def u3 : Nat := self_id two.\n")
    with counting([(rcic.param, "declare_definition")]) as declared:
        assert main(["param-check", str(rcic.prelude_path()), str(path)]) == 1
    assert capsys.readouterr().out.splitlines()[-4:] == [
        "FAIL self_id", "FAIL u1", "FAIL u2", "FAIL u3"]
    assert declared[0] == 31


def test_abstraction_check_of_250_binders():
    # The translated witness nests three binders per source binder; 250
    # source binders must fit the interpreter's default recursion limit.
    env = load_declarations(fresh_prelude_env(), binder_depth_source(250))
    d = env.definition("b250")
    assert abstraction_check(env, Context(), d.body, d.type)


def test_abstraction_theorem_on_generated_terms(translated_env):
    # The abstraction theorem on 300 closed well-typed terms, 100 from each
    # of three seeds: each term, its copy and its witness check.
    for seed in range(3):
        rng = random.Random(seed)
        for _ in range(100):
            t, ty = random_typed(rng, depth=4)
            assert abstraction_check(translated_env, Context(), t, ty), \
                (seed, t)


def test_substitution_work_grows_at_most_quadratically():
    # Twice the binders may cost at most three times the walker calls:
    # the read-back renames a capturing binder once, by one more entry of
    # its environment, not by another pass over the body.
    assert walker_calls(40) / walker_calls(20) <= 3.0


def test_copy_work_grows_linearly():
    # Twice the binders may cost at most 2.2 times the `prime` calls: the
    # translation of a product telescope copies each suffix once.
    copies = [walker_calls(n, [(rcic.param, "prime")]) for n in (100, 200)]
    assert copies[1] / copies[0] <= 2.2


def test_copy_of_nested_arguments_grows_linearly():
    # Twice the nesting may cost at most 2.2 times the `prime` calls: an
    # application's copy is built from its argument's, so the numeral
    # succ (... (succ zero)) is copied once, not once per succ above it.
    copies = []
    for n in (50, 100):
        env = load_declarations(fresh_prelude_env(), f"def s{n} : Nat := "
                                + "succ (" * n + "zero" + ")" * n + ".")
        with counting([(rcic.param, "prime")]) as calls:
            translate_definition(env, f"s{n}")
        copies.append(calls[0])
    assert copies[1] / copies[0] <= 2.2


# ---------------------------------------------------------------------------
# Round-trip of generated declarations


def test_generated_declarations_round_trip(translated_env):
    env = translated_env
    relation_names = [n for n in env.names() if n.endswith("_R")]
    assert len(relation_names) == 35
    for name in relation_names:
        ind = env.inductive(name)
        if ind is not None:
            text = print_inductive(ind, env)
            gname, gparams, garity, gctors = _golden_inductive(env, text)
            assert gname == name and gparams == ind.params
            assert alpha_eq(garity, ind.arity)
            for (gc, gty), (rc, rty) in zip(gctors, ind.constructors):
                assert gc == rc and alpha_eq(gty, rty)
        else:
            d = env.definition(name)
            text = print_definition(d, env)
            decl = parse_file(text, allow_reserved=True).decls[0]
            assert alpha_eq(elaborate(env, decl.type), d.type)
            assert alpha_eq(elaborate(env, decl.body), d.body)
