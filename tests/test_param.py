"""Tests for the relational translation and the abstraction check."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import rcic

from rcic import (
    App,
    Case,
    Const,
    Constr,
    Context,
    ErrorKind,
    Fix,
    GlobalEnv,
    Ind,
    InductiveDecl,
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
    declare_definition,
    declare_inductive,
    elaborate,
    free_vars,
    infer,
    infer_sort,
    parse_file,
    prime,
    print_definition,
    print_inductive,
    print_term,
    translate_definition,
    translate_inductive,
)
from rcic import param
from rcic.cli import main
from rcic.frontend import DDef, DInductive
from rcic.kernel import FULL, STAR
from rcic.param import is_reserved, primed, relation_name, relation_sort
from rcic.syntax import (children, fresh_name, lams, map_children, prods,
                         rebuild_binder, set_sort, strip_lams, strip_prods,
                         subterms, type_sort, unfold_app)

import capture_files
from conftest import (fresh_prelude_env, load_declarations, term_in,
                      translate_term)
from gen import random_typed
from test_free_theorems import EX
from test_indexed import VONE
from translation_gaps import GAPS
from walker_counts import (VEC_SOURCE, binder_depth_source,
                           copy_depth_source, counting, name_probes,
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
    # An anonymous binder binds nothing, and its copy stays anonymous.
    anon = Lam("_", NAT, App(Var("f"), Var("x")))
    assert prime(anon) == Lam("_", NAT, App(Var("f'"), Var("x'")))


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


def test_translation_declares_nothing(fresh_env):
    # The clauses rename a global to its relation; only the entry points
    # declare relations, before they translate.
    before = fresh_env.names()
    assert param._translate(fresh_env, Const("double")) == Const("double_R")
    assert fresh_env.names() == before


def test_a_case_parameter_is_translated_once(fresh_env, monkeypatch):
    # The parameter is a redex that reduces to Nat; no other node of the
    # case equals it, so the nodes equal to it count its translations.
    list_nat = App(Ind("List"), NAT)
    q = App(Lam("B", SortT(set_sort(0)), Var("B")), NAT)
    t = Case("List", Var("l"), (q,), Lam("k", list_nat, NAT),
             (Constr("zero"), Lam("h", NAT, Lam("tl", list_nat, Var("h")))))
    seen = []
    translate = param._translate

    def spy(env, u, *rest):
        seen.append(u)
        return translate(env, u, *rest)

    monkeypatch.setattr(param, "_translate", spy)
    translate_term(fresh_env, t)
    assert seen.count(q) == 1


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


def test_translation_renames_a_shadowing_binder_triple(fresh_env):
    # The inner A shadows the outer one, whose triple A / A' / A_R is free
    # in the inner binder's translated annotation, so the inner triple
    # becomes A1 / A1' / A1_R and the translated body is renamed to match.
    # The elaborator renames shadowing binders, so only the kernel API
    # builds this term.
    t = Lam("A", SortT(set_sort(0)),
            Lam("A", Prod("_", Var("A"), Var("A")), Var("A")))
    ty = infer(fresh_env, Context(), t)
    assert abstraction_check(fresh_env, Context(), t, ty)
    # The translation renames the inner triple once, as it enters the
    # inner binder, and builds the body with the new names.
    with counting([(rcic.param._Renaming, "bind")]) as calls:
        rel = translate_term(fresh_env, t)
    assert calls == [1]
    assert print_term(beta_normalize(rel), fresh_env) == (
        "fun (A A' : Set0) (A_R : A -> A' -> Prop) (A1 : A -> A) "
        "(A1' : A' -> A') (A1_R : forall (x : A) (x' : A'), "
        "A_R x x' -> A_R (A1 x) (A1' x')) => A1_R")


def test_relations_under_shadowing_binders(fresh_env):
    # Only the kernel API builds these.  The second A of a product shadows
    # the first, which its domain uses, so its triple becomes A1 / A1' /
    # A1_R and the codomain's A follows.  A motive's body rebinds the
    # motive's own binder n, which then no longer names the scrutinee.
    env = fresh_env
    s0 = SortT(set_sort(0))
    a_, a, p = Var("A"), Var("a"), Var("P")
    ty = Prod("A", s0, Prod("a", a_, Prod("A", arrow(a_, s0),
                                          arrow(App(a_, a), NAT))))
    t = Lam("A", s0, Lam("a", a_, Lam("B", arrow(a_, s0), Lam(
        "b", App(Var("B"), a), Constr("zero")))))
    assert abstraction_check(env, Context(), t, ty)
    motive = Lam("n", NAT, Prod("n", NAT, App(p, Var("n"))))
    t = Lam("P", arrow(NAT, s0), Lam("f", Prod("m", NAT, App(p, Var("m"))), Lam(
        "k", NAT, Case("Nat", Var("k"), (), motive,
                       (Var("f"), Lam("q", NAT, Var("f")))))))
    assert abstraction_check(env, Context(), t, infer(env, Context(), t))


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


def test_translate_inductive_needs_no_provisional_copy(fresh_env):
    # The one provisional environment is the kernel's, for its own check
    # of the relation inductive.
    with counting([(GlobalEnv, "with_provisional")]) as calls:
        translate_inductive(fresh_env, fresh_env.inductive("List"))
    assert calls[0] == 1


def test_translate_inductive_takes_only_the_declared_inductive(fresh_env):
    # The field's type holds a self-application whose beta normalisation
    # never ends.  The kernel rejects the declaration, and the translation
    # refuses it before normalising anything, as it refuses a copy of a
    # declared inductive.
    omega = Lam("x", NAT, App(Var("x"), Var("x")))
    loop = InductiveDecl("Loop", 0, SortT(set_sort(0)),
                         (("mk", arrow(App(omega, omega), Ind("Loop"))),))
    with pytest.raises(TypeCheckError) as err:
        declare_inductive(fresh_env, loop)
    assert err.value.kind is ErrorKind.NOT_A_FUNCTION
    nat = fresh_env.inductive("Nat")
    for decl in (loop, InductiveDecl(nat.name, nat.params, nat.arity,
                                     nat.constructors)):
        with pytest.raises(TypeCheckError,
                           match=f"^UnboundVariable: unknown inductive "
                                 f"{decl.name}$"):
            translate_inductive(fresh_env, decl)
    assert fresh_env.inductive("Loop_R") is None
    assert fresh_env.inductive("Nat_R") is None


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
    code = ("from rcic import GlobalEnv, Lam, PROP, SortT, Var\n"
            "from rcic.param import _prepare\n"
            "P = SortT(PROP)\n"
            "try:\n"
            "    _prepare(GlobalEnv(),"
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


# ---------------------------------------------------------------------------
# Relations in normal form


def _redexes(t):
    """The applications in `t` whose head is a Lam."""
    return [u for u in subterms(t) if type(u) is App and type(u.fn) is Lam]


def _closure_relation(env, ctx, term, ty):
    """The relation and the witness `abstraction_check` builds for `term`
    at `ty` in `ctx`, from its closure over the context."""
    closure = lams(list(ctx), term)
    return param._relation(env, prods(list(ctx), ty), closure, None, closure)


def test_declared_relations_are_normal_by_construction():
    # Every relation param-check declares for the prelude, for Vec and for
    # generated terms that have no redex of their own is built with no
    # redex either: declaring them reads nothing back, and beta_normalize
    # hands each back as the same object.
    env = load_declarations(fresh_prelude_env(), VEC_SOURCE)
    rng = random.Random(20261020)
    generated = 0
    while generated < 60:
        t, ty = random_typed(rng, depth=4)
        if not _redexes(t):
            declare_definition(env, f"g{generated}", ty, t)
            assert not _redexes(translate_term(env, t))
            generated += 1
    ctx = Context()
    for i in range(generated):
        ctx = ctx.extend(f"c{i}", env.definition(f"g{i}").type)
    last = f"c{generated - 1}"
    # No source redex, so no relation is even scanned for one.
    with counting([(rcic.kernel, "_quote")]) as read_backs, \
            counting([(param, "beta_normalize")]) as normalised:
        for name in list(env.names()):
            if env.definition(name) is not None and not is_reserved(name):
                translate_definition(env, name)
        assert abstraction_check(env, ctx, Var(last), ctx.lookup(last))
    assert read_backs == [0] and normalised == [0]
    # The relation of the closure over the context relates each entry in
    # normal form: its binder triples' types hold no redex.
    ty_r, witness = _closure_relation(env, ctx, Var(last), ctx.lookup(last))
    binders, _ = strip_prods(ty_r)
    assert len(binders) >= 3 * generated
    assert all(not _redexes(ty) for _, ty in binders)
    assert not _redexes(witness)
    relations = []
    for name in env.names():
        if not is_reserved(name):
            continue
        ind, defn = env.inductive(name), env.definition(name)
        if ind is not None:
            relations += [ind.arity, *(cty for _, cty in ind.constructors)]
        elif defn is not None:
            relations += [defn.type, defn.body]
    assert len(relations) > 2 * (30 + 3 + 60)
    for rel in relations:
        assert not _redexes(rel)
        assert beta_normalize(rel) is rel


def test_relations_of_a_source_redex_are_normal():
    # A redex in a constructor type or a context entry's type is
    # contracted in the source, before it is translated, and only there:
    # the arity holds none, so of W's two types only the constructor's is
    # normalised.
    env = load_declarations(fresh_prelude_env(), """
inductive W (A : Set0) : Set0 := w : (fun (T : Set0) => T -> T) A -> W A.
""")
    with counting([(param, "beta_normalize")]) as normalised:
        rdecl = translate_inductive(env, env.inductive("W"))
    assert normalised == [1]
    assert print_inductive(rdecl, env) == (
        "inductive W_R (A A' : Set0) (A_R : A -> A' -> Prop) : W A -> W A' "
        "-> Prop := w_R : forall (x : A -> A) (x' : A' -> A'), (forall (x1 : "
        "A) (x'1 : A'), A_R x1 x'1 -> A_R (x x1) (x' x'1)) -> W_R A A' A_R "
        "(w A x) (w A' x').")
    # The closure over a context entry whose type is that redex holds it
    # twice, in its type and in its binder's annotation: each is contracted
    # once.  The binders of the closure's relation and its witness hold no
    # redex; only the related terms, the closure applied, do.
    ty = term_in(env, "(fun (T : Set0) => T -> T) Nat")
    ctx = Context().extend("f", ty)
    with counting([(param, "beta_normalize")]) as normalised:
        ty_r, witness = _closure_relation(env, ctx, Var("f"), ty)
    assert normalised == [2]
    binders, _ = strip_prods(ty_r)
    assert [name for name, _ in binders[:3]] == ["f", "f'", "f_R"]
    assert print_term(binders[2][1], env) == (
        "forall (x x' : Nat), Nat_R x x' -> Nat_R (f x) (f' x')")
    assert all(not _redexes(dom) for _, dom in binders)
    assert not _redexes(witness)
    assert abstraction_check(env, ctx, Var("f"), ty)


def test_a_motive_over_fewer_binders_than_the_case(fresh_env):
    # The kernel takes a motive that binds the index and returns a family
    # over the scrutinee.  Its binder names the index triple, and the
    # translated family is applied to the scrutinee triple and the two
    # cases: the witness holds no redex.
    env = load_declarations(fresh_env, VEC_SOURCE)
    vec, p = App(Ind("Vec"), Var("A")), Var("P")
    step = Prod("m", NAT, Prod("h", Var("A"), Prod(
        "t", App(vec, Var("m")),
        app(p, App(Constr("succ"), Var("m")),
            app(Constr("vcons"), Var("A"), Var("m"), Var("h"), Var("t"))))))
    case = Case("Vec", Var("v"), (Var("A"),),
                Lam("k", NAT, App(p, Var("k"))), (Var("z"), Var("s")))
    t = lams([("A", SortT(set_sort(0))),
              ("P", Prod("k", NAT, arrow(App(vec, Var("k")),
                                         SortT(set_sort(0))))),
              ("z", app(p, Constr("zero"), App(Constr("vnil"), Var("A")))),
              ("s", step), ("n", NAT), ("v", App(vec, Var("n")))], case)
    ty = infer(env, Context(), t)
    assert abstraction_check(env, Context(), t, ty)
    witness = translate_term(env, t)
    assert not _redexes(witness)
    _, case_r = strip_lams(witness)
    binders, rel = strip_lams(case_r.motive)
    head, args = unfold_app(rel)
    assert head == Var("P_R")
    assert args[:6] == [Var(name) for name, _ in binders]
    assert len(args) == 8


def test_a_case_over_a_variable_motive(fresh_env):
    # The kernel takes any motive of the right type.  A variable has no
    # binders to rename, so the witness's motive applies its relation to
    # the scrutinee triple and the two cases.
    p = Var("P")
    t = Lam("P", arrow(NAT, SortT(set_sort(0))), Lam(
        "z", App(p, Constr("zero")), Lam(
            "s", Prod("m", NAT, App(p, App(Constr("succ"), Var("m")))), Lam(
                "n", NAT, Case("Nat", Var("n"), (), p, (Var("z"), Var("s")))))))
    ty = infer(fresh_env, Context(), t)
    assert abstraction_check(fresh_env, Context(), t, ty)
    _, case = strip_lams(translate_term(fresh_env, t))
    _, rel = strip_lams(case.motive)
    head, args = unfold_app(rel)
    assert head == Var("P_R") and len(args) == 5


# Relations as reducing each one from its form with a redex per product
# names them: built in normal form, they keep every binder name.
PINNED_RELATIONS = {
    # A source redex, contracted in the body.
    "def k : Nat := (fun (x : Nat) => x) zero.":
        "def k_R : Nat_R k k := zero_R.",
    # A redex in the type and one under binders.
    "def k2 : (fun (T : Set0) => T -> T) Nat := fun (y : Nat) => y.":
        "def k2_R : forall (x x' : Nat), Nat_R x x' -> Nat_R (k2 x) (k2 x') "
        ":= fun (y y' : Nat) (y_R : Nat_R y y') => y_R.",
    "def m5 : Nat -> Nat -> Nat :=\n"
    "  fun (x : Nat) => (fun (y z : Nat) => plus y z) x.":
        "def m5_R : forall (x x' : Nat), Nat_R x x' -> (forall (x1 x'1 : Nat), "
        "Nat_R x1 x'1 -> Nat_R (m5 x x1) (m5 x' x'1)) := fun (x x' : Nat) "
        "(x_R : Nat_R x x') (z z' : Nat) (z_R : Nat_R z z') => "
        "plus_R x x' x_R z z' z_R.",
    # A redex in the type that the relation's product takes: the source
    # is normalised before it is translated, so the product's binders are
    # named once (x2), not once by the translation and again by
    # contracting the relation (x11).
    "def m4 : forall (A : Set0), (fun (T : Set0) => T -> T -> T) A -> A -> A"
    " :=\n  fun (A : Set0) (g : A -> A -> A) (y : A) => g y y.":
        "def m4_R : forall (A A' : Set0) (A_R : A -> A' -> Prop) (x : A -> A "
        "-> A) (x' : A' -> A' -> A'), (forall (x1 : A) (x'1 : A'), A_R x1 x'1 "
        "-> (forall (x2 : A) (x'2 : A'), A_R x2 x'2 -> A_R (x x1 x2) (x' x'1 "
        "x'2))) -> (forall (x1 : A) (x'1 : A'), A_R x1 x'1 -> A_R (m4 A x x1) "
        "(m4 A' x' x'1)) := fun (A A' : Set0) (A_R : A -> A' -> Prop) (g : A "
        "-> A -> A) (g' : A' -> A' -> A') (g_R : forall (x : A) (x' : A'), "
        "A_R x x' -> (forall (x1 : A) (x'1 : A'), A_R x1 x'1 -> A_R (g x x1) "
        "(g' x' x'1))) (y : A) (y' : A') (y_R : A_R y y') => g_R y y' y_R y "
        "y' y_R.",
    # An unapplied product, whose relation space's pair avoids the
    # product's own binder f.
    "def pf : Set0 := forall (f : Nat), Nat.":
        "def pf_R : pf -> pf -> Prop := fun (f1 f1' : Nat -> Nat) => forall "
        "(f f' : Nat), Nat_R f f' -> Nat_R (f1 f) (f1' f').",
    # A type variable named like a generated name: a binder of a relation
    # never takes the name of a source variable free in its scope, so the
    # binder over the domain x1 is x3 (x2 in g_R's type), while the binder
    # of the last Nat, whose scope does not use x1, is x1.
    "def m2 : forall (x1 : Set0), (Nat -> x1 -> Nat -> Nat) -> x1 -> Nat :=\n"
    "  fun (x1 : Set0) (g : Nat -> x1 -> Nat -> Nat) (y : x1) =>\n"
    "    g zero y zero.":
        "def m2_R : forall (x1 x1' : Set0) (x1_R : x1 -> x1' -> Prop) (x : "
        "Nat -> x1 -> Nat -> Nat) (x' : Nat -> x1' -> Nat -> Nat), (forall "
        "(x2 x'1 : Nat), Nat_R x2 x'1 -> (forall (x3 : x1) (x'2 : x1'), x1_R "
        "x3 x'2 -> (forall (x1 x'3 : Nat), Nat_R x1 x'3 -> Nat_R (x x2 x3 "
        "x1) (x' x'1 x'2 x'3)))) -> (forall (x2 : x1) (x'1 : x1'), x1_R x2 "
        "x'1 -> Nat_R (m2 x1 x x2) (m2 x1' x' x'1)) := fun (x1 x1' : Set0) "
        "(x1_R : x1 -> x1' -> Prop) (g : Nat -> x1 -> Nat -> Nat) (g' : Nat "
        "-> x1' -> Nat -> Nat) (g_R : forall (x x' : Nat), Nat_R x x' -> "
        "(forall (x2 : x1) (x'1 : x1'), x1_R x2 x'1 -> (forall (x1 x'2 : "
        "Nat), Nat_R x1 x'2 -> Nat_R (g x x2 x1) (g' x' x'1 x'2)))) (y : x1) "
        "(y' : x1') (y_R : x1_R y y') => g_R zero zero zero_R y y' y_R zero "
        "zero zero_R.",
    # A binder of a relation that is free in the related terms is renamed,
    # each binder of a triple on its own (x'1, not x1'): the source binder
    # x1 to x11 but its copy x1' kept.  The inner relations' x is kept: it
    # is free neither in their related terms nor in an image.
    "def k25 : forall (x : Nat), (Nat -> Nat -> Nat) -> forall (x1 : Nat),\n"
    "    (Nat -> Nat) -> Nat :=\n"
    "  fun (x : Nat) (g : Nat -> Nat -> Nat) (x1 : Nat) (h : Nat -> Nat) =>\n"
    "    g x x1.":
        "def k25_R : forall (x x' : Nat), Nat_R x x' -> (forall (x1 x'1 : Nat "
        "-> Nat -> Nat), (forall (x x' : Nat), Nat_R x x' -> (forall (x2 x'2 "
        ": Nat), Nat_R x2 x'2 -> Nat_R (x1 x x2) (x'1 x' x'2))) -> (forall "
        "(x11 x1' : Nat), Nat_R x11 x1' -> (forall (x2 x'2 : Nat -> Nat), "
        "(forall (x x' : Nat), Nat_R x x' -> Nat_R (x2 x) (x'2 x')) -> Nat_R "
        "(k25 x x1 x11 x2) (k25 x' x'1 x1' x'2)))) := fun (x x' : Nat) (x_R "
        ": Nat_R x x') (g g' : Nat -> Nat -> Nat) (g_R : forall (x x' : "
        "Nat), Nat_R x x' -> (forall (x1 x'1 : Nat), Nat_R x1 x'1 -> Nat_R "
        "(g x x1) (g' x' x'1))) (x1 x1' : Nat) (x1_R : Nat_R x1 x1') (h h' : "
        "Nat -> Nat) (h_R : forall (x x' : Nat), Nat_R x x' -> Nat_R (h x) "
        "(h' x')) => g_R x x' x_R x1 x1' x1_R.",
}


@pytest.mark.parametrize("source", list(PINNED_RELATIONS),
                         ids=["redex", "type_redex", "inner_redex",
                              "type_redex_product", "relation_space", "named_like_generated",
                              "capture"])
def test_relations_keep_their_printed_form(source, capsys, tmp_path):
    path = tmp_path / "pinned.rcic"
    path.write_text(source + "\n")
    assert main(["translate", str(rcic.prelude_path()), str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == PINNED_RELATIONS[source]


def test_translated_definitions_check(translated_env):
    for name in list(translated_env.names()):
        d = translated_env.definition(name)
        if d is None or not name.endswith("_R"):
            continue
        check(translated_env, Context(), d.body, d.type)


# ---------------------------------------------------------------------------
# Context translation and the abstraction check


def test_translate_context(fresh_env):
    # A telescope's binders become triples in its relation, each ranging
    # over its type's relation at the binder and its copy.
    telescope = [("A", SortT(set_sort(0))), ("x", Var("A"))]
    declare_definition(fresh_env, "pick", prods(telescope, Var("A")),
                       lams(telescope, Var("x")))
    out, _ = strip_prods(translate_definition(fresh_env, "pick").type)
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


def test_abstraction_check_rejects_an_ill_typed_redex(translated_env):
    # Beta normalisation of the self-application never ends, so the kernel
    # must reject it before it is normalised, as a term, a type or the type
    # of a context entry.
    omega = Lam("x", NAT, App(Var("x"), Var("x")))
    loop = App(omega, omega)
    assert not abstraction_check(translated_env, Context(), loop, NAT)
    assert not abstraction_check(translated_env, Context(), Var("n"), loop)
    assert not abstraction_check(translated_env, Context().extend("n", loop),
                                 Var("n"), NAT)


def test_a_binder_shadowing_its_sibling_translates(fresh_env):
    # Only the kernel API makes such a term: the elaborator renames a
    # binder that shadows another.  The second x grows the alias `dup x`,
    # whose x its triple must not capture.
    ty = Prod("x", NAT, Prod("x", NAT, NAT))
    body = Lam("x", NAT, Lam("x", NAT, Var("x")))
    declare_definition(fresh_env, "dup", ty, body)
    translate_definition(fresh_env, "dup")
    assert fresh_env.definition("dup_R") is not None
    assert abstraction_check(fresh_env, Context(), body, ty)


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


# Names the translation also picks, or that its relations bind (x, x1, a,
# f, i), and names of prelude binders (A, n).
SHADOWING = ("x", "x1", "x2", "a", "a1", "f", "i", "A", "n")


def _rebound(t, pick, scope=None):
    """`t` with each binder `b` renamed to `pick(b, used)`, where `used`
    are the new names of the outer binders its scope refers to, and each
    Var with its binder.  A name outside `used` captures nothing, so the
    result is alpha-equivalent to `t`.  A `fun` binder `_` stays, as it
    ends the alias of a fix's body (`param.Alias`)."""
    scope = scope or {}
    kind = type(t)
    if kind is Var:
        return Var(scope.get(t.name, t.name))
    if kind is Prod or kind is Lam or kind is Fix:
        dom, body = children(t)
        new = t.binder
        if new != "_" or kind is Prod:
            new = pick(new, {scope.get(y, y) for y in free_vars(body)
                             if y != t.binder})
        return rebuild_binder(t, new, _rebound(dom, pick, scope),
                              _rebound(body, pick, {**scope, t.binder: new}))
    return map_children(t, lambda c: _rebound(c, pick, scope))


def _apart():
    """A `pick` that names binders u0, u1, ..., each once."""
    count = itertools.count()
    return lambda name, used: f"u{next(count)}"


def _relations(env, t, ty, alias=None, a=None):
    """The witness of `t` and the relation of `ty` at `a` (or at `t`) and
    its copy, as the translation's entry points build them: from the
    source's normal form."""
    t, ty = param._prepare(env, t, ty)
    a = t if a is None else a
    return (param._translate(env, t, alias=alias),
            param._relate(env, ty, a, prime(a)))


# Definitions whose translations rename a binder for a reason that
# renaming_paths.rcic does not reach: an inner binder named like the
# relation space's pair f (pair_inner); a relation binder g whose first
# fresh name g1 is a source variable of its scope (inner_g); a `_` binder,
# under the images of a fix, whose first fresh name x1 is one too
# (fix_x1); and, once renamed to shadow, an outer binder b named like the
# unused a that the fix's alias holds (unused_outer).
RENAMED_BINDERS = """\
def pair_inner : Set0 := forall (a : Nat) (f : Nat), Nat.
def inner_g : forall (g1 : Set0), (forall (g : Nat), List g1) -> Nat :=
  fun (g1 : Set0) (g : forall (g : Nat), List g1) => zero.
def fix_x1 : forall (x : Nat), Nat -> Nat -> Nat :=
  fun (x : Nat) =>
    fix go {struct 0} : Nat -> Nat -> Nat :=
      fun (n x1 : Nat) =>
        match n as w in Nat return Nat with
        | zero => x
        | succ => fun (m : Nat) =>
            match m as u in Nat return Nat with
            | zero => go m x1
            | succ => fun (_ : Nat) => plus x1 (go m x1)
            end
        end.
def unused_outer : Nat -> Nat -> Nat -> Nat :=
  fun (a b : Nat) =>
    fix go {struct 0} : Nat -> Nat :=
      fun (n : Nat) =>
        match n as w in Nat return Nat with
        | zero => b
        | succ => fun (m : Nat) => go m
        end.
"""


def test_translation_respects_alpha_equivalence():
    # Renaming every binder apart changes no witness or relation beyond
    # its binder names: the binders the translation makes capture nothing,
    # whatever names the source binds.  Every definition of the prelude, of
    # the renaming paths and of RENAMED_BINDERS, as written, with each
    # binder named by the first of SHADOWING that captures nothing, and five
    # times with its binders renamed at random to shadow one another and
    # the names the translation picks, then 300 generated terms renamed so.
    env = load_declarations(fresh_prelude_env(), (Path(__file__).with_name(
        "renaming_paths.rcic")).read_text() + RENAMED_BINDERS)
    rng = random.Random(0)

    def shadow(name, used, choose=rng.choice):
        names = [n for n in SHADOWING if n not in used]
        return choose(names) if names else fresh_name(name, used)

    def first(name, used):
        return shadow(name, used, lambda names: names[0])

    definitions = 0
    for name in list(env.names()):
        d = env.definition(name)
        if d is None:
            continue
        self_ref = param.Alias(Const(name), Const(name))
        pick = _apart()
        apart = _relations(env, _rebound(d.body, pick), _rebound(d.type, pick),
                           self_ref, Const(name))
        shadowed = [(_rebound(d.body, pick), _rebound(d.type, pick))
                    for pick in [first] + [shadow] * 5]
        for body, ty in [(d.body, d.type), *shadowed]:
            old = _relations(env, body, ty, self_ref, Const(name))
            assert alpha_eq(old[0], apart[0]), name
            assert alpha_eq(old[1], apart[1]), name
        definitions += 1
    assert definitions == 47
    for seed in range(3):
        rng.seed(seed)
        for _ in range(100):
            t, ty = random_typed(rng, depth=4)
            t = _rebound(t, shadow)
            pick = _apart()
            old = _relations(env, t, ty)
            new = _relations(env, _rebound(t, pick), _rebound(ty, pick))
            assert alpha_eq(old[0], new[0]) and alpha_eq(old[1], new[1]), t


def test_no_binder_captures_a_renamed_witness():
    # A second x whose annotation uses the first is renamed to x1 in the
    # output, so its witness is x1_R.  Neither the witness of a fix x1 nor
    # the witness binder of a later x1 in a product's relation may capture
    # it.  Only the kernel API builds such terms: the elaborator renames a
    # binder that shadows another.
    env = load_declarations(fresh_prelude_env(), VEC_SOURCE + (
        "def P : Nat -> Set0 := fun (n : Nat) => Nat.\n"))

    def vec(n):
        return app(Ind("Vec"), NAT, n)

    def fix_term(outer, inner, fix):
        inner_case = Case(
            "Vec", Var(inner), (NAT,), Lam("k", NAT, Lam("w", vec(Var("k")),
                                                          NAT)),
            (Constr("zero"), lams([("m", NAT), ("h", NAT),
                                   ("t", vec(Var("m")))], Var("m"))))
        body = Lam("n", NAT, Case("Nat", Var("n"), (), Lam("w", NAT, NAT),
                                  (inner_case, Lam("k", NAT, Var("k")))))
        return Lam(outer, NAT, Lam(inner, vec(Var(outer)),
                                   Fix(fix, arrow(NAT, NAT), body, 0)))

    ty = Prod("x", NAT, Prod("x", vec(Var("x")), arrow(NAT, NAT)))
    for names in [("x", "x", "x1"), ("u0", "u1", "u2"), ("x", "x", "g")]:
        assert abstraction_check(env, Context(), fix_term(*names), ty), names
    # P x is Nat, so y's annotation uses the second x.
    p_x = App(Const("P"), Var("x"))
    ty = Prod("x", NAT, Prod("x", p_x, Prod("x1", NAT, Prod(
        "y", vec(Var("x")), NAT))))
    t = lams([("x", NAT), ("x", p_x), ("x1", NAT), ("y", vec(Var("x")))],
             Constr("zero"))
    assert abstraction_check(env, Context(), t, ty)


@pytest.mark.parametrize("seed", [4, 5])
def test_capture_files_pass(seed):
    # Fixes under binders named like the names the translation picks (see
    # capture_files.py): every definition of the file and of the prelude
    # passes param-check.
    assert capture_files.verdicts(seed) == (capture_files.PASSES, 0)


def test_substitution_work_grows_at_most_quadratically():
    # Twice the binders may cost at most three times the walker calls.
    # b{n} holds no redex, so its relations are built in normal form and
    # nothing is read back; `test_read_back_work_grows_at_most_quadratically`
    # in test_kernel.py scales the read-back.
    assert walker_calls(40) / walker_calls(20) <= 3.0


def test_copy_work_grows_linearly():
    # Twice the binders may cost at most 2.2 times the `prime` calls: the
    # translation of a product telescope copies each suffix once.  Each
    # domain of c{n} names a variable, so each needs a copy.
    copies = [walker_calls(n, [(rcic.param, "prime")], copy_depth_source)
              for n in (100, 200)]
    assert copies[1] / copies[0] <= 2.2


def test_copy_of_nested_arguments_grows_linearly():
    # Twice the nesting may cost at most 2.2 times the copies made (calls
    # of `_copy`, through which every copy is made, and of `prime`, which
    # walks what it hands over): an application's copy is built from its
    # argument's, so the numeral succ (... (succ zero)) is copied once,
    # not once per succ above it.
    copies = []
    for n in (50, 100):
        env = load_declarations(fresh_prelude_env(), f"def s{n} : Nat := "
                                + "succ (" * n + "zero" + ")" * n + ".")
        with counting([(rcic.param, "_copy"),
                       (rcic.param, "prime")]) as calls:
            translate_definition(env, f"s{n}")
        copies.append(calls[0])
    assert copies[1] / copies[0] <= 2.2


def test_fresh_names_grow_linearly_in_binder_depth():
    # Each level of b{n}'s type renames its triple past the names of the
    # levels before it (x, x1, x2, ...).  A search for a fresh name resumes
    # where the last one for the same name stopped, so twice the binders
    # may cost at most 2.2 times the names probed.
    b64, b128 = name_probes(64), name_probes(128)
    assert b128 / b64 <= 2.2


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
