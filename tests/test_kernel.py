"""Tests for reduction, conversion, typing, and inductive wellformedness."""

import itertools
import random

import pytest

from rcic import (
    App,
    Case,
    Const,
    Constr,
    Context,
    ErrorKind,
    FULL,
    Fix,
    GlobalEnv,
    Ind,
    InductiveDecl,
    Lam,
    PROP,
    Prod,
    STAR,
    Sort,
    SortT,
    TypeCheckError,
    Var,
    alpha_eq,
    app,
    arrow,
    axiom_sort,
    beta_normalize,
    check,
    check_inductive,
    conv,
    declare_inductive,
    infer,
    infer_sort,
    is_small,
    one_step_reducts,
    set_sort,
    sort_of_product,
    subsort,
    subst,
    subtype,
    translate_term,
    type_sort,
    whnf,
)

from rcic.syntax import unfold_app

from conftest import load_declarations, term_in
from gen import LIST_NAT, UNIT, random_typed
from nameless import to_nameless

NAT = Ind("Nat")
BOOL = Ind("Bool")

ALL_SORTS = ([PROP] + [set_sort(i) for i in range(5)]
             + [type_sort(i) for i in range(1, 5)])


# ---------------------------------------------------------------------------
# Sorts


def test_axiom_sort():
    assert axiom_sort(PROP) == type_sort(1)
    for i in range(4):
        assert axiom_sort(set_sort(i)) == type_sort(i + 1)
    for i in range(1, 4):
        assert axiom_sort(type_sort(i)) == type_sort(i + 1)


def _product_oracle(domain, codomain):
    """The three product rules, restated independently."""
    if codomain.kind == "Prop":
        return PROP
    if domain.kind == "Prop":
        return codomain
    level = max(domain.level, codomain.level)
    return Sort(codomain.kind, level)


def test_sort_of_product_table():
    for domain, codomain in itertools.product(ALL_SORTS, ALL_SORTS):
        assert sort_of_product(domain, codomain) == _product_oracle(domain, codomain)


def test_sort_of_product_spot():
    # Impredicative Prop: the codomain wins outright.
    assert sort_of_product(type_sort(4), PROP) == PROP
    # A Prop domain never raises the level.
    assert sort_of_product(PROP, set_sort(0)) == set_sort(0)
    # Predicative maximum keeps the codomain's family.
    assert sort_of_product(type_sort(2), set_sort(1)) == set_sort(2)
    assert sort_of_product(set_sort(3), type_sort(1)) == type_sort(3)


def _closure_oracle(levels=5):
    """Reflexive-transitive closure of the declared one-step inclusions."""
    sorts = ([PROP] + [set_sort(i) for i in range(levels + 1)]
             + [type_sort(i) for i in range(1, levels + 1)])
    edges = {(a, a) for a in sorts}
    edges.add((PROP, set_sort(1)))
    for i in range(levels):
        edges.add((set_sort(i), set_sort(i + 1)))
    for i in range(1, levels):
        edges.add((type_sort(i), type_sort(i + 1)))
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(edges), list(edges)):
            if b == c and (a, d) not in edges:
                edges.add((a, d))
                changed = True
    return sorts, edges


def test_subsort_matches_closure():
    sorts, closure = _closure_oracle()
    for a, b in itertools.product(sorts, sorts):
        assert subsort(a, b) == ((a, b) in closure), (a, b)


def test_subsort_spot():
    assert subsort(PROP, PROP)
    assert subsort(PROP, set_sort(1))
    assert not subsort(PROP, set_sort(0))
    assert subsort(set_sort(0), set_sort(2))
    assert not subsort(set_sort(2), set_sort(0))
    # The Set and Type families never mix.
    assert not subsort(set_sort(0), type_sort(1))
    assert not subsort(type_sort(1), set_sort(2))
    assert not subsort(PROP, type_sort(1))


# ---------------------------------------------------------------------------
# Reduction


def test_whnf_beta(prelude_env):
    t = App(Lam("x", NAT, Var("x")), Constr("zero"))
    assert whnf(prelude_env, t) == Constr("zero")
    # Only the head is reduced.
    inner = App(Lam("y", NAT, Var("y")), Constr("zero"))
    t = App(Lam("x", NAT, Lam("z", NAT, inner)), Constr("zero"))
    out = whnf(prelude_env, t)
    assert isinstance(out, Lam)
    assert out.body == inner


def test_whnf_delta(prelude_env):
    assert whnf(prelude_env, Const("one")) == App(Constr("succ"), Constr("zero"))


def test_whnf_iota(prelude_env):
    t = term_in(prelude_env, "match true as b in Bool return Nat "
                             "with | true => zero | false => one end")
    assert whnf(prelude_env, t) == Constr("zero")
    # Constructor arguments reach the branch.
    t = term_in(prelude_env, "match succ zero as n in Nat return Nat "
                             "with | zero => zero | succ k => k end")
    assert whnf(prelude_env, t) == Constr("zero")


def test_whnf_fix_unfolds_on_constructors(prelude_env):
    t = term_in(prelude_env, "plus one one")
    out = whnf(prelude_env, t)
    head, args = out, []
    while isinstance(head, App):
        args.append(head.arg)
        head = head.fn
    assert head == Constr("succ")


def test_whnf_fix_stuck_on_variable(prelude_env):
    # A fix whose decreasing argument is not constructor-headed must not
    # unfold, or checking recursive functions would diverge.
    fix = term_in(prelude_env, "fix f {struct 0} : Nat -> Nat := "
                               "fun (n : Nat) => match n as x in Nat return Nat "
                               "with | zero => zero | succ k => f k end")
    stuck = App(fix, Var("n"))
    assert whnf(prelude_env, stuck) == stuck


def test_whnf_fix_needs_all_arguments(prelude_env):
    fix = term_in(prelude_env, "fix f {struct 1} : Nat -> Nat -> Nat := "
                               "fun (n m : Nat) => n")
    partial = App(fix, Constr("zero"))
    assert whnf(prelude_env, partial) == partial


def test_beta_normalize():
    t = App(Lam("x", NAT, App(Lam("y", NAT, Var("y")), Var("x"))), Var("z"))
    assert beta_normalize(t) == Var("z")
    # Normalizes under binders, unlike whnf.
    t = Lam("x", NAT, App(Lam("y", NAT, Var("y")), Var("x")))
    assert beta_normalize(t) == Lam("x", NAT, Var("x"))


def _beta_normalize_by_subst(t):
    """The reference beta normaliser: substitute, then normalise again."""
    match t:
        case App(fn, arg):
            fn, arg = _beta_normalize_by_subst(fn), _beta_normalize_by_subst(arg)
            if isinstance(fn, Lam):
                return _beta_normalize_by_subst(subst(fn.body, fn.binder, arg))
            return App(fn, arg)
        case Prod(binder, domain, codomain):
            return Prod(binder, _beta_normalize_by_subst(domain),
                        _beta_normalize_by_subst(codomain))
        case Lam(binder, annotation, body):
            return Lam(binder, _beta_normalize_by_subst(annotation),
                       _beta_normalize_by_subst(body))
        case Case(ind, scrutinee, params, motive, branches):
            return Case(ind, _beta_normalize_by_subst(scrutinee),
                        tuple(map(_beta_normalize_by_subst, params)),
                        _beta_normalize_by_subst(motive),
                        tuple(map(_beta_normalize_by_subst, branches)))
        case Fix(binder, annotation, body, decreasing):
            return Fix(binder, _beta_normalize_by_subst(annotation),
                       _beta_normalize_by_subst(body), decreasing)
    return t


def test_beta_normalize_keeps_names_and_sharing():
    x = Var("x")
    # The substituted `x` is free under the binder `x`, which is renamed
    # exactly as `subst` renames it.
    redex = App(Lam("y", NAT, Lam("x", NAT, App(Var("y"), x))), x)
    assert beta_normalize(redex) == Lam("x1", NAT, App(x, Var("x1")))
    # A redex made by the substitution itself, in head position.
    t = App(Lam("f", arrow(NAT, NAT), Lam("n", NAT, App(Var("f"), Var("n")))),
            Lam("m", NAT, App(Constr("succ"), Var("m"))))
    assert beta_normalize(t) == Lam("n", NAT, App(Constr("succ"), Var("n")))
    # A normal term comes back as the same object.
    normal = Lam("n", NAT, Case("Nat", Var("n"), (), Lam("k", NAT, NAT),
                                (Constr("zero"), Lam("k", NAT, Var("k")))))
    assert beta_normalize(normal) is normal
    applied = App(Var("f"), normal)
    assert beta_normalize(applied) is applied


def test_beta_normalize_matches_reference_on_translations(fresh_env):
    # The relational translation is where beta_normalize earns its keep:
    # its raw images are full of administrative redexes.
    for name in ("id", "compose", "flip", "plus", "double", "not_not",
                 "append", "map", "fold_right"):
        defn = fresh_env.definition(name)
        for raw in (translate_term(fresh_env, defn.body),
                    translate_term(fresh_env, defn.type)):
            assert beta_normalize(raw) == _beta_normalize_by_subst(raw), name


def test_one_step_reducts(prelude_env):
    redex = App(Lam("x", NAT, Var("x")), Constr("zero"))
    assert Constr("zero") in one_step_reducts(prelude_env, redex)
    # Delta at a defined name.
    assert (App(Constr("succ"), Constr("zero"))
            in one_step_reducts(prelude_env, Const("one")))
    # No redexes, no reducts.
    assert one_step_reducts(prelude_env, Lam("x", NAT, Var("x"))) == []
    # A single iota step applies the branch without reducing further.
    t = term_in(prelude_env, "match succ zero as n in Nat return Nat "
                             "with | zero => zero | succ k => k end")
    applied = App(Lam("k", NAT, Var("k")), Constr("zero"))
    assert any(alpha_eq(r, applied) for r in one_step_reducts(prelude_env, t))


# ---------------------------------------------------------------------------
# Conversion and subtyping


def test_conv_alpha(prelude_env):
    a = Lam("x", NAT, Var("x"))
    b = Lam("y", NAT, Var("y"))
    assert conv(prelude_env, a, b)
    assert not conv(prelude_env, a, Lam("y", BOOL, Var("y")))


def test_conv_under_binders(prelude_env):
    env = prelude_env
    x, y, z = Var("x"), Var("y"), Var("z")
    identity = Lam("x", NAT, x)
    # Equal binder names: the bodies are compared as they are.
    assert conv(env, identity, Lam("x", NAT, app(Lam("z", NAT, z), x)))
    assert conv(env, Prod("x", SortT(set_sort(0)), x),
                Prod("x", SortT(set_sort(0)), x))
    assert not conv(env, Lam("x", NAT, Lam("y", NAT, x)),
                    Lam("x", NAT, Lam("y", NAT, y)))
    # Different names.
    assert conv(env, identity, Lam("y", NAT, y))
    assert conv(env, Prod("x", SortT(set_sort(0)), x),
                Prod("y", SortT(set_sort(0)), y))
    assert conv(env, Lam("x", NAT, Lam("y", NAT, x)),
                Lam("y", NAT, Lam("x", NAT, y)))
    assert not conv(env, Lam("x", NAT, y), Lam("y", NAT, x))
    assert not conv(env, Prod("x", SortT(set_sort(0)), y),
                    Prod("y", SortT(set_sort(0)), x))
    # The first binder's name is free in the other body, so renaming only
    # that body would capture it.
    assert not conv(env, identity, Lam("y", NAT, x))
    assert conv(env, identity, Lam("y", NAT, app(Lam("w", NAT, y), x)))
    assert not conv(env, Prod("x", SortT(set_sort(0)), x),
                    Prod("y", SortT(set_sort(0)), x))
    # A binder named like a definition is abstract, never the global.
    assert not conv(env, Lam("one", NAT, Var("one")),
                    Lam("one", NAT, app(Constr("succ"), Constr("zero"))))
    # Fixpoints, whose binder is in scope in the body.
    ty = arrow(NAT, NAT)

    def fix(f, n, body):
        return Fix(f, ty, Lam(n, NAT, body), 0)

    assert conv(env, fix("f", "n", App(Var("f"), Var("n"))),
                fix("f", "n", App(Var("f"), Var("n"))))
    assert conv(env, fix("f", "n", App(Var("f"), Var("n"))),
                fix("g", "m", App(Var("g"), Var("m"))))
    assert not conv(env, fix("f", "n", App(Var("f"), Var("n"))),
                    fix("g", "n", App(Var("f"), Var("n"))))


def test_conv_computes(prelude_env):
    two_plus_two = term_in(prelude_env, "plus two two")
    four = term_in(prelude_env, "succ (succ (succ (succ zero)))")
    assert conv(prelude_env, two_plus_two, four)
    assert not conv(prelude_env, two_plus_two, term_in(prelude_env, "three"))
    # Unfolding on both sides.
    assert conv(prelude_env, term_in(prelude_env, "double two"),
                term_in(prelude_env, "plus two two"))


def test_conv_open_terms(prelude_env):
    env = prelude_env
    x = Var("x")  # x : Nat, free

    def plus(a, b):
        return app(Const("plus"), a, b)

    def succ(a):
        return App(Constr("succ"), a)

    zero, one, two = Constr("zero"), Const("one"), Const("two")
    # Same global head: the arguments are compared before unfolding.
    assert conv(env, plus(x, two), plus(x, succ(one)))
    # Unfolding and iota on a constructor-headed decreasing argument.
    assert conv(env, plus(zero, x), x)
    assert conv(env, plus(succ(x), zero), succ(plus(x, zero)))
    # Stuck on the free variable.
    assert not conv(env, plus(x, zero), x)
    assert not conv(env, plus(x, one), plus(one, x))

    def stuck(succ_branch):
        return Case("Nat", x, (), Lam("n", NAT, BOOL),
                    (Constr("true"), Lam("k", NAT, succ_branch)))

    assert conv(env, stuck(App(Const("negb"), Constr("true"))),
                stuck(Constr("false")))
    assert not conv(env, stuck(Constr("true")), stuck(Constr("false")))


def _constructor_form(env, t):
    """The oracle normal form of a closed first-order term: whnf, then the
    same for every argument of the constructor it reaches."""
    head, args = unfold_app(whnf(env, t))
    assert isinstance(head, (Constr, Ind)), head
    return app(head, *(_constructor_form(env, a) for a in args))


def test_conv_agrees_with_normal_form_oracle(prelude_env):
    env = prelude_env
    rng = random.Random(20240)
    first_order = (NAT, BOOL, LIST_NAT, UNIT)
    terms = []
    while len(terms) < 200:
        t, ty = random_typed(rng, depth=4)
        if any(alpha_eq(ty, target) for target in first_order):
            terms.append((t, ty, _constructor_form(env, t)))
    for t, _, nf in terms:
        assert conv(env, t, nf)
        assert conv(env, nf, t)
    pairs = convertible = 0
    for (a, ty_a, nf_a), (b, ty_b, nf_b) in zip(terms, terms[1:]):
        if not alpha_eq(ty_a, ty_b):
            continue
        pairs += 1
        expected = to_nameless(nf_a) == to_nameless(nf_b)
        convertible += expected
        assert conv(env, a, b) == expected
        assert conv(env, b, a) == expected
        assert subtype(env, a, b) == expected
        assert subtype(env, b, a) == expected
    # Both verdicts are exercised.
    assert pairs >= 50 and 0 < convertible < pairs


def test_conv_no_eta(prelude_env):
    expanded = term_in(prelude_env, "fun (n : Nat) => succ n")
    assert not conv(prelude_env, expanded, Constr("succ"))


def test_subtype_sorts(prelude_env):
    assert subtype(prelude_env, SortT(PROP), SortT(set_sort(1)))
    assert not subtype(prelude_env, SortT(set_sort(1)), SortT(PROP))
    assert not subtype(prelude_env, SortT(set_sort(0)), SortT(type_sort(1)))


def test_subtype_products(prelude_env):
    small = Prod("_", NAT, SortT(PROP))
    big = Prod("_", NAT, SortT(set_sort(1)))
    assert subtype(prelude_env, small, big)
    assert not subtype(prelude_env, big, small)
    # Domains are compared by conversion, not contravariantly.
    assert not subtype(prelude_env, Prod("_", SortT(set_sort(1)), SortT(PROP)),
                       Prod("_", SortT(PROP), SortT(PROP)))
    # Reflexivity via conversion.
    assert subtype(prelude_env, arrow(NAT, NAT), arrow(NAT, NAT))
    # Codomains are compared under one name for differently named binders.
    named_small = Prod("x", NAT, SortT(set_sort(0)))
    named_big = Prod("y", NAT, SortT(set_sort(1)))
    assert subtype(prelude_env, named_small, named_big)
    assert not subtype(prelude_env, named_big, named_small)
    assert subtype(prelude_env, Prod("x", SortT(set_sort(0)), Var("x")),
                   Prod("y", SortT(set_sort(0)), Var("y")))
    assert not subtype(prelude_env, Prod("x", SortT(set_sort(0)), Var("x")),
                       Prod("y", SortT(set_sort(0)), Var("x")))


def test_subtype_unfolds(prelude_env):
    assert subtype(prelude_env, term_in(prelude_env, "neg Nat"),
                   arrow(NAT, Ind("Empty")))


# ---------------------------------------------------------------------------
# Typing


def test_infer_sorts(prelude_env):
    ctx = Context()
    assert infer(prelude_env, ctx, SortT(PROP)) == SortT(type_sort(1))
    assert infer(prelude_env, ctx, SortT(set_sort(2))) == SortT(type_sort(3))


def test_infer_products(prelude_env):
    ctx = Context()
    # Predicative Set: quantifying over Set_i lands in Set_{i+1}.
    for i in range(4):
        t = Prod("A", SortT(set_sort(i)), Var("A"))
        assert infer(prelude_env, ctx, t) == SortT(set_sort(i + 1))
    # Impredicative Prop: any quantification over a Prop codomain is a Prop.
    t = term_in(prelude_env, "forall (P : Prop), P -> P")
    assert infer(prelude_env, ctx, t) == SortT(PROP)
    t = term_in(prelude_env, "forall (A : Set0) (P : A -> Prop) (x : A), P x")
    assert infer(prelude_env, ctx, t) == SortT(PROP)
    # But the type of predicates is large: its codomain is the sort Prop
    # itself, which lives in Type1.
    t = term_in(prelude_env, "forall (A : Set0), A -> Prop")
    assert infer(prelude_env, ctx, t) == SortT(type_sort(1))


def test_infer_lambda_app(prelude_env):
    ctx = Context()
    t = term_in(prelude_env, "fun (n : Nat) => succ n")
    assert alpha_eq(infer(prelude_env, ctx, t), arrow(NAT, NAT))
    assert infer(prelude_env, ctx, term_in(prelude_env, "id Nat two")) == NAT
    # Dependent application instantiates the codomain.
    assert alpha_eq(infer(prelude_env, ctx, term_in(prelude_env, "id Nat")),
                    arrow(NAT, NAT))


def test_infer_globals(prelude_env):
    ctx = Context()
    assert infer(prelude_env, ctx, NAT) == SortT(set_sort(0))
    assert alpha_eq(infer(prelude_env, ctx, Constr("succ")), arrow(NAT, NAT))
    assert alpha_eq(infer(prelude_env, ctx, Const("plus")),
                    arrow(NAT, arrow(NAT, NAT)))


def test_infer_context_and_unbound(prelude_env):
    ctx = Context().extend("n", NAT)
    assert infer(prelude_env, ctx, Var("n")) == NAT
    with pytest.raises(TypeCheckError) as err:
        infer(prelude_env, Context(), Var("nowhere"))
    assert err.value.kind == ErrorKind.UNBOUND_VARIABLE


def test_infer_errors(prelude_env):
    ctx = Context()
    with pytest.raises(TypeCheckError) as err:
        infer(prelude_env, ctx, App(Constr("zero"), Constr("zero")))
    assert err.value.kind == ErrorKind.NOT_A_FUNCTION
    with pytest.raises(TypeCheckError) as err:
        infer(prelude_env, ctx, App(Constr("succ"), Constr("true")))
    assert err.value.kind == ErrorKind.NOT_CONVERTIBLE
    with pytest.raises(TypeCheckError) as err:
        check(prelude_env, ctx, Constr("zero"), BOOL)
    assert err.value.kind == ErrorKind.NOT_CONVERTIBLE
    with pytest.raises(TypeCheckError) as err:
        infer_sort(prelude_env, ctx, Constr("zero"))
    assert err.value.kind == ErrorKind.NOT_A_SORT


def test_check_uses_cumulativity(prelude_env):
    ctx = Context()
    # A Prop lives in Set1 by cumulativity.
    prop_ty = term_in(prelude_env, "forall (P : Prop), P -> P")
    check(prelude_env, ctx, prop_ty, SortT(set_sort(1)))
    with pytest.raises(TypeCheckError):
        check(prelude_env, ctx, SortT(set_sort(1)), SortT(set_sort(1)))


def test_infer_case(prelude_env):
    ctx = Context().extend("n", NAT)
    t = term_in(prelude_env, "match n as x in Nat return Bool "
                             "with | zero => true | succ k => false end")
    # Elaboration rebuilds the scrutinee binding, so retype in ctx.
    assert infer(prelude_env, ctx, t) == BOOL


def test_infer_case_errors(prelude_env):
    ctx = Context().extend("n", NAT)
    motive = Lam("x", NAT, BOOL)
    with pytest.raises(TypeCheckError) as err:
        infer(prelude_env, ctx, Case("Nat", Var("n"), (), motive,
                                     (Constr("true"),)))
    assert err.value.kind == ErrorKind.ARITY_MISMATCH
    with pytest.raises(TypeCheckError) as err:
        infer(prelude_env, ctx, Case("Nat", Constr("true"), (), motive,
                                     (Constr("true"), Lam("k", NAT, Constr("false")))))
    assert err.value.kind == ErrorKind.NOT_CONVERTIBLE


def test_infer_dependent_case(prelude_env):
    # Large elimination over a small inductive picks the branch type.
    t = term_in(prelude_env, """
        fun (b : Bool) =>
          match b as x in Bool
          return (match x as y in Bool return Set0
                  with | true => Nat | false => Bool end)
          with | true => zero | false => true end
    """)
    ty = infer(prelude_env, Context(), t)
    assert isinstance(ty, Prod)
    assert ty.domain == BOOL


def test_fix_guard_accepts_structural(prelude_env):
    t = term_in(prelude_env, "fix f {struct 0} : Nat -> Nat := "
                             "fun (n : Nat) => match n as x in Nat return Nat "
                             "with | zero => zero | succ k => f k end")
    assert alpha_eq(infer(prelude_env, Context(), t), arrow(NAT, NAT))


def test_fix_guard_violations(prelude_env):
    ctx = Context()
    # Recursion on the argument itself.
    with pytest.raises(TypeCheckError) as err:
        infer(prelude_env, ctx,
              term_in(prelude_env, "fix f {struct 0} : Nat -> Nat := "
                                   "fun (n : Nat) => f n"))
    assert err.value.kind == ErrorKind.GUARD_VIOLATION
    # Recursion on something unrelated.
    with pytest.raises(TypeCheckError) as err:
        infer(prelude_env, ctx,
              term_in(prelude_env, "fix f {struct 0} : Nat -> Nat := "
                                   "fun (n : Nat) => f two"))
    assert err.value.kind == ErrorKind.GUARD_VIOLATION
    # The decreasing argument must be of inductive type.
    with pytest.raises(TypeCheckError) as err:
        infer(prelude_env, ctx,
              term_in(prelude_env, "fix f {struct 0} : (Nat -> Nat) -> Nat := "
                                   "fun (g : Nat -> Nat) => f g"))
    assert err.value.kind == ErrorKind.GUARD_VIOLATION
    # The annotation must expose the decreasing argument.
    with pytest.raises(TypeCheckError):
        infer(prelude_env, ctx,
              term_in(prelude_env, "fix f {struct 2} : Nat -> Nat := "
                                   "fun (n : Nat) => n"))


def test_fix_nested_call_through_branch(prelude_env):
    # Recursive calls may use a deeper subterm, peeled by two cases.
    t = term_in(prelude_env, """
        fix f {struct 0} : Nat -> Nat :=
          fun (n : Nat) =>
            match n as x in Nat return Nat with
            | zero => zero
            | succ k =>
                match k as y in Nat return Nat with
                | zero => zero
                | succ j => f j
                end
            end
    """)
    assert alpha_eq(infer(prelude_env, Context(), t), arrow(NAT, NAT))


# ---------------------------------------------------------------------------
# Inductive declarations


def test_check_inductive_accepts_prelude(prelude_env):
    for name in ("Bool", "Nat", "List", "Unit", "Empty"):
        assert prelude_env.inductive(name) is not None


def test_inductive_positivity(fresh_env):
    bad = InductiveDecl("Bad", 0, SortT(set_sort(0)),
                        (("mk", arrow(arrow(Ind("Bad"), BOOL), Ind("Bad"))),))
    with pytest.raises(TypeCheckError) as err:
        check_inductive(fresh_env, bad)
    assert err.value.kind == ErrorKind.POSITIVITY_VIOLATION


def test_inductive_constructor_must_build_self(fresh_env):
    bad = InductiveDecl("Bad", 0, SortT(set_sort(0)), (("mk", NAT),))
    with pytest.raises(TypeCheckError) as err:
        check_inductive(fresh_env, bad)
    assert err.value.kind == ErrorKind.ILL_FORMED_INDUCTIVE


def test_inductive_constructor_sort_fits(fresh_env):
    # A Set0 inductive cannot store a Set0, but a Set1 one can.
    field = SortT(set_sort(0))
    too_big = InductiveDecl("Box", 0, SortT(set_sort(0)),
                            (("box", arrow(field, Ind("Box"))),))
    with pytest.raises(TypeCheckError) as err:
        check_inductive(fresh_env, too_big)
    assert err.value.kind == ErrorKind.ILL_FORMED_INDUCTIVE
    fits = InductiveDecl("Box", 0, SortT(set_sort(1)),
                         (("box", arrow(field, Ind("Box"))),))
    check_inductive(fresh_env, fits)


def test_inductive_prop_is_impredicative(fresh_env):
    # A Prop inductive may store anything: the constructor telescope ends
    # in Prop, so its sort is Prop.
    decl = InductiveDecl("Squash", 0, SortT(PROP),
                         (("squash", arrow(SortT(set_sort(0)), Ind("Squash"))),))
    check_inductive(fresh_env, decl)


def test_inductive_params_must_prefix_constructors(fresh_env):
    arity = Prod("A", SortT(set_sort(0)), SortT(set_sort(0)))
    # The prefix is compared up to alpha, so a renamed binder is fine.
    renamed = InductiveDecl("Wrap", 1, arity,
                            (("wrap", Prod("B", SortT(set_sort(0)),
                                           App(Ind("Wrap"), Var("B")))),))
    check_inductive(fresh_env, renamed)
    # Dropping the parameter binders is not.
    missing = InductiveDecl("Wrap", 1, arity,
                            (("wrap", App(Ind("Wrap"), NAT)),))
    with pytest.raises(TypeCheckError) as err:
        check_inductive(fresh_env, missing)
    assert err.value.kind == ErrorKind.ILL_FORMED_INDUCTIVE
    # The built type must apply the parameters themselves, in order.
    crooked = InductiveDecl("Wrap", 1, arity,
                            (("wrap", Prod("A", SortT(set_sort(0)),
                                           App(Ind("Wrap"), NAT))),))
    with pytest.raises(TypeCheckError) as err:
        check_inductive(fresh_env, crooked)
    assert err.value.kind == ErrorKind.ILL_FORMED_INDUCTIVE


def test_inductive_indices_must_not_mention_self(fresh_env):
    arity = arrow(NAT, SortT(set_sort(0)))
    bad = InductiveDecl("Deep", 0, arity,
                        (("mk", Prod("x", App(Ind("Deep"), Constr("zero")),
                                     App(Ind("Deep"),
                                         App(Var("length_of"), Var("x")))),)))
    # The index position applies Deep to a term mentioning Deep itself.
    worse = InductiveDecl("Deep", 0, arity,
                          (("mk", App(Ind("Deep"),
                                      Case("Nat", Constr("zero"), (),
                                           Lam("x", NAT, NAT),
                                           (Constr("zero"),
                                            Lam("k", App(Ind("Deep"), Var("k")),
                                                Constr("zero")))))),))
    with pytest.raises(TypeCheckError):
        check_inductive(fresh_env, worse)


def test_declare_indexed_inductive(fresh_env):
    load_declarations(fresh_env, """
        inductive Vec (A : Set0) : Nat -> Set0 :=
          vnil : Vec A zero
        | vcons : forall (n : Nat), A -> Vec A n -> Vec A (succ n).
    """)
    decl = fresh_env.inductive("Vec")
    assert decl.params == 1
    v = term_in(fresh_env, "vcons Nat zero two (vnil Nat)")
    ty = infer(fresh_env, Context(), v)
    assert alpha_eq(ty, term_in(fresh_env, "Vec Nat (succ zero)"))
    head = term_in(fresh_env, """
        fun (n : Nat) (v : Vec Nat (succ n)) =>
          match v as w in Vec Nat k return Nat with
          | vnil => zero
          | vcons m h t => h
          end
    """)
    infer(fresh_env, Context(), head)


def test_is_small(fresh_env):
    assert is_small(fresh_env, "Nat")
    assert is_small(fresh_env, "Bool")
    assert is_small(fresh_env, "List")
    assert is_small(fresh_env, "Empty")
    declare_inductive(fresh_env,
                      InductiveDecl("Boxed", 0, SortT(set_sort(1)),
                                    (("box", arrow(SortT(set_sort(0)),
                                                   Ind("Boxed"))),)))
    assert not is_small(fresh_env, "Boxed")


def test_strong_elim_gate(fresh_env):
    declare_inductive(fresh_env,
                      InductiveDecl("Boxed", 0, SortT(set_sort(1)),
                                    (("box", arrow(SortT(set_sort(0)),
                                                   Ind("Boxed"))),)))
    unbox = term_in(fresh_env, """
        fun (b : Boxed) =>
          match b as x in Boxed return Set0 with
          | box A => A
          end
    """)
    with pytest.raises(TypeCheckError) as err:
        infer(fresh_env, Context(), unbox, STAR)
    assert err.value.kind == ErrorKind.NON_SMALL_STRONG_ELIM
    # Full mode allows it.
    infer(fresh_env, Context(), unbox, FULL)
    # Small motives over the same inductive stay legal in Star mode.
    weak = term_in(fresh_env, """
        fun (b : Boxed) =>
          match b as x in Boxed return Nat with
          | box A => zero
          end
    """)
    infer(fresh_env, Context(), weak, STAR)


def test_strong_elim_over_small_is_fine(prelude_env):
    t = term_in(prelude_env, """
        fun (b : Bool) =>
          match b as x in Bool return Set0 with
          | true => Nat
          | false => Bool
          end
    """)
    infer(prelude_env, Context(), t, STAR)


def test_subject_reduction_sample(prelude_env):
    rng = random.Random(99)
    body = prelude_env.definition("plus").body
    # Applied, the fixpoint has redexes: delta at the numerals, and fix
    # unfolding once the decreasing argument is constructor-headed.
    for arg in (Const("two"), App(Constr("succ"), Const("one"))):
        reducts = one_step_reducts(prelude_env, App(body, arg))
        assert reducts
        for r in rng.sample(reducts, min(10, len(reducts))):
            check(prelude_env, Context(), r, arrow(NAT, NAT))


# ---------------------------------------------------------------------------
# Locals and globals


def test_a_local_named_like_a_definition_stays_abstract(fresh_env):
    load_declarations(fresh_env, "def T : Set0 := Nat.")
    # The shadowing probe: in this context T is an abstract type, so y is
    # not a Nat.
    ctx = Context((("T", SortT(set_sort(0))), ("y", Var("T"))))
    with pytest.raises(TypeCheckError) as err:
        check(fresh_env, ctx, Var("y"), NAT)
    assert err.value.kind == ErrorKind.NOT_CONVERTIBLE
    check(fresh_env, Context((("y", Const("T")),)), Var("y"), NAT)
    # Only the Const is the definition, for conversion, reduction and
    # typing alike.
    assert not conv(fresh_env, Var("T"), NAT)
    assert conv(fresh_env, Const("T"), NAT)
    assert whnf(fresh_env, Var("T")) == Var("T")
    assert whnf(fresh_env, Const("T")) == NAT
    assert infer(fresh_env, ctx, Var("T")) == SortT(set_sort(0))
    with pytest.raises(TypeCheckError) as err:
        infer(fresh_env, Context(), Var("T"))
    assert err.value.kind == ErrorKind.UNBOUND_VARIABLE
    with pytest.raises(TypeCheckError) as err:
        infer(fresh_env, Context(), Const("nowhere"))
    assert err.value.kind == ErrorKind.UNBOUND_VARIABLE
    # An unknown Const is stuck, and is not the variable of its name.
    assert not conv(fresh_env, Const("nowhere"), Var("nowhere"))


def test_one_step_reducts_keep_fix_binders(prelude_env):
    # The body of plus is `fix plus ...`; the `plus` it calls is its own
    # binder, not the global, and the unapplied fix has no redex.
    body = prelude_env.definition("plus").body
    assert isinstance(body, Fix) and body.binder == "plus"
    assert one_step_reducts(prelude_env, body) == []


def test_inductive_may_mention_definitions(fresh_env):
    load_declarations(fresh_env, """
        def N : Set0 := Nat.
        inductive Foo : N -> Set0 := foo : Foo zero.
    """)
    assert fresh_env.inductive("Foo").arity == arrow(Const("N"), SortT(set_sort(0)))
    # Free variables are still rejected, by checking in the empty context.
    set0 = SortT(set_sort(0))
    for decl in (InductiveDecl("Bar", 0, arrow(Var("zz"), set0), ()),
                 InductiveDecl("Bar", 0, set0,
                               (("bar", arrow(Var("zz"), Ind("Bar"))),))):
        with pytest.raises(TypeCheckError) as err:
            check_inductive(fresh_env, decl)
        assert err.value.kind == ErrorKind.UNBOUND_VARIABLE
        assert err.value.message == "unbound variable zz"
