"""Tests for the core term language: sorts, substitution, alpha-equivalence."""

import random

import pytest

from rcic import (
    App,
    Case,
    Const,
    Constr,
    Context,
    Definition,
    DuplicateNameError,
    Fix,
    GlobalEnv,
    Ind,
    InductiveDecl,
    Lam,
    PROP,
    Prod,
    Sort,
    SortT,
    UniverseError,
    Var,
    alpha_eq,
    app,
    arrow,
    free_vars,
    lams,
    prods,
    set_sort,
    subst,
    type_sort,
)
from rcic.syntax import fresh_name, strip_lams, strip_prods, unfold_app

from gen import random_term
from nameless import subst_free, to_nameless

NAT = Ind("Nat")


def test_sort_validation():
    assert str(PROP) == "Prop"
    assert str(set_sort(0)) == "Set0"
    assert str(type_sort(3)) == "Type3"
    with pytest.raises(UniverseError):
        Sort("Prop", 1)
    with pytest.raises(UniverseError):
        set_sort(-1)
    with pytest.raises(UniverseError):
        type_sort(0)
    with pytest.raises(UniverseError):
        Sort("Kind", 1)


def test_terms_are_immutable_and_hashable():
    v = Var("x")
    assert v == Var("x")
    assert hash(v) == hash(Var("x"))
    with pytest.raises(Exception):
        v.name = "y"
    seen = {Lam("x", NAT, Var("x")), Lam("x", NAT, Var("x"))}
    assert len(seen) == 1


def test_construction_helpers():
    assert app(Var("f"), Var("x"), Var("y")) == App(App(Var("f"), Var("x")), Var("y"))
    assert arrow(NAT, NAT) == Prod("_", NAT, NAT)
    t = prods([("x", NAT), ("y", NAT)], NAT)
    assert t == Prod("x", NAT, Prod("y", NAT, NAT))
    l = lams([("x", NAT), ("y", NAT)], Var("x"))
    assert l == Lam("x", NAT, Lam("y", NAT, Var("x")))
    assert strip_prods(t) == ([("x", NAT), ("y", NAT)], NAT)
    assert strip_lams(l) == ([("x", NAT), ("y", NAT)], Var("x"))
    assert unfold_app(app(Var("f"), Var("x"), Var("y"))) == (
        Var("f"), [Var("x"), Var("y")])


def test_free_vars():
    assert free_vars(Var("x")) == {"x"}
    assert free_vars(Lam("x", Var("a"), Var("x"))) == {"a"}
    assert free_vars(Prod("x", Var("x"), Var("x"))) == {"x"}
    t = Case("Nat", Var("n"), (Var("p"),), Var("m"),
             (Var("b0"), Lam("k", NAT, Var("k"))))
    assert free_vars(t) == {"n", "p", "m", "b0"}
    f = Fix("f", Var("t"), App(Var("f"), Var("x")), 0)
    assert free_vars(f) == {"t", "x"}


def test_const_names():
    # A Const is never substituted, but binders still avoid its name.
    t = App(Const("c"), Var("c"))
    assert free_vars(t) == {"c"}
    assert subst(t, "c", Var("z")) == App(Const("c"), Var("z"))
    out = subst(Lam("c", NAT, Var("y")), "y", Const("c"))
    assert out == Lam("c1", NAT, Const("c"))
    assert not alpha_eq(Const("c"), Var("c"))
    assert alpha_eq(Lam("x", NAT, Const("c")), Lam("y", NAT, Const("c")))


def test_fresh_name():
    assert fresh_name("x", frozenset()) == "x"
    assert fresh_name("x", frozenset({"x"})) == "x1"
    assert fresh_name("x", frozenset({"x", "x1"})) == "x2"


def test_subst_basics():
    assert subst(Var("x"), "x", Var("y")) == Var("y")
    assert subst(Var("z"), "x", Var("y")) == Var("z")
    # A binder shadows the substituted name.
    t = Lam("x", NAT, Var("x"))
    assert subst(t, "x", Var("y")) == t
    # The annotation is outside the binder's scope.
    t = Lam("x", Var("x"), Var("x"))
    assert subst(t, "x", NAT) == Lam("x", NAT, Var("x"))


def test_subst_avoids_capture():
    # [y/x] (fun y => x y) must rename the binder.
    t = Lam("y", NAT, App(Var("x"), Var("y")))
    out = subst(t, "x", Var("y"))
    assert isinstance(out, Lam)
    assert out.binder != "y"
    assert out.body == App(Var("y"), Var(out.binder))
    assert alpha_eq(out, Lam("z", NAT, App(Var("y"), Var("z"))))


def test_subst_capture_in_case_and_fix():
    branch = Lam("k", NAT, App(Var("x"), Var("k")))
    t = Case("Nat", Var("n"), (), Lam("k", NAT, NAT), (Var("x"), branch))
    out = subst(t, "x", Var("k"))
    assert alpha_eq(out, Case("Nat", Var("n"), (), Lam("k", NAT, NAT),
                              (Var("k"), Lam("j", NAT, App(Var("k"), Var("j"))))))
    f = Fix("f", NAT, App(Var("f"), Var("x")), 0)
    out = subst(f, "x", Var("f"))
    assert isinstance(out, Fix)
    assert out.binder != "f"
    assert out.body == App(Var(out.binder), Var("f"))


def _free_leaves(nameless) -> set[str]:
    """The names of the ("free", n) leaves of a nameless term."""
    if isinstance(nameless, tuple):
        if len(nameless) == 2 and nameless[0] == "free":
            return {nameless[1]}
        return set().union(*(_free_leaves(part) for part in nameless))
    return set()


def test_subst_matches_nameless_oracle():
    rng = random.Random(20260814)
    for _ in range(400):
        t = random_term(rng, rng.randrange(1, 5))
        name = rng.choice(("a", "b", "c", "x", "y", "z"))
        value = random_term(rng, rng.randrange(0, 3))
        out = subst(t, name, value)
        got = to_nameless(out)
        want = subst_free(to_nameless(t), name, to_nameless(value))
        assert got == want
        assert free_vars(t) == _free_leaves(to_nameless(t))
        assert free_vars(out) == _free_leaves(want)


def test_free_var_cache_is_invisible():
    t = Lam("y", NAT, App(Var("x"), Var("y")))
    u = Lam("y", NAT, App(Var("x"), Var("y")))
    before = repr(t)
    assert free_vars(t) == {"x"}
    assert t == u and u == t
    assert hash(t) == hash(u)
    assert repr(t) == repr(u) == before
    assert subst(t, "z", Var("w")) is t
    assert subst(t, "y", Var("w")) is t


def test_rename():
    t = Lam("y", NAT, App(Var("x"), Var("y")))
    assert alpha_eq(subst(t, "x", Var("z")),
                    Lam("y", NAT, App(Var("z"), Var("y"))))


def test_alpha_eq_basics():
    assert alpha_eq(Lam("x", NAT, Var("x")), Lam("y", NAT, Var("y")))
    assert not alpha_eq(Lam("x", NAT, Var("x")), Lam("y", NAT, Var("x")))
    assert not alpha_eq(Var("x"), Var("y"))
    assert alpha_eq(Prod("x", NAT, Var("x")), Prod("y", NAT, Var("y")))
    # Same name bound at different depths.
    a = Lam("x", NAT, Lam("x", NAT, Var("x")))
    b = Lam("x", NAT, Lam("y", NAT, Var("y")))
    c = Lam("x", NAT, Lam("y", NAT, Var("x")))
    assert alpha_eq(a, b)
    assert not alpha_eq(a, c)
    # Structure beyond binders must match exactly.
    assert not alpha_eq(Fix("f", NAT, Var("f"), 0), Fix("f", NAT, Var("f"), 1))
    assert not alpha_eq(SortT(set_sort(0)), SortT(set_sort(1)))


def test_alpha_eq_free_vs_bound():
    # A free variable never matches a bound one even if spelled the same.
    assert not alpha_eq(Lam("x", NAT, Var("x")), Lam("z", NAT, Var("x")))


def _alpha_variant(rng, t, counter):
    """Rebuild `t` renaming every binder to a fresh name."""
    match t:
        case Var() | SortT() | Ind() | Constr():
            return t
        case App(fn, arg):
            return App(_alpha_variant(rng, fn, counter),
                       _alpha_variant(rng, arg, counter))
        case Prod(binder, domain, codomain) | Lam(binder, domain, codomain):
            counter[0] += 1
            fresh = f"w{counter[0]}"
            body = _alpha_variant(rng, subst(codomain, binder, Var(fresh)), counter)
            node = Prod if isinstance(t, Prod) else Lam
            return node(fresh, _alpha_variant(rng, domain, counter), body)
        case Case(ind, scrutinee, params, motive, branches):
            return Case(ind, _alpha_variant(rng, scrutinee, counter),
                        tuple(_alpha_variant(rng, p, counter) for p in params),
                        _alpha_variant(rng, motive, counter),
                        tuple(_alpha_variant(rng, b, counter) for b in branches))
        case Fix(binder, annotation, body, decreasing):
            counter[0] += 1
            fresh = f"w{counter[0]}"
            return Fix(fresh, _alpha_variant(rng, annotation, counter),
                       _alpha_variant(rng, subst(body, binder, Var(fresh)), counter),
                       decreasing)
    raise TypeError(t)


def test_alpha_eq_matches_nameless_oracle():
    rng = random.Random(7)
    for _ in range(300):
        t = random_term(rng, rng.randrange(1, 5))
        variant = _alpha_variant(rng, t, [0])
        assert alpha_eq(t, variant)
        assert to_nameless(t) == to_nameless(variant)
        other = random_term(rng, rng.randrange(1, 5))
        assert alpha_eq(t, other) == (to_nameless(t) == to_nameless(other))


def test_context():
    ctx = Context().extend("x", NAT).extend("y", Ind("Bool"))
    assert ctx.lookup("x") == NAT
    assert ctx.lookup("missing") is None
    assert ctx.names() == {"x", "y"}
    assert len(ctx) == 2
    # Innermost binding wins.
    shadowed = ctx.extend("x", Ind("Bool"))
    assert shadowed.lookup("x") == Ind("Bool")
    # Contexts are persistent.
    assert ctx.lookup("x") == NAT


def test_global_env():
    env = GlobalEnv()
    nat = InductiveDecl("Nat", 0, SortT(set_sort(0)),
                        (("zero", Ind("Nat")),
                         ("succ", arrow(Ind("Nat"), Ind("Nat")))))
    env.add_inductive(nat)
    assert env.inductive("Nat") is nat
    assert env.definition("Nat") is None
    decl, i = env.constructor("succ")
    assert decl is nat and i == 1
    assert env.constructor("missing") is None
    env.add_definition(Definition("one", Ind("Nat"), App(Var("succ"), Var("zero"))))
    assert env.definition("one").body == App(Var("succ"), Var("zero"))
    with pytest.raises(DuplicateNameError):
        env.add_definition(Definition("Nat", NAT, NAT))
    with pytest.raises(DuplicateNameError):
        env.add_definition(Definition("succ", NAT, NAT))
    with pytest.raises(DuplicateNameError):
        env.add_inductive(InductiveDecl("Wrap", 0, SortT(set_sort(0)),
                                        (("one", Ind("Wrap")),)))


def test_with_provisional():
    env = GlobalEnv()
    decl = InductiveDecl("Tree", 0, SortT(set_sort(0)), (("leaf", Ind("Tree")),))
    ghost = env.with_provisional(decl)
    assert ghost.inductive("Tree") is not None
    assert ghost.constructor("leaf") is None
    assert env.inductive("Tree") is None
