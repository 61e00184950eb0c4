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
    subst,
)
from rcic.frontend import (
    DCheck,
    DDef,
    DInductive,
    DParamCheck,
    RawMatch,
    Source,
    SourceFile,
)
from rcic.param import Alias
from rcic.syntax import (
    children,
    fresh_name,
    global_names,
    lams,
    map_children,
    names,
    prods,
    set_sort,
    strip_lams,
    strip_prods,
    subst_all,
    subterms,
    type_sort,
    unfold_app,
)

from gen import random_term, random_typed
from nameless import subst_free, to_nameless

NAT = Ind("Nat")


def source():
    """A new Source of the text the frontend's records below were read
    from: sources of equal texts are equal."""
    return Source("(* records *) check one.\nparamcheck one.", [0, 13])


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


# One of each record class: a maker (called twice, it gives two distinct
# equal records), the repr a frozen dataclass printed, and the fields in
# order.
RECORDS = [
    (lambda: Sort("Set", 0), "Sort(kind='Set', level=0)", ("kind", "level")),
    (lambda: Var("x"), "Var(name='x')", ("name",)),
    (lambda: Const("one"), "Const(name='one')", ("name",)),
    (lambda: SortT(PROP), "SortT(sort=Sort(kind='Prop', level=None))",
     ("sort",)),
    (lambda: Prod("x", NAT, Var("x")),
     "Prod(binder='x', domain=Ind(name='Nat'), codomain=Var(name='x'))",
     ("binder", "domain", "codomain")),
    (lambda: Lam("x", NAT, Var("x")),
     "Lam(binder='x', annotation=Ind(name='Nat'), body=Var(name='x'))",
     ("binder", "annotation", "body")),
    (lambda: App(Var("f"), Var("x")),
     "App(fn=Var(name='f'), arg=Var(name='x'))", ("fn", "arg")),
    (lambda: Ind("Nat"), "Ind(name='Nat')", ("name",)),
    (lambda: Constr("zero"), "Constr(name='zero')", ("name",)),
    (lambda: Case("Nat", Var("n"), (), Lam("n", NAT, NAT),
                  (Constr("zero"), Lam("m", NAT, Var("m")))),
     "Case(ind='Nat', scrutinee=Var(name='n'), params=(), "
     "motive=Lam(binder='n', annotation=Ind(name='Nat'), "
     "body=Ind(name='Nat')), branches=(Constr(name='zero'), "
     "Lam(binder='m', annotation=Ind(name='Nat'), body=Var(name='m'))))",
     ("ind", "scrutinee", "params", "motive", "branches")),
    (lambda: Fix("f", arrow(NAT, NAT), Lam("n", NAT, Var("n")), 0),
     "Fix(binder='f', annotation=Prod(binder='_', domain=Ind(name='Nat'), "
     "codomain=Ind(name='Nat')), body=Lam(binder='n', "
     "annotation=Ind(name='Nat'), body=Var(name='n')), decreasing=0)",
     ("binder", "annotation", "body", "decreasing")),
    (lambda: InductiveDecl("Unit", 0, SortT(set_sort(0)),
                           (("tt", Ind("Unit")),)),
     "InductiveDecl(name='Unit', params=0, "
     "arity=SortT(sort=Sort(kind='Set', level=0)), "
     "constructors=(('tt', Ind(name='Unit')),))",
     ("name", "params", "arity", "constructors")),
    (lambda: Definition("one", NAT, App(Constr("succ"), Constr("zero"))),
     "Definition(name='one', type=Ind(name='Nat'), "
     "body=App(fn=Constr(name='succ'), arg=Constr(name='zero')))",
     ("name", "type", "body")),
    (lambda: RawMatch(Var("n"), "m", "Nat", (), Var("Nat"),
                      (("zero", (), Var("zero")),), 1, source()),
     "RawMatch(scrutinee=Var(name='n'), as_name='m', ind='Nat', atoms=(), "
     "motive=Var(name='Nat'), branches=(('zero', (), Var(name='zero')),), "
     "at=1, source=<Source of 40 characters>)",
     ("scrutinee", "as_name", "ind", "atoms", "motive", "branches", "at",
      "source")),
    (lambda: DInductive("Unit", 0, SortT(set_sort(0)),
                        (("tt", Var("Unit")),), 0, source()),
     "DInductive(name='Unit', params=0, "
     "arity=SortT(sort=Sort(kind='Set', level=0)), "
     "constructors=(('tt', Var(name='Unit')),), at=0, "
     "source=<Source of 40 characters>)",
     ("name", "params", "arity", "constructors", "at", "source")),
    (lambda: DDef("one", Var("Nat"), Var("zero"), 0, source()),
     "DDef(name='one', type=Var(name='Nat'), body=Var(name='zero'), "
     "at=0, source=<Source of 40 characters>)",
     ("name", "type", "body", "at", "source")),
    (lambda: DCheck(Var("one"), 0, source()),
     "DCheck(term=Var(name='one'), at=0, source=<Source of 40 characters>)",
     ("term", "at", "source")),
    (lambda: DParamCheck("one", 3, source()),
     "DParamCheck(name='one', at=3, source=<Source of 40 characters>)",
     ("name", "at", "source")),
    (lambda: SourceFile((DParamCheck("one", 3, source()),)),
     "SourceFile(decls=(DParamCheck(name='one', at=3, "
     "source=<Source of 40 characters>),))",
     ("decls",)),
    (lambda: Alias(Var("f"), Var("f'")),
     "Alias(raw=Var(name='f'), primed=Var(name=\"f'\"), guard=None, "
     "guard_type=None)", ("raw", "primed", "guard", "guard_type")),
]


@pytest.mark.parametrize("make, text, fields", RECORDS,
                         ids=[text.split("(")[0] for _, text, _ in RECORDS])
def test_records_behave_like_frozen_dataclasses(make, text, fields):
    r = make()
    assert type(r).__match_args__ == fields
    assert repr(r) == text
    other = make()
    assert other is not r and other == r and not other != r
    assert hash(other) == hash(r)
    for name in fields:
        value = getattr(r, name)
        with pytest.raises(AttributeError):
            setattr(r, name, value)
        with pytest.raises(AttributeError):
            delattr(r, name)
        assert getattr(r, name) is value
    with pytest.raises(AttributeError):
        r.extra = 1
    assert r == make() and repr(r) == text


def test_records_of_different_classes_differ():
    leaves = [Var("x"), Const("x"), Ind("x"), Constr("x")]
    for a in leaves:
        for b in leaves:
            assert (a == b) is (a is b)
            assert (a != b) is (a is not b)
    assert Var("x") != Const("x")
    assert Var("x") != "x" and Definition("d", NAT, NAT) != DDef(
        "d", NAT, NAT, 0, source())


def test_caches_are_invisible():
    t = Lam("y", NAT, App(Const("f"), App(Var("x"), Constr("zero"))))
    before = (repr(t), hash(t))
    assert free_vars(t) == {"x"}
    assert global_names(t) == {"Nat", "f", "zero"}
    assert global_names(t.body.arg) == {"zero"}
    assert (repr(t), hash(t)) == before and t == Lam(
        "y", NAT, App(Const("f"), App(Var("x"), Constr("zero"))))


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
    # A Const is never substituted, has no free variables, and a binder of
    # its name cannot capture it: the node kind tells the two apart.
    t = App(Const("c"), Var("c"))
    assert free_vars(Const("c")) == frozenset()
    assert free_vars(t) == {"c"}
    assert subst(t, "c", Var("z")) == App(Const("c"), Var("z"))
    out = subst(Lam("c", NAT, Var("y")), "y", Const("c"))
    assert out == Lam("c", NAT, Const("c"))
    assert not alpha_eq(Const("c"), Var("c"))
    assert alpha_eq(Lam("x", NAT, Const("c")), Lam("y", NAT, Const("c")))
    # `names` lists every Var, Const and binder name, bound or free.
    assert names(Lam("c", NAT, App(Const("d"), Var("y")))) == {"c", "d", "y"}
    assert names(Prod("_", NAT, Fix("f", NAT, Var("f"), 0))) == {"f"}


_V = [Var(f"v{i}") for i in range(8)]


@pytest.mark.parametrize("t, kids", [
    (Var("x"), ()),
    (Const("c"), ()),
    (SortT(PROP), ()),
    (NAT, ()),
    (Constr("zero"), ()),
    (App(_V[0], _V[1]), (_V[0], _V[1])),
    (Prod("x", _V[0], _V[1]), (_V[0], _V[1])),
    (Lam("x", _V[0], _V[1]), (_V[0], _V[1])),
    (Fix("f", _V[0], _V[1], 0), (_V[0], _V[1])),
    (Case("Nat", _V[0], (), _V[1], (_V[2], _V[3])),
     (_V[0], _V[1], _V[2], _V[3])),
    (Case("List", _V[0], (_V[1],), _V[2], (_V[3], _V[4])),
     (_V[0], _V[1], _V[2], _V[3], _V[4])),
    (Case("T", _V[0], (_V[1], _V[2], _V[3]), _V[4], (_V[5],)),
     (_V[0], _V[1], _V[2], _V[3], _V[4], _V[5])),
])
def test_children_in_field_order(t, kids):
    got = children(t)
    assert len(got) == len(kids)
    assert all(a is b for a, b in zip(got, kids))
    assert map_children(t, lambda c: c) is t
    assert list(subterms(t)) == [t, *kids]


def test_children_reject_non_terms():
    for walk in (children, lambda t: map_children(t, lambda c: c)):
        with pytest.raises(TypeError):
            walk("x")


def test_map_children_rebuilds_only_the_changed_path():
    target = Var("x")
    t = Lam("y", NAT,
            Case("Nat", Var("n"), (Var("p"),), Var("m"),
                 (App(Var("f"), target), Fix("g", NAT, Var("g"), 0))))

    def swap(u):
        return Var("w") if u is target else map_children(u, swap)

    out = swap(t)
    assert out == Lam("y", NAT,
                      Case("Nat", Var("n"), (Var("p"),), Var("m"),
                           (App(Var("f"), Var("w")), Fix("g", NAT, Var("g"), 0))))
    assert out.annotation is t.annotation
    case, old_case = out.body, t.body
    assert case.scrutinee is old_case.scrutinee
    assert case.params[0] is old_case.params[0]
    assert case.motive is old_case.motive
    assert case.branches[1] is old_case.branches[1]
    assert case.branches[0].fn is old_case.branches[0].fn


def test_walks_do_not_recurse_on_deep_terms():
    n = 50_000
    leaves = [Var(f"x{i}") for i in range(n)]
    left = app(Var("f"), *leaves)           # deep in the function position
    right = Var("f")
    for leaf in leaves:
        right = App(leaf, right)            # deep in the argument position
    for t in (left, right):
        assert sum(1 for _ in subterms(t)) == 2 * n + 1
        assert names(t) == {"f", *(v.name for v in leaves)}
    walk = subterms(left)
    assert next(walk) is left and next(walk) is left.fn and next(walk) is left.fn.fn


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
        want = subst_free(to_nameless(t), {name: to_nameless(value)})
        assert got == want
        assert free_vars(t) == _free_leaves(to_nameless(t))
        assert free_vars(out) == _free_leaves(want)


def test_subst_all_is_simultaneous():
    x, y, f = Var("x"), Var("y"), Var("f")
    # A swap: the values are not substituted into.
    assert subst_all(app(f, x, y), {"x": y, "y": x}) == app(f, y, x)
    # The binder `x` shadows its own entry and would capture the value `x`
    # of the live entry `y`, so it is renamed by one more entry of the map.
    t = Lam("x", NAT, App(x, y))
    assert subst_all(t, {"x": y, "y": x}) == Lam("x1", NAT, App(Var("x1"), x))
    # Entries not free in the term leave it as it is.
    assert subst_all(t, {"z": x}) is t
    assert subst_all(t, {}) is t


def test_subst_all_matches_simultaneous_nameless_oracle():
    # Open subterms of well-typed terms, substituted with two or three
    # entries whose values mention the subterm's own binder names.
    rng = random.Random(20261018)
    checked = swaps = captures = 0
    for _ in range(200):
        t, _ = random_typed(rng, 5)
        for u in subterms(t):
            free = sorted(_free_leaves(to_nameless(u)))
            if not free:
                continue
            bound = sorted({w.binder for w in subterms(u)
                            if type(w) in (Lam, Prod, Fix)} - set(free))
            pool = free + bound + ["w"]
            # "w" occurs nowhere, so a key "w" is a dead entry.
            keys = rng.sample(free + ["w"],
                              min(len(free) + 1, rng.choice((2, 3))))
            if len(keys) >= 2 and rng.random() < 0.3:
                sub = {keys[0]: Var(keys[1]), keys[1]: Var(keys[0])}
                swaps += 1
            else:
                sub = {k: rng.choice((
                    Var(rng.choice(pool)),
                    App(Var(rng.choice(pool)), Var(rng.choice(pool))),
                    Lam(rng.choice(pool), NAT, Var(rng.choice(pool)))))
                    for k in keys}
            captures += any(b in free_vars(v) for b in bound
                            for v in sub.values())
            out = subst_all(u, sub)
            want = subst_free(to_nameless(u),
                              {k: to_nameless(v) for k, v in sub.items()})
            assert to_nameless(out) == want
            consts = {c.name for c in subterms(out) if type(c) is Const}
            assert free_vars(out) - consts == _free_leaves(want)
            checked += 1
    assert checked > 800 and swaps > 200 and captures > 100


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
        case Var() | Const() | SortT() | Ind() | Constr():
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

    # Pairs of subterms of well-typed terms, each subterm also against a
    # binder-renamed copy and against near misses that differ only outside
    # the children: a Fix's decreasing index, a Case's parameter count (its
    # children otherwise in the same order), a Var against a Const.
    rng = random.Random(20261019)
    pool = [u for _ in range(30) for u in subterms(random_typed(rng, 4)[0])]
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(3000)]
    for u in pool:
        pairs.append((u, _alpha_variant(rng, u, [0])))
        pairs.append((Fix("f", NAT, u, 0), Fix("g", NAT, u, 0)))
        pairs.append((Fix("f", NAT, u, 0), Fix("f", NAT, u, 1)))
        if type(u) is Case and not u.params:
            pairs.append((u, Case(u.ind, u.scrutinee, (u.motive,),
                                  u.branches[0], u.branches[1:])))
        if type(u) in (Var, Const):
            pairs.append((Lam("x", NAT, Var(u.name)),
                          Lam("y", NAT, Const(u.name))))
    outcomes = [alpha_eq(a, b) for a, b in pairs]
    assert outcomes == [to_nameless(a) == to_nameless(b) for a, b in pairs]
    assert sum(outcomes) > 1000 and outcomes.count(False) > 3000


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


def test_reference_is_one_node_per_name():
    env = GlobalEnv()
    env.add_inductive(InductiveDecl("Nat", 0, SortT(set_sort(0)),
                                    (("zero", Ind("Nat")),)))
    env.add_definition(Definition("z", Ind("Nat"), Constr("zero")))
    for name, node in (("Nat", Ind("Nat")), ("zero", Constr("zero")),
                       ("z", Const("z"))):
        assert env.reference(name) == node
        assert env.reference(name) is env.reference(name)
    assert env.reference("missing") is None
    # A provisional copy resolves names afresh: its `z` is an inductive.
    ghost = env.with_provisional(InductiveDecl("z", 0, SortT(set_sort(0)), ()))
    assert ghost.reference("z") == Ind("z")
    assert ghost.reference("Nat") is not env.reference("Nat")
    assert env.reference("z") == Const("z")
