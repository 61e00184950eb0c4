"""Seeded random term generators.

random_term produces arbitrary (mostly ill-typed) terms for exercising the
purely syntactic operations; random_typed produces closed well-typed terms
over the prelude globals by going type-directed, for round-trip and
reduction tests.  Both take an explicit random.Random so runs are
reproducible.
"""

import random

from rcic import (
    App,
    Case,
    Const,
    Constr,
    Fix,
    Ind,
    Lam,
    PROP,
    Prod,
    SortT,
    Var,
    alpha_eq,
    app,
    set_sort,
    type_sort,
)

NAMES = ("a", "b", "c", "x", "y", "z")
SORTS = (PROP, set_sort(0), set_sort(1), type_sort(1), type_sort(2))

NAT = Ind("Nat")
BOOL = Ind("Bool")
UNIT = Ind("Unit")
LIST_NAT = App(Ind("List"), NAT)
SET0 = SortT(set_sort(0))


def random_term(rng: random.Random, depth: int, scope: tuple[str, ...] = ()):
    """An arbitrary closed-or-open term; no typing discipline."""
    kinds = ["var", "sort"]
    if depth > 0:
        kinds += ["app", "lam", "prod", "app", "lam", "prod", "fix", "case"]
    kind = rng.choice(kinds)
    if kind == "var":
        pool = NAMES + scope if scope else NAMES
        return Var(rng.choice(pool))
    if kind == "sort":
        return SortT(rng.choice(SORTS))
    if kind == "app":
        return App(random_term(rng, depth - 1, scope),
                   random_term(rng, depth - 1, scope))
    if kind in ("lam", "prod"):
        binder = rng.choice(NAMES)
        ty = random_term(rng, depth - 1, scope)
        body = random_term(rng, depth - 1, scope + (binder,))
        return Lam(binder, ty, body) if kind == "lam" else Prod(binder, ty, body)
    if kind == "fix":
        binder = rng.choice(NAMES)
        return Fix(binder, random_term(rng, depth - 1, scope),
                   random_term(rng, depth - 1, scope + (binder,)),
                   rng.randrange(3))
    return Case("Nat", random_term(rng, depth - 1, scope), (),
                random_term(rng, depth - 1, scope),
                (random_term(rng, depth - 1, scope),
                 random_term(rng, depth - 1, scope)))


# Type-directed generation.  Targets are concrete closed types over the
# prelude; binder names are drawn from a private counter so generated terms
# never shadow anything.

TARGETS = (
    NAT, NAT, BOOL, LIST_NAT, UNIT,
    Prod("_", NAT, NAT),
    Prod("_", BOOL, NAT),
    Prod("_", NAT, Prod("_", NAT, NAT)),
    Prod("_", LIST_NAT, LIST_NAT),
    SET0,
)


def random_typed(rng: random.Random, depth: int = 4):
    """A closed well-typed term over the prelude, paired with its type."""
    ty = rng.choice(TARGETS)
    counter = [0]
    return _gen(rng, (), ty, depth, counter), ty


def _vars_of(ctx, ty):
    innermost = {}
    for name, t in ctx:
        innermost[name] = t
    return [name for name, t in innermost.items() if alpha_eq(t, ty)]


def _fresh(counter):
    name = f"v{counter[0]}"
    counter[0] += 1
    return name


def _leaf(rng, ctx, ty, counter):
    names = _vars_of(ctx, ty)
    if names and rng.random() < 0.7:
        return Var(rng.choice(names))
    if alpha_eq(ty, NAT):
        return Constr("zero")
    if alpha_eq(ty, BOOL):
        return Constr("true")
    if alpha_eq(ty, UNIT):
        return Constr("tt")
    if alpha_eq(ty, LIST_NAT):
        return App(Constr("nil"), NAT)
    if alpha_eq(ty, SET0):
        return rng.choice((NAT, BOOL, UNIT, LIST_NAT))
    assert isinstance(ty, Prod)
    binder = _fresh(counter)
    return Lam(binder, ty.domain,
               _leaf(rng, ctx + ((binder, ty.domain),), ty.codomain, counter))


def _gen(rng, ctx, ty, depth, counter):
    if depth <= 0:
        return _leaf(rng, ctx, ty, counter)
    if isinstance(ty, Prod):
        binder = _fresh(counter)
        body = _gen(rng, ctx + ((binder, ty.domain),), ty.codomain,
                    depth - 1, counter)
        return Lam(binder, ty.domain, body)

    def sub(target, d=1):
        return _gen(rng, ctx, target, depth - d, counter)

    options = [lambda: _leaf(rng, ctx, ty, counter)]
    if alpha_eq(ty, NAT):
        options += [
            lambda: App(Constr("succ"), sub(NAT)),
            lambda: app(Const("plus"), sub(NAT), sub(NAT)),
            lambda: app(Const("mult"), sub(NAT), sub(NAT)),
            lambda: App(Const("pred"), sub(NAT)),
            lambda: App(Const("double"), sub(NAT)),
            lambda: app(Const("length"), NAT, sub(LIST_NAT)),
            lambda: app(Const("if_then_else"), NAT, sub(BOOL), sub(NAT), sub(NAT)),
            lambda: _case_bool(rng, ctx, ty, depth, counter),
            lambda: _case_nat(rng, ctx, ty, depth, counter),
            lambda: App(_gen(rng, ctx, Prod("_", NAT, NAT), depth - 1, counter),
                        sub(NAT)),
        ]
    elif alpha_eq(ty, BOOL):
        options += [
            lambda: App(Const("negb"), sub(BOOL)),
            lambda: app(Const("andb"), sub(BOOL), sub(BOOL)),
            lambda: app(Const("orb"), sub(BOOL), sub(BOOL)),
            lambda: App(Const("is_zero"), sub(NAT)),
            lambda: _case_bool(rng, ctx, ty, depth, counter),
        ]
    elif alpha_eq(ty, LIST_NAT):
        options += [
            lambda: app(Constr("cons"), NAT, sub(NAT), sub(LIST_NAT)),
            lambda: app(Const("append"), NAT, sub(LIST_NAT), sub(LIST_NAT)),
            lambda: app(Const("rev"), NAT, sub(LIST_NAT)),
            lambda: app(Const("singleton"), NAT, sub(NAT)),
            lambda: app(Const("tail"), NAT, sub(LIST_NAT)),
            lambda: app(Const("map"), NAT, NAT,
                        sub(Prod("_", NAT, NAT)), sub(LIST_NAT)),
        ]
    elif alpha_eq(ty, SET0):
        options += [
            lambda: App(Ind("List"), sub(SET0)),
            lambda: App(Const("neg"), sub(SET0)),
        ]
    return rng.choice(options)()


def _case_bool(rng, ctx, ty, depth, counter):
    motive = Lam(_fresh(counter), BOOL, ty)
    return Case("Bool", _gen(rng, ctx, BOOL, depth - 1, counter), (), motive,
                (_gen(rng, ctx, ty, depth - 1, counter),
                 _gen(rng, ctx, ty, depth - 1, counter)))


def _case_nat(rng, ctx, ty, depth, counter):
    motive = Lam(_fresh(counter), NAT, ty)
    pred = _fresh(counter)
    succ_branch = Lam(pred, NAT,
                      _gen(rng, ctx + ((pred, NAT),), ty, depth - 1, counter))
    return Case("Nat", _gen(rng, ctx, NAT, depth - 1, counter), (), motive,
                (_gen(rng, ctx, ty, depth - 1, counter), succ_branch))
