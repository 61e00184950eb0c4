"""Reduction on terms, by substitution, used as an oracle.

`one_step_reducts` lists every term one beta, iota, fix or delta step away,
in any position.  The tests check that each such step preserves typing and
compare the kernel's reduction strategies against it.

`term_whnf` is weak head reduction by the same rules, contracting one head
redex at a time.  The tests compare the kernel's evaluator, and the typing
that uses it, against it.
"""

from rcic import App, Case, Const, Constr, Fix, Lam, subst
from rcic.syntax import app, children, map_children, unfold_app


def term_whnf(env, t):
    """Weak head normal form under beta, iota, fix unfolding, and delta.

    Delta unfolds a Const only when it sits in head position.  Fix
    unfolds only when the decreasing argument is constructor-headed.
    """
    while True:
        head, args = unfold_app(t)
        match head:
            case Lam(binder, _, body) if args:
                t = app(subst(body, binder, args[0]), *args[1:])
                continue
            case Const(name):
                defn = env.definition(name)
                if defn is not None:
                    t = app(defn.body, *args)
                    continue
                return t
            case Case(ind, scrutinee, params, motive, branches):
                s = term_whnf(env, scrutinee)
                chead, cargs = unfold_app(s)
                if isinstance(chead, Constr):
                    info = env.constructor(chead.name)
                    if info is not None and info[0].name == ind:
                        decl, i = info
                        branch = branches[i]
                        t = app(branch, *cargs[decl.params:], *args)
                        continue
                return app(Case(ind, s, params, motive, branches), *args)
            case Fix(binder, _, body, decreasing) if len(args) > decreasing:
                a = term_whnf(env, args[decreasing])
                chead, _ = unfold_app(a)
                if isinstance(chead, Constr):
                    t = app(subst(body, binder, head), *args)
                    continue
                return t
            case _:
                return t


def one_step_reducts(env, t):
    """All terms reachable from `t` by one beta, iota, fix, or delta step."""
    out = []

    head, spine = unfold_app(t)
    if isinstance(head, Fix) and len(spine) > head.decreasing:
        chead, _ = unfold_app(spine[head.decreasing])
        if isinstance(chead, Constr):
            out.append(app(subst(head.body, head.binder, head), *spine))

    match t:
        case Const(name):
            defn = env.definition(name)
            if defn is not None:
                out.append(defn.body)
        case App(Lam(binder, _, body), arg):
            out.append(subst(body, binder, arg))
        case Case(ind, scrutinee, _, _, branches):
            chead, cargs = unfold_app(scrutinee)
            if isinstance(chead, Constr):
                info = env.constructor(chead.name)
                if info is not None and info[0].name == ind:
                    decl, i = info
                    out.append(app(branches[i], *cargs[decl.params:]))
    # Congruence: one child reduced, the others kept.  map_children visits
    # the children in the order children lists them.
    kids = children(t)
    for i, kid in enumerate(kids):
        for r in one_step_reducts(env, kid):
            rest = iter(kids[:i] + (r,) + kids[i + 1:])
            out.append(map_children(t, lambda _: next(rest)))
    return out
