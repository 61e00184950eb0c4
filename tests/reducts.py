"""Single-step reduction, used as an oracle.

`one_step_reducts` lists every term one beta, iota, fix or delta step away,
in any position.  The tests check that each such step preserves typing and
compare the kernel's reduction strategies against it.
"""

from rcic import App, Case, Const, Constr, Fix, Lam, subst
from rcic.syntax import app, children, map_children, unfold_app


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
