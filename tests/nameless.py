"""Nameless (de Bruijn) views of terms, used as an independent oracle.

Bound variables become indices counted from the innermost binder and free
variables stay as names, so alpha-equivalence is plain tuple equality and
substituting for a free name can never capture.  The named-side operations
in rcic.syntax are checked against these.
"""

from rcic import (App, Case, Const, Constr, Fix, Ind, Lam, Prod, SortT, Term,
                  Var)


def to_nameless(t: Term, stack: tuple[str, ...] = ()):
    """A nested-tuple rendering of `t` with bound names replaced by depth
    indices (0 = innermost binder)."""
    match t:
        case Var(name):
            for i, bound in enumerate(reversed(stack)):
                if bound == name:
                    return ("bound", i)
            return ("free", name)
        case SortT(s):
            return ("sort", s.kind, s.level)
        case Const(name):
            return ("const", name)
        case Ind(name):
            return ("ind", name)
        case Constr(name):
            return ("constr", name)
        case App(fn, arg):
            return ("app", to_nameless(fn, stack), to_nameless(arg, stack))
        case Prod(binder, domain, codomain):
            return ("prod", to_nameless(domain, stack),
                    to_nameless(codomain, stack + (binder,)))
        case Lam(binder, annotation, body):
            return ("lam", to_nameless(annotation, stack),
                    to_nameless(body, stack + (binder,)))
        case Case(ind, scrutinee, params, motive, branches):
            return ("case", ind, to_nameless(scrutinee, stack),
                    tuple(to_nameless(p, stack) for p in params),
                    to_nameless(motive, stack),
                    tuple(to_nameless(b, stack) for b in branches))
        case Fix(binder, annotation, body, decreasing):
            return ("fix", to_nameless(annotation, stack),
                    to_nameless(body, stack + (binder,)), decreasing)
    raise TypeError(f"not a term: {t!r}")


def subst_free(t, sub: dict):
    """Replace each free variable of nameless `t` named by a key of `sub`
    by that key's nameless value, all at once: values are not substituted
    into.

    The values must come from standalone to_nameless calls, so their
    "bound" indices are internal to them and need no shifting.
    """
    tag = t[0]
    if tag == "free":
        return sub.get(t[1], t)
    if tag in ("bound", "sort", "const", "ind", "constr"):
        return t
    if tag == "app":
        return ("app", subst_free(t[1], sub), subst_free(t[2], sub))
    if tag in ("prod", "lam"):
        return (tag, subst_free(t[1], sub), subst_free(t[2], sub))
    if tag == "case":
        return ("case", t[1], subst_free(t[2], sub),
                tuple(subst_free(p, sub) for p in t[3]),
                subst_free(t[4], sub),
                tuple(subst_free(b, sub) for b in t[5]))
    if tag == "fix":
        return ("fix", subst_free(t[1], sub), subst_free(t[2], sub), t[3])
    raise TypeError(f"not a nameless term: {t!r}")
