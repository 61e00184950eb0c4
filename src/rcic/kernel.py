"""The kernel: reduction, conversion, cumulativity, and type checking.

Sorts form three families.  Prop is impredicative: any product whose
codomain lands in Prop lands in Prop.  Set and Type are predicative and
level-indexed; a Prop domain never raises the level of the codomain.
Cumulativity embeds Prop below Set1 and orders each level family, with no
inclusion between the Set and Type families.

Strong elimination (a case whose motive lands in a Type sort) is gated by
the elimination mode: STAR restricts it to small inductives, FULL lifts the
restriction.

Conversion and cumulativity evaluate both sides to closures and neutral
values and compare those, unfolding a definition only when comparing its
applications argument by argument fails (lazy delta).  `whnf` stays on
terms, because `infer` returns its result.  `beta_normalize` contracts
redexes by hereditary substitution, in one pass.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Optional

from .syntax import (
    PROP,
    App,
    Case,
    Const,
    Constr,
    Context,
    Definition,
    Fix,
    GlobalEnv,
    Ind,
    InductiveDecl,
    Lam,
    Prod,
    Sort,
    SortT,
    Term,
    Var,
    app,
    alpha_eq,
    free_vars,
    fresh_name,
    strip_prods,
    subst,
    type_sort,
    unfold_app,
)


class EliminationMode(Enum):
    STAR = "star"
    FULL = "full"


STAR = EliminationMode.STAR
FULL = EliminationMode.FULL


class ErrorKind(Enum):
    UNBOUND_VARIABLE = "UnboundVariable"
    NOT_A_FUNCTION = "NotAFunction"
    NOT_CONVERTIBLE = "NotConvertible"
    NOT_A_SORT = "NotASort"
    ILL_FORMED_INDUCTIVE = "IllFormedInductive"
    POSITIVITY_VIOLATION = "PositivityViolation"
    GUARD_VIOLATION = "GuardViolation"
    NON_SMALL_STRONG_ELIM = "NonSmallStrongElim"
    ARITY_MISMATCH = "ArityMismatch"
    UNIVERSE_ERROR = "UniverseError"


class TypeCheckError(Exception):
    """A checking failure, tagged with its kind and the offending term."""

    def __init__(self, kind: ErrorKind, message: str, term: Optional[Term] = None,
                 expected: Optional[Term] = None, actual: Optional[Term] = None):
        super().__init__(f"{kind.value}: {message}")
        self.kind = kind
        self.message = message
        self.term = term
        self.expected = expected
        self.actual = actual


# ---------------------------------------------------------------------------
# Sorts


def axiom_sort(s: Sort) -> Sort:
    """The sort a sort inhabits."""
    if s.kind == "Prop":
        return type_sort(1)
    return type_sort(s.level + 1)


def sort_of_product(domain: Sort, codomain: Sort) -> Sort:
    """The sort of a product from its domain and codomain sorts."""
    if codomain.kind == "Prop":
        return PROP
    if domain.kind == "Prop":
        return codomain
    return Sort(codomain.kind, max(domain.level, codomain.level))


def subsort(a: Sort, b: Sort) -> bool:
    """Sort inclusion: reflexivity, Prop below Set1, and level order within
    the Set and Type families.  The two families do not mix."""
    if a == b:
        return True
    if a.kind == "Prop":
        return b.kind == "Set" and b.level >= 1
    if a.kind == b.kind and a.kind in ("Set", "Type"):
        return a.level < b.level
    return False


# ---------------------------------------------------------------------------
# Reduction


def whnf(env: GlobalEnv, t: Term) -> Term:
    """Weak head normal form under beta, iota, fix unfolding, and delta.

    Delta unfolds a Const only when it sits in head position.  Fix
    unfolds only when the decreasing argument is constructor-headed, so
    reduction of well-typed terms terminates.
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
                s = whnf(env, scrutinee)
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
                a = whnf(env, args[decreasing])
                chead, _ = unfold_app(a)
                if isinstance(chead, Constr):
                    t = app(subst(body, binder, head), *args)
                    continue
                return t
            case _:
                return t


def beta_normalize(t: Term) -> Term:
    """Full normalization under beta alone (no delta, iota, or fix).

    Used to collapse the administrative redexes that the relational
    translation produces; on well-typed input this terminates.  A redex is
    contracted by hereditary substitution (`_hsubst`), which substitutes
    and normalises in one pass.  Subterms that are already normal are
    returned as they are, not rebuilt.
    """
    match t:
        case Var() | Const() | SortT() | Ind() | Constr():
            return t
        case App(fn, arg):
            fn2 = beta_normalize(fn)
            arg2 = beta_normalize(arg)
            if isinstance(fn2, Lam):
                return _hsubst(fn2.body, fn2.binder, arg2, free_vars(arg2))
            if fn2 is fn and arg2 is arg:
                return t
            return App(fn2, arg2)
        case Prod(binder, domain, body) | Lam(binder, domain, body):
            domain2 = beta_normalize(domain)
            body2 = beta_normalize(body)
            if domain2 is domain and body2 is body:
                return t
            return type(t)(binder, domain2, body2)
        case Case(ind, scrutinee, params, motive, branches):
            scrutinee2 = beta_normalize(scrutinee)
            params2 = tuple(beta_normalize(p) for p in params)
            motive2 = beta_normalize(motive)
            branches2 = tuple(beta_normalize(b) for b in branches)
            if (scrutinee2 is scrutinee and motive2 is motive
                    and all(x is y for x, y in zip(params2, params))
                    and all(x is y for x, y in zip(branches2, branches))):
                return t
            return Case(ind, scrutinee2, params2, motive2, branches2)
        case Fix(binder, annotation, body, decreasing):
            annotation2 = beta_normalize(annotation)
            body2 = beta_normalize(body)
            if annotation2 is annotation and body2 is body:
                return t
            return Fix(binder, annotation2, body2, decreasing)
    raise TypeError(f"not a term: {t!r}")


def _hsubst(t: Term, name: str, value: Term, fv_value: frozenset[str]) -> Term:
    """`beta_normalize(subst(t, name, value))` for beta-normal `t` and
    `value`, in one pass.

    Substituting into a normal term makes a redex only where `name` is the
    head of an application and `value` is a Lam; that redex is contracted
    on the spot by the same means.  Binders are renamed exactly as `subst`
    renames them, so the result has the same binder names.
    """
    if name not in free_vars(t):
        return t
    match t:
        case Var():
            return value
        case App(fn, arg):
            fn2 = _hsubst(fn, name, value, fv_value)
            arg2 = _hsubst(arg, name, value, fv_value)
            if isinstance(fn2, Lam):
                return _hsubst(fn2.body, fn2.binder, arg2, free_vars(arg2))
            return App(fn2, arg2)
        case Prod(binder, domain, body) | Lam(binder, domain, body):
            domain2 = _hsubst(domain, name, value, fv_value)
            binder2, body2 = _hsubst_under(binder, body, name, value, fv_value)
            return type(t)(binder2, domain2, body2)
        case Case(ind, scrutinee, params, motive, branches):
            return Case(
                ind,
                _hsubst(scrutinee, name, value, fv_value),
                tuple(_hsubst(p, name, value, fv_value) for p in params),
                _hsubst(motive, name, value, fv_value),
                tuple(_hsubst(b, name, value, fv_value) for b in branches),
            )
        case Fix(binder, annotation, body, decreasing):
            annotation2 = _hsubst(annotation, name, value, fv_value)
            binder2, body2 = _hsubst_under(binder, body, name, value, fv_value)
            return Fix(binder2, annotation2, body2, decreasing)
        case Const():
            return t
    raise TypeError(f"not a term: {t!r}")


def _hsubst_under(binder: str, body: Term, name: str, value: Term,
                  fv_value: frozenset[str]) -> tuple[str, Term]:
    """`_hsubst` below a binder, renaming it as `subst` would: only if it
    would capture a free variable of `value`."""
    if binder == name:
        return binder, body
    if binder in fv_value and name in free_vars(body):
        fresh = fresh_name(binder, fv_value | free_vars(body) | {name})
        body = subst(body, binder, Var(fresh))
    else:
        fresh = binder
    return fresh, _hsubst(body, name, value, fv_value)


def one_step_reducts(env: GlobalEnv, t: Term) -> list[Term]:
    """All terms reachable from `t` by one beta, iota, fix, or delta step."""
    out: list[Term] = []

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
        case Var() | SortT() | Ind() | Constr():
            pass
        case App(fn, arg):
            if isinstance(fn, Lam):
                out.append(subst(fn.body, fn.binder, arg))
            out.extend(App(fn2, arg) for fn2 in one_step_reducts(env, fn))
            out.extend(App(fn, arg2) for arg2 in one_step_reducts(env, arg))
        case Prod(binder, domain, codomain):
            out.extend(Prod(binder, d, codomain) for d in one_step_reducts(env, domain))
            out.extend(Prod(binder, domain, c) for c in one_step_reducts(env, codomain))
        case Lam(binder, annotation, body):
            out.extend(Lam(binder, a, body) for a in one_step_reducts(env, annotation))
            out.extend(Lam(binder, annotation, b) for b in one_step_reducts(env, body))
        case Case(ind, scrutinee, params, motive, branches):
            chead, cargs = unfold_app(scrutinee)
            if isinstance(chead, Constr):
                info = env.constructor(chead.name)
                if info is not None and info[0].name == ind:
                    decl, i = info
                    out.append(app(branches[i], *cargs[decl.params:]))
            out.extend(Case(ind, s, params, motive, branches)
                       for s in one_step_reducts(env, scrutinee))
            for j, p in enumerate(params):
                for p2 in one_step_reducts(env, p):
                    ps = params[:j] + (p2,) + params[j + 1:]
                    out.append(Case(ind, scrutinee, ps, motive, branches))
            out.extend(Case(ind, scrutinee, params, m, branches)
                       for m in one_step_reducts(env, motive))
            for j, b in enumerate(branches):
                for b2 in one_step_reducts(env, b):
                    bs = branches[:j] + (b2,) + branches[j + 1:]
                    out.append(Case(ind, scrutinee, params, motive, bs))
        case Fix(binder, annotation, body, decreasing):
            out.extend(Fix(binder, a, body, decreasing)
                       for a in one_step_reducts(env, annotation))
            out.extend(Fix(binder, annotation, b, decreasing)
                       for b in one_step_reducts(env, body))
    return out


# ---------------------------------------------------------------------------
# Conversion and cumulativity
#
# Conversion evaluates both sides to values and compares the values.  A value
# is a Sort, a closure (an environment and a Lam or Prod term), or a neutral:
# a head and a spine of arguments, each evaluated at most once and only when
# needed.  Variables bound inside the compared terms are looked up in the
# environment, so evaluation never substitutes; a binder that the comparison
# opens becomes a de Bruijn level, so it never makes a fresh name.
#
# Evaluation does beta, iota and fix unfolding by the same rules as whnf, but
# leaves a defined global in head position folded.  Two applications of the
# same global are compared argument by argument first and unfolded only if
# that fails (lazy delta).

# Neutral head kinds, with what `_Neutral.head` holds for each.
_LEVEL = 0   # a binder opened by the comparison: its de Bruijn level
_FREE = 1    # a free variable: the name; a Const that names no
             # definition: the Const itself, which equals no name
_GLOBAL = 2  # a definition, unfolded on demand: the name
_IND = 3     # the name
_CONSTR = 4  # the name
_CASE = 5    # a case stuck on its scrutinee: (rho, case, scrutinee value)
_FIX = 6     # a fix whose decreasing argument is missing or is not a
             # constructor: (rho, fix)
_STUCK = 7   # a sort or product applied to arguments: that value


class _Thunk:
    """A term in an environment, evaluated at most once."""

    __slots__ = ("rho", "term", "value")

    def __init__(self, rho: Optional[dict], term: Optional[Term], value=None):
        self.rho = rho
        self.term = term
        self.value = value


class _Closure:
    """The value of a Lam or Prod: the term and the environment of its
    free variables."""

    __slots__ = ("rho", "term")

    def __init__(self, rho: dict, term: Term):
        self.rho = rho
        self.term = term


class _Neutral:
    """A head (see the kinds above) applied to a spine of thunks.  A global
    head keeps the value it unfolds to once it has been unfolded."""

    __slots__ = ("kind", "head", "spine", "unfolded")

    def __init__(self, kind: int, head, spine: tuple[_Thunk, ...] = ()):
        self.kind = kind
        self.head = head
        self.spine = spine
        self.unfolded = None


_EMPTY: dict[str, _Thunk] = {}
_VALUE = "_value"


def _force(env: GlobalEnv, th: _Thunk):
    v = th.value
    if v is None:
        v = th.value = _eval(env, th.rho, th.term)
    return v


def _eval(env: GlobalEnv, rho: dict, t: Term):
    """The value of `t` with its bound variables looked up in `rho`."""
    match t:
        case Var(name):
            th = rho.get(name)
            if th is not None:
                return _force(env, th)
            return _Neutral(_FREE, name)
        case App(fn, arg):
            th = rho.get(arg.name) if type(arg) is Var else None
            return _apply(env, _eval(env, rho, fn), th or _Thunk(rho, arg))
        case Lam() | Prod():
            return _Closure(rho, t)
        case SortT(s):
            return s
        case Ind(name):
            return _Neutral(_IND, name)
        case Constr(name):
            return _Neutral(_CONSTR, name)
        case Case(ind, scrutinee, _, _, branches):
            s = _unfold_head(env, _eval(env, rho, scrutinee))
            if type(s) is _Neutral and s.kind == _CONSTR:
                info = env.constructor(s.head)
                if info is not None and info[0].name == ind:
                    decl, i = info
                    v = _eval(env, rho, branches[i])
                    for th in s.spine[decl.params:]:
                        v = _apply(env, v, th)
                    return v
            return _Neutral(_CASE, (rho, t, s))
        case Fix():
            return _Neutral(_FIX, (rho, t))
        case Const(name):
            defn = env.definition(name)
            if defn is None:
                return _Neutral(_FREE, t)
            # One shared value per definition, so that its unfolding is
            # computed once.  It is kept in the definition's instance dict,
            # which equality, hashing and repr do not see; the body is
            # closed, so its value is the same wherever it is used.
            v = defn.__dict__.get(_VALUE)
            if v is None:
                v = defn.__dict__[_VALUE] = _Neutral(_GLOBAL, name)
            return v
    raise TypeError(f"not a term: {t!r}")


def _apply(env: GlobalEnv, f, arg: _Thunk):
    """The value of `f` applied to `arg`: beta for a Lam closure, fix
    unfolding once the decreasing argument is there and is a constructor."""
    if type(f) is _Neutral:
        spine = f.spine + (arg,)
        if f.kind == _FIX:
            rho, fix = f.head
            # Checked once, when the decreasing argument arrives: if it is
            # not a constructor then, it never will be.
            if len(spine) == fix.decreasing + 1:
                d = _unfold_head(env, _force(env, arg))
                if type(d) is _Neutral and d.kind == _CONSTR:
                    itself = _Thunk(None, None, _Neutral(_FIX, f.head))
                    v = _eval(env, {**rho, fix.binder: itself}, fix.body)
                    for th in spine:
                        v = _apply(env, v, th)
                    return v
        return _Neutral(f.kind, f.head, spine)
    if type(f) is _Closure and type(f.term) is Lam:
        return _eval(env, {**f.rho, f.term.binder: arg}, f.term.body)
    return _Neutral(_STUCK, f, (arg,))


def _unfold_head(env: GlobalEnv, v):
    """`v` with defined globals in head position unfolded: a value in weak
    head normal form."""
    while type(v) is _Neutral and v.kind == _GLOBAL:
        v = _unfold(env, v)
    return v


def _unfold(env: GlobalEnv, v: _Neutral):
    """One delta step at the head of a global-headed neutral, done once."""
    out = v.unfolded
    if out is None:
        out = _eval(env, _EMPTY, env.definition(v.head).body)
        for th in v.spine:
            out = _apply(env, out, th)
        v.unfolded = out
    return out


def _binder_parts(t: Lam | Prod) -> tuple[Term, Term]:
    """The domain and body of a Lam or Prod term."""
    if type(t) is Lam:
        return t.annotation, t.body
    return t.domain, t.codomain


def _conv(env: GlobalEnv, k: int, a, b, cumulative: bool = False) -> bool:
    """Whether values `a` and `b` are convertible, or with `cumulative`,
    whether `a` is a subtype of `b`.  Levels below `k` are in use."""
    while True:
        # Lazy delta.
        while True:
            if a is b:
                return True
            ga = type(a) is _Neutral and a.kind == _GLOBAL
            gb = type(b) is _Neutral and b.kind == _GLOBAL
            if ga and gb:
                if a.head == b.head and _conv_spines(env, k, a.spine, b.spine):
                    return True
                a, b = _unfold(env, a), _unfold(env, b)
            elif ga:
                a = _unfold(env, a)
            elif gb:
                b = _unfold(env, b)
            else:
                break
        if type(a) is not type(b):
            return False
        if type(a) is Sort:
            return subsort(a, b) if cumulative else a == b
        if type(a) is _Closure:
            ta, tb = a.term, b.term
            if type(ta) is not type(tb):
                return False
            da, ba = _binder_parts(ta)
            db, bb = _binder_parts(tb)
            if not _conv_terms(env, k, a.rho, da, b.rho, db):
                return False
            level = _Thunk(None, None, _Neutral(_LEVEL, k))
            cumulative = cumulative and type(ta) is Prod
            a = _eval(env, {**a.rho, ta.binder: level}, ba)
            b = _eval(env, {**b.rho, tb.binder: level}, bb)
            k += 1
            continue
        # Two neutrals: compare the heads, then the spines; the last
        # argument is compared by the loop.
        if a.kind != b.kind or len(a.spine) != len(b.spine):
            return False
        if not _conv_heads(env, k, a, b):
            return False
        if not a.spine:
            return True
        if not _conv_spines(env, k, a.spine[:-1], b.spine[:-1]):
            return False
        ta, tb = a.spine[-1], b.spine[-1]
        if _same_thunk(ta, tb):
            return True
        a, b = _force(env, ta), _force(env, tb)
        cumulative = False


def _same_thunk(a: _Thunk, b: _Thunk) -> bool:
    """Whether two thunks have one value without evaluating either."""
    return a is b or (a.term is b.term and a.rho is b.rho and a.term is not None)


def _conv_spines(env: GlobalEnv, k: int, sa: tuple, sb: tuple) -> bool:
    if len(sa) != len(sb):
        return False
    for x, y in zip(sa, sb):
        if not (_same_thunk(x, y) or _conv(env, k, _force(env, x), _force(env, y))):
            return False
    return True


def _conv_terms(env: GlobalEnv, k: int, rho_a: dict, a: Term, rho_b: dict,
                b: Term) -> bool:
    if a is b and rho_a is rho_b:
        return True
    return _conv(env, k, _eval(env, rho_a, a), _eval(env, rho_b, b))


def _conv_heads(env: GlobalEnv, k: int, a: _Neutral, b: _Neutral) -> bool:
    """Whether two neutrals of one kind have convertible heads."""
    if a.kind == _CASE:
        rho_a, ca, sa = a.head
        rho_b, cb, sb = b.head
        if (ca.ind != cb.ind or len(ca.params) != len(cb.params)
                or len(ca.branches) != len(cb.branches)):
            return False
        return (_conv(env, k, sa, sb)
                and all(_conv_terms(env, k, rho_a, x, rho_b, y)
                        for x, y in zip(ca.params, cb.params))
                and _conv_terms(env, k, rho_a, ca.motive, rho_b, cb.motive)
                and all(_conv_terms(env, k, rho_a, x, rho_b, y)
                        for x, y in zip(ca.branches, cb.branches)))
    if a.kind == _FIX:
        rho_a, fa = a.head
        rho_b, fb = b.head
        if fa.decreasing != fb.decreasing or not _conv_terms(
                env, k, rho_a, fa.annotation, rho_b, fb.annotation):
            return False
        level = _Thunk(None, None, _Neutral(_LEVEL, k))
        return _conv(env, k + 1, _eval(env, {**rho_a, fa.binder: level}, fa.body),
                     _eval(env, {**rho_b, fb.binder: level}, fb.body))
    if a.kind == _STUCK:
        return _conv(env, k, a.head, b.head)
    return a.head == b.head


def conv(env: GlobalEnv, a: Term, b: Term) -> bool:
    """Convertibility under beta, delta, iota and fix unfolding.  No eta.

    Alpha-equal terms are convertible at once.  Otherwise both sides are
    evaluated to closures and neutrals and compared on their weak head
    forms, recursing on the parts, with lazy delta: applications of the
    same global are compared argument by argument before either is
    unfolded.  (whnf stays on terms, because infer returns its result.)
    """
    if alpha_eq(a, b):
        return True
    return _conv(env, 0, _eval(env, _EMPTY, a), _eval(env, _EMPTY, b))


def subtype(env: GlobalEnv, a: Term, b: Term) -> bool:
    """Cumulativity: conversion, or sort inclusion, or products compared
    with convertible domains and subtyped codomains.

    Decided like `conv`, on values with lazy delta, after the same
    alpha-equality fast path."""
    if alpha_eq(a, b):
        return True
    return _conv(env, 0, _eval(env, _EMPTY, a), _eval(env, _EMPTY, b), True)


# ---------------------------------------------------------------------------
# Type inference


def infer(env: GlobalEnv, ctx: Context, t: Term,
          mode: EliminationMode = STAR) -> Term:
    """The principal type of `t`, with its head reduced."""
    return whnf(env, _infer(env, ctx, t, mode))


def check(env: GlobalEnv, ctx: Context, t: Term, expected: Term,
          mode: EliminationMode = STAR) -> None:
    """Check `t` against `expected` up to cumulativity."""
    actual = _infer(env, ctx, t, mode)
    if not subtype(env, actual, expected):
        raise TypeCheckError(ErrorKind.NOT_CONVERTIBLE,
                             "term does not have the expected type",
                             term=t, expected=expected, actual=actual)


def infer_sort(env: GlobalEnv, ctx: Context, t: Term,
               mode: EliminationMode = STAR) -> Sort:
    """The sort of the type `t`, or NotASort."""
    ty = whnf(env, _infer(env, ctx, t, mode))
    if not isinstance(ty, SortT):
        raise TypeCheckError(ErrorKind.NOT_A_SORT,
                             "expected a type", term=t, actual=ty)
    return ty.sort


def _infer(env: GlobalEnv, ctx: Context, t: Term,
           mode: EliminationMode) -> Term:
    match t:
        case Var(name):
            ty = ctx.lookup(name)
            if ty is None:
                raise TypeCheckError(ErrorKind.UNBOUND_VARIABLE,
                                     f"unbound variable {name}", term=t)
            return ty
        case Const(name):
            defn = env.definition(name)
            if defn is None:
                raise TypeCheckError(ErrorKind.UNBOUND_VARIABLE,
                                     f"unknown definition {name}", term=t)
            return defn.type
        case SortT(s):
            return SortT(axiom_sort(s))
        case Prod(binder, domain, codomain):
            sd = infer_sort(env, ctx, domain, mode)
            sc = infer_sort(env, ctx.extend(binder, domain), codomain, mode)
            return SortT(sort_of_product(sd, sc))
        case Lam(binder, annotation, body):
            infer_sort(env, ctx, annotation, mode)
            body_ty = _infer(env, ctx.extend(binder, annotation), body, mode)
            return Prod(binder, annotation, body_ty)
        case App(fn, arg):
            fn_ty = whnf(env, _infer(env, ctx, fn, mode))
            if not isinstance(fn_ty, Prod):
                raise TypeCheckError(ErrorKind.NOT_A_FUNCTION,
                                     "application head is not a function",
                                     term=fn, actual=fn_ty)
            arg_ty = _infer(env, ctx, arg, mode)
            if not subtype(env, arg_ty, fn_ty.domain):
                raise TypeCheckError(ErrorKind.NOT_CONVERTIBLE,
                                     "argument type mismatch", term=t,
                                     expected=fn_ty.domain, actual=arg_ty)
            return subst(fn_ty.codomain, fn_ty.binder, arg)
        case Ind(name):
            decl = env.inductive(name)
            if decl is None:
                raise TypeCheckError(ErrorKind.UNBOUND_VARIABLE,
                                     f"unknown inductive {name}", term=t)
            return decl.arity
        case Constr(name):
            info = env.constructor(name)
            if info is None:
                raise TypeCheckError(ErrorKind.UNBOUND_VARIABLE,
                                     f"unknown constructor {name}", term=t)
            decl, i = info
            return decl.constructors[i][1]
        case Case():
            return _infer_case(env, ctx, t, mode)
        case Fix():
            return _infer_fix(env, ctx, t, mode)
    raise TypeCheckError(ErrorKind.NOT_CONVERTIBLE, f"not a term: {t!r}")


def _whnf_prod(env: GlobalEnv, t: Term, what: str) -> Prod:
    t = whnf(env, t)
    if not isinstance(t, Prod):
        raise TypeCheckError(ErrorKind.ARITY_MISMATCH,
                             f"{what}: expected a product", actual=t)
    return t


def index_telescope(env: GlobalEnv, decl: InductiveDecl,
                    params: tuple[Term, ...]) -> tuple[list[tuple[str, Term]], Sort]:
    """The index binders of `decl`'s arity with the parameters substituted,
    binders freshened against the parameter terms, plus the result sort."""
    avoid = set().union(*(free_vars(p) for p in params)) if params else set()
    t = decl.arity
    for p in params:
        prod = _whnf_prod(env, t, f"arity of {decl.name}")
        t = subst(prod.codomain, prod.binder, p)
    out: list[tuple[str, Term]] = []
    while True:
        t = whnf(env, t)
        if isinstance(t, SortT):
            return out, t.sort
        if not isinstance(t, Prod):
            raise TypeCheckError(ErrorKind.ILL_FORMED_INDUCTIVE,
                                 f"arity of {decl.name} does not end in a sort",
                                 actual=t)
        name = fresh_name(t.binder, avoid | free_vars(t.codomain))
        out.append((name, t.domain))
        avoid.add(name)
        t = subst(t.codomain, t.binder, Var(name))


def constructor_fields(env: GlobalEnv, decl: InductiveDecl, cty: Term,
                       params: tuple[Term, ...],
                       avoid: frozenset[str] = frozenset(),
                       ) -> tuple[list[tuple[str, Term]], list[Term]]:
    """A constructor's non-parameter binders and result indices, with the
    given parameter terms substituted and binders freshened to dodge
    `avoid` and the parameters' free variables."""
    t = cty
    for p in params:
        prod = _whnf_prod(env, t, "constructor type")
        t = subst(prod.codomain, prod.binder, p)
    taken = set(avoid)
    for p in params:
        taken |= free_vars(p)
    fields: list[tuple[str, Term]] = []
    while True:
        t = whnf(env, t)
        if not isinstance(t, Prod):
            break
        name = fresh_name(t.binder, taken | free_vars(t.codomain))
        fields.append((name, t.domain))
        taken.add(name)
        t = subst(t.codomain, t.binder, Var(name))
    head, args = unfold_app(t)
    if not (isinstance(head, Ind) and head.name == decl.name):
        raise TypeCheckError(ErrorKind.ILL_FORMED_INDUCTIVE,
                             f"constructor does not build {decl.name}", actual=t)
    return fields, args[decl.params:]


def _infer_case(env: GlobalEnv, ctx: Context, t: Case,
                mode: EliminationMode) -> Term:
    decl = env.inductive(t.ind)
    if decl is None:
        raise TypeCheckError(ErrorKind.UNBOUND_VARIABLE,
                             f"unknown inductive {t.ind}", term=t)
    if len(t.params) != decl.params:
        raise TypeCheckError(ErrorKind.ARITY_MISMATCH,
                             f"case over {t.ind} takes {decl.params} parameters, "
                             f"got {len(t.params)}", term=t)
    if len(t.branches) != len(decl.constructors):
        raise TypeCheckError(ErrorKind.ARITY_MISMATCH,
                             f"case over {t.ind} needs {len(decl.constructors)} "
                             f"branches, got {len(t.branches)}", term=t)

    scrut_ty = whnf(env, _infer(env, ctx, t.scrutinee, mode))
    head, args = unfold_app(scrut_ty)
    if not (isinstance(head, Ind) and head.name == t.ind):
        raise TypeCheckError(ErrorKind.NOT_CONVERTIBLE,
                             f"scrutinee is not a {t.ind}",
                             term=t.scrutinee, actual=scrut_ty)
    indices, _ = index_telescope(env, decl, t.params)
    if len(args) != decl.params + len(indices):
        raise TypeCheckError(ErrorKind.ARITY_MISMATCH,
                             f"scrutinee type applies {t.ind} to {len(args)} "
                             f"arguments", term=t.scrutinee, actual=scrut_ty)
    for given, actual in zip(t.params, args[:decl.params]):
        if not conv(env, given, actual):
            raise TypeCheckError(ErrorKind.NOT_CONVERTIBLE,
                                 "case parameters disagree with the scrutinee",
                                 term=t, expected=given, actual=actual)
    actual_indices = args[decl.params:]

    # The motive must take the indices, then the scrutinee, and land in a sort.
    motive_ty = whnf(env, _infer(env, ctx, t.motive, mode))
    idx_vars: list[Term] = []
    for pos, (iname, ity) in enumerate(indices):
        prod = motive_ty
        if not isinstance(prod, Prod):
            raise TypeCheckError(ErrorKind.ARITY_MISMATCH,
                                 f"motive of case over {t.ind} takes too few "
                                 f"arguments", term=t.motive)
        expected = ity
        for (jname, _), v in zip(indices[:pos], idx_vars):
            expected = subst(expected, jname, v)
        if not conv(env, prod.domain, expected):
            raise TypeCheckError(ErrorKind.NOT_CONVERTIBLE,
                                 "motive domain mismatch", term=t.motive,
                                 expected=expected, actual=prod.domain)
        fresh = fresh_name(iname, ctx.names() | free_vars(prod.codomain))
        idx_vars.append(Var(fresh))
        motive_ty = subst(prod.codomain, prod.binder, Var(fresh))
        motive_ty = whnf(env, motive_ty)
    prod = motive_ty
    if not isinstance(prod, Prod):
        raise TypeCheckError(ErrorKind.ARITY_MISMATCH,
                             f"motive of case over {t.ind} must abstract the "
                             f"scrutinee", term=t.motive)
    expected_scrut = app(Ind(t.ind), *t.params, *idx_vars)
    if not conv(env, prod.domain, expected_scrut):
        raise TypeCheckError(ErrorKind.NOT_CONVERTIBLE,
                             "motive scrutinee domain mismatch", term=t.motive,
                             expected=expected_scrut, actual=prod.domain)
    result = whnf(env, prod.codomain)
    if not isinstance(result, SortT):
        raise TypeCheckError(ErrorKind.NOT_A_SORT,
                             "motive must land in a sort", term=t.motive,
                             actual=result)
    if (result.sort.kind == "Type" and mode is STAR
            and not is_small(env, t.ind)):
        raise TypeCheckError(ErrorKind.NON_SMALL_STRONG_ELIM,
                             f"strong elimination of non-small inductive "
                             f"{t.ind}", term=t)

    for (cname, cty), branch in zip(decl.constructors, t.branches):
        avoid = (free_vars(t.motive) | ctx.names()
                 | frozenset(itertools.chain.from_iterable(
                     free_vars(p) for p in t.params)))
        fields, result_indices = constructor_fields(env, decl, cty, t.params,
                                                    frozenset(avoid))
        con_app = app(Constr(cname), *t.params, *(Var(n) for n, _ in fields))
        expected_branch = app(t.motive, *result_indices, con_app)
        for name, ty in reversed(fields):
            expected_branch = Prod(name, ty, expected_branch)
        check(env, ctx, branch, expected_branch, mode)

    return app(t.motive, *actual_indices, t.scrutinee)


def _infer_fix(env: GlobalEnv, ctx: Context, t: Fix,
               mode: EliminationMode) -> Term:
    infer_sort(env, ctx, t.annotation, mode)
    # The decreasing argument must exist and be of inductive type.
    tele = t.annotation
    for i in range(t.decreasing + 1):
        prod = whnf(env, tele)
        if not isinstance(prod, Prod):
            raise TypeCheckError(ErrorKind.GUARD_VIOLATION,
                                 f"fix type has no argument {t.decreasing}",
                                 term=t)
        if i == t.decreasing:
            dhead, _ = unfold_app(whnf(env, prod.domain))
            if not isinstance(dhead, Ind):
                raise TypeCheckError(ErrorKind.GUARD_VIOLATION,
                                     "decreasing argument is not of inductive "
                                     "type", term=t, actual=prod.domain)
        fresh = fresh_name(prod.binder, ctx.names() | free_vars(prod.codomain))
        tele = subst(prod.codomain, prod.binder, Var(fresh))
    check(env, ctx.extend(t.binder, t.annotation), t.body, t.annotation, mode)
    check_guard(env, t)
    return t.annotation


# ---------------------------------------------------------------------------
# The termination guard


def check_guard(env: GlobalEnv, fix: Fix) -> None:
    """Structural descent: every call to the fix variable must pass, in the
    decreasing position, a variable obtained by case analysis (directly or
    transitively) of the original decreasing argument."""
    binders, body = [], fix.body
    while isinstance(body, Lam) and len(binders) <= fix.decreasing:
        binders.append(body.binder)
        body = body.body
    if len(binders) <= fix.decreasing:
        raise TypeCheckError(ErrorKind.GUARD_VIOLATION,
                             f"fix body binds too few arguments for "
                             f"decreasing index {fix.decreasing}", term=fix)
    dec = binders[fix.decreasing]
    _guard(env, fix.binder, fix.decreasing, body, dec_var=dec,
           smaller=frozenset())


def _guard(env: GlobalEnv, f: str, k: int, t: Term,
           dec_var: Optional[str], smaller: frozenset[str]) -> None:
    head, args = unfold_app(t)
    if isinstance(head, Var) and head.name == f:
        if len(args) <= k:
            raise TypeCheckError(ErrorKind.GUARD_VIOLATION,
                                 f"recursive call to {f} is missing its "
                                 f"decreasing argument", term=t)
        arg = args[k]
        if not (isinstance(arg, Var) and arg.name in smaller):
            raise TypeCheckError(ErrorKind.GUARD_VIOLATION,
                                 f"recursive call to {f} does not decrease",
                                 term=t)
        for a in args:
            _guard(env, f, k, a, dec_var, smaller)
        return
    if args:
        _guard(env, f, k, head, dec_var, smaller)
        for a in args:
            _guard(env, f, k, a, dec_var, smaller)
        return

    def under(binder: str, sub: Term, extra_smaller: frozenset[str] = frozenset()) -> None:
        if binder == f:
            return  # the fix variable is shadowed below this binder
        _guard(env, f, k, sub,
               dec_var if binder != dec_var else None,
               (smaller | extra_smaller) - {binder})

    match t:
        case Var(name):
            if name == f:
                raise TypeCheckError(ErrorKind.GUARD_VIOLATION,
                                     f"fix variable {f} escapes its recursive "
                                     f"call position", term=t)
        case Const() | SortT() | Ind() | Constr():
            pass
        case Prod(binder, domain, codomain):
            _guard(env, f, k, domain, dec_var, smaller)
            under(binder, codomain)
        case Lam(binder, annotation, body):
            _guard(env, f, k, annotation, dec_var, smaller)
            under(binder, body)
        case Case(ind, scrutinee, params, motive, branches):
            _guard(env, f, k, scrutinee, dec_var, smaller)
            for p in params:
                _guard(env, f, k, p, dec_var, smaller)
            _guard(env, f, k, motive, dec_var, smaller)
            scrut_smaller = (isinstance(scrutinee, Var)
                             and (scrutinee.name == dec_var
                                  or scrutinee.name in smaller))
            decl = env.inductive(ind)
            for i, branch in enumerate(branches):
                if scrut_smaller and decl is not None:
                    _guard_branch(env, f, k, branch, dec_var, smaller,
                                  _field_count(env, decl, i))
                else:
                    _guard(env, f, k, branch, dec_var, smaller)
        case Fix(binder, annotation, body, _):
            _guard(env, f, k, annotation, dec_var, smaller)
            under(binder, body)


def _guard_branch(env: GlobalEnv, f: str, k: int, branch: Term,
                  dec_var: Optional[str], smaller: frozenset[str],
                  nfields: int) -> None:
    """Walk a branch of a case over a shrinking scrutinee: its leading
    binders, one per constructor field, are themselves smaller."""
    names: list[str] = []
    b = branch
    while isinstance(b, Lam) and len(names) < nfields:
        _guard(env, f, k, b.annotation, dec_var, smaller)
        if b.binder == f:
            return  # shadowed; no recursive calls can occur below
        names.append(b.binder)
        b = b.body
    live_dec = None if dec_var in names else dec_var
    _guard(env, f, k, b, live_dec, smaller | frozenset(names))


def _field_count(env: GlobalEnv, decl: InductiveDecl, i: int) -> int:
    """How many non-parameter arguments constructor `i` of `decl` takes."""
    t = decl.constructors[i][1]
    n = 0
    while isinstance(t, Prod):
        n += 1
        t = t.codomain
    return n - decl.params


# ---------------------------------------------------------------------------
# Inductive declarations


def is_small(env: GlobalEnv, name: str) -> bool:
    """Whether every constructor argument (after the parameters) lives in
    Prop or Set, making strong elimination safe."""
    decl = env.inductive(name)
    if decl is None:
        raise TypeCheckError(ErrorKind.UNBOUND_VARIABLE,
                             f"unknown inductive {name}")
    for _, cty in decl.constructors:
        ctx = Context()
        t = cty
        for _ in range(decl.params):
            prod = _whnf_prod(env, t, "constructor type")
            ctx = ctx.extend(prod.binder, prod.domain)
            t = prod.codomain
        while True:
            t = whnf(env, t)
            if not isinstance(t, Prod):
                break
            s = infer_sort(env, ctx, t.domain)
            if s.kind == "Type":
                return False
            ctx = ctx.extend(t.binder, t.domain)
            t = t.codomain
    return True


def _strictly_positive(name: str, ty: Term) -> bool:
    """`name` may occur in `ty` only as the head of its conclusion, and not
    at all in the domains along the way."""
    if name not in _ind_occurs(ty):
        return True
    binders, core = strip_prods(ty)
    for _, d in binders:
        if name in _ind_occurs(d):
            return False
    head, args = unfold_app(core)
    if not (isinstance(head, Ind) and head.name == name):
        return False
    return all(name not in _ind_occurs(a) for a in args)


def _ind_occurs(t: Term) -> frozenset[str]:
    match t:
        case Ind(name):
            return frozenset((name,))
        case Var() | Const() | SortT() | Constr():
            return frozenset()
        case App(fn, arg):
            return _ind_occurs(fn) | _ind_occurs(arg)
        case Prod(_, domain, codomain):
            return _ind_occurs(domain) | _ind_occurs(codomain)
        case Lam(_, annotation, body):
            return _ind_occurs(annotation) | _ind_occurs(body)
        case Case(ind, scrutinee, params, motive, branches):
            out = frozenset((ind,)) | _ind_occurs(scrutinee) | _ind_occurs(motive)
            for p in params:
                out |= _ind_occurs(p)
            for b in branches:
                out |= _ind_occurs(b)
            return out
        case Fix(_, annotation, body, _):
            return _ind_occurs(annotation) | _ind_occurs(body)
    raise TypeError(f"not a term: {t!r}")


def check_inductive(env: GlobalEnv, decl: InductiveDecl,
                    mode: EliminationMode = STAR) -> None:
    """Validate an inductive declaration: well-typed arity ending in a sort,
    constructors sharing the parameter prefix, returning the inductive fully
    applied to its parameters, strictly positive, and sized within the
    declared sort."""
    def bad(msg: str, **kw) -> TypeCheckError:
        return TypeCheckError(ErrorKind.ILL_FORMED_INDUCTIVE,
                              f"{decl.name}: {msg}", **kw)

    # Checking in the empty context rejects any free variable.
    infer_sort(env, Context(), decl.arity, mode)
    arity_binders, arity_core = strip_prods(decl.arity)
    if not isinstance(arity_core, SortT):
        raise bad("arity does not end in a sort", term=decl.arity)
    ind_sort = arity_core.sort
    if decl.params > len(arity_binders):
        raise TypeCheckError(ErrorKind.ARITY_MISMATCH,
                             f"{decl.name}: {decl.params} parameters but the "
                             f"arity binds only {len(arity_binders)}")
    param_binders = arity_binders[:decl.params]

    env2 = env.with_provisional(InductiveDecl(decl.name, decl.params,
                                              decl.arity, ()))
    seen: set[str] = {decl.name}
    for cname, cty in decl.constructors:
        if cname in seen:
            raise bad(f"duplicate constructor name {cname}")
        seen.add(cname)
        infer_sort(env2, Context(), cty, mode)

        # The parameter prefix must match the arity's, up to alpha.
        t = cty
        ctx = Context()
        rename_map: dict[str, str] = {}
        for pname, pty in param_binders:
            if not isinstance(t, Prod):
                raise bad(f"constructor {cname} is missing parameter binders",
                          term=cty)
            expected = pty
            for old, new in rename_map.items():
                expected = subst(expected, old, Var(new))
            if not alpha_eq(t.domain, expected):
                raise bad(f"constructor {cname} disagrees with the arity on "
                          f"parameter {pname}", term=cty,
                          expected=expected, actual=t.domain)
            rename_map[pname] = t.binder
            ctx = ctx.extend(t.binder, t.domain)
            t = t.codomain

        # Size: the post-parameter part must fit the declared sort.
        s_con = infer_sort(env2, ctx, t, mode)
        if not subsort(s_con, ind_sort):
            raise bad(f"constructor {cname} lives in {s_con}, which exceeds "
                      f"{ind_sort}", term=cty)

        # Shape: fields, then the inductive applied to the parameter
        # variables followed by index terms.
        fields, core = strip_prods(t)
        head, args = unfold_app(core)
        if not (isinstance(head, Ind) and head.name == decl.name):
            raise bad(f"constructor {cname} does not conclude in {decl.name}",
                      term=core)
        if len(args) != len(arity_binders):
            raise TypeCheckError(ErrorKind.ARITY_MISMATCH,
                                 f"{decl.name}: constructor {cname} applies "
                                 f"the inductive to {len(args)} arguments, "
                                 f"expected {len(arity_binders)}")
        for (pname, _), arg in zip(param_binders, args[:decl.params]):
            want = rename_map.get(pname, pname)
            if not (isinstance(arg, Var) and arg.name == want):
                raise bad(f"constructor {cname} must apply {decl.name} to its "
                          f"parameter binders in order", term=core)
        for arg in args[decl.params:]:
            if decl.name in _ind_occurs(arg):
                raise TypeCheckError(
                    ErrorKind.POSITIVITY_VIOLATION,
                    f"{decl.name} occurs in an index of constructor {cname}",
                    term=core)
        for _, fty in fields:
            if not _strictly_positive(decl.name, fty):
                raise TypeCheckError(
                    ErrorKind.POSITIVITY_VIOLATION,
                    f"{decl.name} occurs non-positively in constructor "
                    f"{cname}", term=fty)


# ---------------------------------------------------------------------------
# Declaring globals


def declare_inductive(env: GlobalEnv, decl: InductiveDecl,
                      mode: EliminationMode = STAR) -> None:
    check_inductive(env, decl, mode)
    env.add_inductive(decl)


def declare_definition(env: GlobalEnv, name: str, ty: Term, body: Term,
                       mode: EliminationMode = STAR) -> None:
    infer_sort(env, Context(), ty, mode)
    check(env, Context(), body, ty, mode)
    env.add_definition(Definition(name, ty, body))
