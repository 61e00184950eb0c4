"""The kernel: reduction, conversion, cumulativity, and type checking.

Sorts form three families.  Prop is impredicative: any product whose
codomain lands in Prop lands in Prop.  Set and Type are predicative and
level-indexed; a Prop domain never raises the level of the codomain.
Cumulativity embeds Prop below Set1 and orders each level family, with no
inclusion between the Set and Type families.

Strong elimination (a case whose motive lands in a Type sort) is gated by
the elimination mode: STAR restricts it to small inductives, FULL lifts the
restriction.

Reduction is one evaluator, from terms to closures and neutral values.
Conversion and cumulativity compare the values of both sides, unfolding a
definition only when comparing its applications argument by argument fails
(lazy delta).  `whnf`, whose result `infer` returns, reads a value back to a
term with the definitions at its head unfolded and its environments
substituted; `beta_normalize` reads back values computed in an empty global
environment, where only beta fires.  A binder is renamed by the rule of
`syntax.subst_all`.

One walker, `Telescope`, opens every product telescope: an application
head's type, a case motive, an arity or constructor type under its
parameters, a fix annotation.  The terms that replace the binders passed
so far wait in one pending substitution, and the type is reduced only
where it is not syntactically a product.
"""

from __future__ import annotations

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
    children,
    free_vars,
    fresh_name,
    map_children,
    prods,
    rebuild_binder,
    strip_prods,
    subst_all,
    subterms,
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
# Values: reduction, conversion, cumulativity and beta normalisation
#
# The kernel has one reduction engine: terms are evaluated to values.  A value
# is a Sort, a closure (an environment and a Lam or Prod term), or a neutral:
# a head and a spine of arguments, each evaluated at most once and only when
# needed.  Variables bound inside a term are looked up in the environment, so
# evaluation never substitutes; a binder that conversion opens becomes a de
# Bruijn level, so it never makes a fresh name.
#
# Evaluation does beta, iota and fix unfolding, but leaves a defined global in
# head position folded until something asks for its head (`_unfold_head`).
# Conversion compares two applications of the same global argument by
# argument first and unfolds them only if that fails (lazy delta); `whnf`
# unfolds the head at once and reads the value back to a term.
#
# An application is evaluated a whole spine at a time: the head once, then
# all the arguments in one step (`_apply_spine`).  A Lam closure binds as many
# arguments as its telescope of Lams takes into one new environment, and iota
# and fix unfolding bind the constructor's fields or the fix's spine straight
# into the leading binders of the branch or the fix body (`_enter`), with no
# closure in between.  A neutral takes the arguments left over in one tuple.
# A thunk whose term applies a variable bound to a thunk not yet forced is a
# link of a chain (`f ↦ f x`, one link per binder of a translated product
# telescope); forcing it follows the chain in a loop and computes the links
# from the inside out, each storing its value, so a chain costs no Python
# frame per link.
#
# `beta_normalize` evaluates in an empty global environment, where only beta
# fires, and reads the value back to a term, renaming a binder by the rule of
# `syntax.under_binder` applied once, to the environment as a whole.  `whnf`
# reduces only the head: it reads a closure or thunk left in the value back
# as its term with its environment substituted, and forces none of them.

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
    """A term in an environment, evaluated at most once (see `_names`)."""

    __slots__ = ("rho", "term", "value", "names")

    def __init__(self, rho: Optional[dict], term: Optional[Term], value=None):
        self.rho = rho
        self.term = term
        self.value = value
        self.names = None


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
    """The value of `th`, computed once.  The links of a chain that `th`
    starts (see above) are collected in a loop, and each is evaluated once
    the one it waits on has its value."""
    v = th.value
    if v is not None:
        return v
    links = []
    while True:
        head = th.term
        while type(head) is App:
            head = head.fn
        inner = th.rho.get(head.name) if type(head) is Var else None
        if inner is None or inner.value is not None:
            break
        links.append(th)
        th = inner
    v = th.value = _eval(env, th.rho, th.term)
    while links:
        th = links.pop()
        v = th.value = _eval(env, th.rho, th.term)
    return v


def _eval(env: GlobalEnv, rho: dict, t: Term):
    """The value of `t` with its bound variables looked up in `rho`."""
    kind = type(t)
    if kind is App:
        args = []
        while kind is App:
            arg = t.arg
            th = rho.get(arg.name) if type(arg) is Var else None
            args.append(th or _Thunk(rho, arg))
            t = t.fn
            kind = type(t)
        args.reverse()
        return _apply_spine(env, _eval(env, rho, t), args)
    if kind is Var:
        th = rho.get(t.name)
        if th is not None:
            return _force(env, th)
        return _Neutral(_FREE, t.name)
    if kind is Lam or kind is Prod:
        return _Closure(rho, t)
    if kind is Case:
        s = _unfold_head(env, _eval(env, rho, t.scrutinee))
        if type(s) is _Neutral and s.kind == _CONSTR:
            info = env.constructor(s.head)
            if info is not None and info[0].name == t.ind:
                decl, i = info
                return _enter(env, rho, t.branches[i], s.spine[decl.params:])
        return _Neutral(_CASE, (rho, t, s))
    if kind is Constr:
        return _Neutral(_CONSTR, t.name)
    if kind is Ind:
        return _Neutral(_IND, t.name)
    if kind is Const:
        defn = env.definition(t.name)
        if defn is None:
            return _Neutral(_FREE, t)
        # One shared value per definition, so that its unfolding is
        # computed once.  It is kept in the definition's instance dict,
        # which equality, hashing and repr do not see; the body is
        # closed, so its value is the same wherever it is used.
        v = defn.__dict__.get(_VALUE)
        if v is None:
            v = defn.__dict__[_VALUE] = _Neutral(_GLOBAL, t.name)
        return v
    if kind is Fix:
        return _Neutral(_FIX, (rho, t))
    if kind is SortT:
        return t.sort
    raise TypeError(f"not a term: {t!r}")


def _apply_spine(env: GlobalEnv, f, args):
    """The value of `f` applied to the thunks `args`, in one step: beta for
    a Lam closure, fix unfolding once the decreasing argument is a
    constructor `env` declares, else a neutral with `args` appended."""
    kind = type(f)
    if kind is _Neutral:
        spine = f.spine + tuple(args)
        if f.kind == _FIX:
            rho, fix = f.head
            # Checked once, when the decreasing argument arrives: if it is
            # not a constructor then, it never will be.
            if len(f.spine) <= fix.decreasing < len(spine):
                d = _unfold_head(env, _force(env, spine[fix.decreasing]))
                if (type(d) is _Neutral and d.kind == _CONSTR
                        and env.constructor(d.head) is not None):
                    itself = _Thunk(rho, fix, _Neutral(_FIX, f.head))
                    return _enter(env, {**rho, fix.binder: itself}, fix.body,
                                  spine)
        return _Neutral(f.kind, f.head, spine)
    if kind is _Closure and type(f.term) is Lam:
        return _enter(env, f.rho, f.term, args)
    return _Neutral(_STUCK, f, tuple(args))


def _enter(env: GlobalEnv, rho: dict, t: Term, args):
    """The value of `t` in `rho` applied to `args`: the leading Lams of `t`
    bind their arguments in one copy of `rho`, with no closure made."""
    i, n = 0, len(args)
    if n and type(t) is Lam:
        rho = rho.copy()
        while i < n and type(t) is Lam:
            rho[t.binder] = args[i]
            t = t.body
            i += 1
    v = _eval(env, rho, t)
    return _apply_spine(env, v, args[i:]) if i < n else v


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
        out = v.unfolded = _enter(env, _EMPTY, env.definition(v.head).body,
                                  v.spine)
    return out


def whnf(env: GlobalEnv, t: Term) -> Term:
    """Weak head normal form under beta, iota, fix unfolding and delta: the
    read-back of `t`'s value with the defined globals at its head unfolded
    and nothing below the head reduced.

    A term whose head cannot reduce comes back as itself.  A fix unfolds
    only when its decreasing argument evaluates to a constructor `env`
    declares, so reduction of well-typed terms terminates.
    """
    head, n = t, 0
    while type(head) is App:
        head = head.fn
        n += 1
    kind = type(head)
    if (kind is Var or kind is Ind or kind is Constr or kind is SortT
            or kind is Prod or kind is Lam and not n
            or kind is Fix and n <= head.decreasing):
        return t
    memo: dict[_Thunk, Term] = {}
    return _read_back(_unfold_head(env, _eval(env, _EMPTY, t)),
                      lambda rho, u: _substituted(rho, u, memo))


def _substituted(rho: dict, t: Term, memo: dict) -> Term:
    """`t` with each variable bound in `rho` replaced by its thunk's term,
    substituted the same way once per thunk in `memo` and then shared."""
    sub = {}
    for name in rho.keys() & free_vars(t):
        th = rho[name]
        if th not in memo:
            memo[th] = _substituted(th.rho, th.term, memo)
        sub[name] = memo[th]
    return subst_all(t, sub)


_BETA = GlobalEnv()


def beta_normalize(t: Term) -> Term:
    """Full normalization under beta alone (no delta, iota, or fix), for the
    administrative redexes of the relational translation; it terminates on
    well-typed input.  Normal subterms come back as the same objects, and
    the read-back spends no Python frame per binder or per redex passed."""
    return _quote(_EMPTY, t)


def _quote(rho: dict, t: Term) -> Term:
    """The beta normal form of `t` with its variables looked up in `rho`: a
    redex goes to `_eval`, a node with none is rebuilt only if a child is."""
    passed = []  # (node, its binder's new name, its domain read back)
    while True:
        kind = type(t)
        if kind is Var and t.name in rho:
            rho, t = rho[t.name].rho, rho[t.name].term
            continue
        if kind is Lam or kind is Prod or kind is Fix:
            dom, body = children(t)
            fv = free_vars(body)
            live = [_names(rho[k]) for k in rho.keys() & fv if k != t.binder]
            name = t.binder
            if any(name in names for names in live):
                name = fresh_name(name, fv.union(*live))
            passed.append((t, name, _quote(rho, dom)))
            if name != t.binder or t.binder in rho:
                rho = {**rho, t.binder: _Thunk(_EMPTY, Var(name))}
            t = body
            continue
        head = t
        while type(head) is App:
            head = head.fn
        if not (type(head) is Lam or type(head) is Var and head.name in rho):
            t = map_children(t, lambda c: _quote(rho, c))
            break
        v = _eval(_BETA, rho, t)
        if type(v) is not _Closure:
            t = _read_back(v, _quote)
            break
        rho, t = v.rho, v.term
    for node, name, dom in reversed(passed):
        old_dom, old_body = children(node)
        t = (node if name == node.binder and dom is old_dom and t is old_body
             else rebuild_binder(node, name, dom, t))
    return t


_HEAD_TERM = {_FREE: Var, _GLOBAL: Const, _IND: Ind, _CONSTR: Constr}


def _read_back(v, term_of) -> Term:
    """The term of a value that `_eval` computed, with `term_of(rho, t)`
    making the term of each `t` the value keeps in an environment `rho`.
    A stuck case keeps its scrutinee's value in weak head normal form."""
    if type(v) is _Closure:
        return term_of(v.rho, v.term)
    if type(v) is Sort:
        return SortT(v)
    kind, t = v.kind, v.head
    if kind == _STUCK:
        t = _read_back(t, term_of)
    elif kind == _CASE:
        rho, case, s = t
        t = Case(case.ind, _read_back(s, term_of),
                 tuple(term_of(rho, p) for p in case.params),
                 term_of(rho, case.motive),
                 tuple(term_of(rho, b) for b in case.branches))
    elif kind == _FIX:
        t = term_of(t[0], t[1])
    elif type(t) is str:  # else a Const that names no definition
        t = _HEAD_TERM[kind](t)
    for th in v.spine:
        t = App(t, term_of(th.rho, th.term))
    return t


def _names(th: _Thunk) -> frozenset[str]:
    """The free names of `th`'s term with its environment substituted."""
    if th.names is None:
        fv = free_vars(th.term)
        th.names = fv if fv.isdisjoint(th.rho) else frozenset().union(
            *(_names(th.rho[k]) if k in th.rho else (k,) for k in fv))
    return th.names


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
            da, ba = children(ta)
            db, bb = children(tb)
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
    unfolded.
    """
    return alpha_eq(a, b) or _conv(env, 0, _eval(env, _EMPTY, a),
                                   _eval(env, _EMPTY, b))


def subtype(env: GlobalEnv, a: Term, b: Term) -> bool:
    """Cumulativity: conversion, or sort inclusion, or products compared
    with convertible domains and subtyped codomains.

    Decided like `conv`, on values with lazy delta, after the same
    alpha-equality fast path."""
    return alpha_eq(a, b) or _conv(env, 0, _eval(env, _EMPTY, a),
                                   _eval(env, _EMPTY, b), True)


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
        case Prod():
            # A product telescope in one loop: the domains' sorts outermost
            # first, each in the context its outer binders extend, then the
            # codomain's; the product sorts fold from the codomain outward.
            sorts = []
            while type(t) is Prod:
                sorts.append(infer_sort(env, ctx, t.domain, mode))
                ctx = ctx.extend(t.binder, t.domain)
                t = t.codomain
            s = infer_sort(env, ctx, t, mode)
            for sd in reversed(sorts):
                s = sort_of_product(sd, s)
            return SortT(s)
        case Lam(binder, annotation, body):
            infer_sort(env, ctx, annotation, mode)
            body_ty = _infer(env, ctx.extend(binder, annotation), body, mode)
            return Prod(binder, annotation, body_ty)
        case App():
            return _infer_spine(env, ctx, t, mode)
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


def _infer_spine(env: GlobalEnv, ctx: Context, t: App,
                 mode: EliminationMode) -> Term:
    """The type of an application, from its head's type inferred once and
    opened by one telescope walk, which takes the arguments as values."""
    nodes: list[App] = []
    head = t
    while type(head) is App:
        nodes.append(head)
        head = head.fn
    tele = Telescope(env, _infer(env, ctx, head, mode))
    for node in reversed(nodes):
        if not tele.expose():
            raise TypeCheckError(ErrorKind.NOT_A_FUNCTION,
                                 "application head is not a function",
                                 term=node.fn, actual=tele.ty)
        domain = tele.domain()
        arg_ty = _infer(env, ctx, node.arg, mode)
        if not subtype(env, arg_ty, domain):
            raise TypeCheckError(ErrorKind.NOT_CONVERTIBLE,
                                 "argument type mismatch", term=node,
                                 expected=domain, actual=arg_ty)
        tele.bind(node.arg)
    return tele.rest()


class Telescope:
    """A product type opened one binder at a time.  `ty` is the type still
    to open and `pending` the simultaneous substitution of the binders
    passed so far, applied to each domain as it is read and to the rest;
    it is flushed into `ty` only to reduce a `ty` that is not a product.
    """

    __slots__ = ("env", "ty", "pending")

    def __init__(self, env: GlobalEnv, ty: Term):
        self.env = env
        self.ty = ty
        self.pending: dict[str, Term] = {}

    def expose(self) -> bool:
        """Whether a product shows, reducing the type to weak head normal
        form first if it is not syntactically one."""
        if type(self.ty) is not Prod:
            self.ty = whnf(self.env, self.rest())
            self.pending = {}
        return type(self.ty) is Prod

    def domain(self) -> Term:
        """The domain of the product that shows."""
        return subst_all(self.ty.domain, self.pending)

    def fresh(self, base: str, avoid: frozenset[str] | set[str]) -> str:
        """A name from `base` outside `avoid` and the free names of the
        codomain with `pending` applied, computed without applying it: the
        names no entry replaces, and the free names of the live entries."""
        prod = self.ty
        taken = set(avoid)
        for name in free_vars(prod.codomain):
            value = self.pending.get(name)
            if value is None or name == prod.binder:
                taken.add(name)
            else:
                taken |= free_vars(value)
        return fresh_name(base, taken)

    def bind(self, value: Term) -> None:
        """Pass the binder that shows, replacing it by `value`."""
        self.pending[self.ty.binder] = value
        self.ty = self.ty.codomain

    def rest(self) -> Term:
        """The type still to open, with the pending substitution applied."""
        return subst_all(self.ty, self.pending)


def instantiate(env: GlobalEnv, ty: Term, params: tuple[Term, ...],
                what: str, avoid: frozenset[str] = frozenset(),
                ) -> tuple[list[tuple[str, Term]], Term]:
    """The binders of `ty` after the first `len(params)`, which take the
    parameter terms, and the weak head normal form it ends in.  Each binder
    is named fresh for `avoid`, the parameters and the binders before it."""
    tele = Telescope(env, ty)
    for p in params:
        if not tele.expose():
            raise TypeCheckError(ErrorKind.ARITY_MISMATCH,
                                 f"{what}: expected a product", actual=tele.ty)
        tele.bind(p)
    taken = set(avoid).union(*(free_vars(p) for p in params))
    binders: list[tuple[str, Term]] = []
    while tele.expose():
        name = tele.fresh(tele.ty.binder, taken)
        binders.append((name, tele.domain()))
        taken.add(name)
        tele.bind(Var(name))
    return binders, tele.ty


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
    indices, end = instantiate(env, decl.arity, t.params,
                               f"arity of {decl.name}")
    if not isinstance(end, SortT):
        raise TypeCheckError(ErrorKind.ILL_FORMED_INDUCTIVE,
                             f"arity of {decl.name} does not end in a sort",
                             actual=end)
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

    # The motive must take the indices, then the scrutinee, and land in a
    # sort.  Both telescopes take the motive's index variables, each fresh
    # for the context and the ones before it.
    motive = Telescope(env, _infer(env, ctx, t.motive, mode))
    idx_vars: dict[str, Term] = {}
    taken = set(ctx.names())
    for iname, ity in indices:
        if not motive.expose():
            raise TypeCheckError(ErrorKind.ARITY_MISMATCH,
                                 f"motive of case over {t.ind} takes too few "
                                 f"arguments", term=t.motive)
        expected = subst_all(ity, idx_vars)
        domain = motive.domain()
        if not conv(env, domain, expected):
            raise TypeCheckError(ErrorKind.NOT_CONVERTIBLE,
                                 "motive domain mismatch", term=t.motive,
                                 expected=expected, actual=domain)
        idx_vars[iname] = Var(motive.fresh(iname, taken))
        taken.add(idx_vars[iname].name)
        motive.bind(idx_vars[iname])
    if not motive.expose():
        raise TypeCheckError(ErrorKind.ARITY_MISMATCH,
                             f"motive of case over {t.ind} must abstract the "
                             f"scrutinee", term=t.motive)
    expected_scrut = app(Ind(t.ind), *t.params, *idx_vars.values())
    domain = motive.domain()
    if not conv(env, domain, expected_scrut):
        raise TypeCheckError(ErrorKind.NOT_CONVERTIBLE,
                             "motive scrutinee domain mismatch", term=t.motive,
                             expected=expected_scrut, actual=domain)
    motive.bind(t.scrutinee)
    result = whnf(env, motive.rest())
    if not isinstance(result, SortT):
        raise TypeCheckError(ErrorKind.NOT_A_SORT,
                             "motive must land in a sort", term=t.motive,
                             actual=result)
    if (result.sort.kind == "Type" and mode is STAR
            and not is_small(env, t.ind)):
        raise TypeCheckError(ErrorKind.NON_SMALL_STRONG_ELIM,
                             f"strong elimination of non-small inductive "
                             f"{t.ind}", term=t)

    avoid = free_vars(t.motive) | ctx.names()
    for (cname, cty), branch in zip(decl.constructors, t.branches):
        fields, end = instantiate(env, cty, t.params, "constructor type", avoid)
        chead, cargs = unfold_app(end)
        if not (isinstance(chead, Ind) and chead.name == decl.name):
            raise TypeCheckError(ErrorKind.ILL_FORMED_INDUCTIVE,
                                 f"constructor does not build {decl.name}",
                                 actual=end)
        con_app = app(Constr(cname), *t.params, *(Var(n) for n, _ in fields))
        expected_branch = app(t.motive, *cargs[decl.params:], con_app)
        check(env, ctx, branch, prods(fields, expected_branch), mode)

    return app(t.motive, *actual_indices, t.scrutinee)


def _infer_fix(env: GlobalEnv, ctx: Context, t: Fix,
               mode: EliminationMode) -> Term:
    infer_sort(env, ctx, t.annotation, mode)
    # The decreasing argument must exist and be of inductive type.
    tele = Telescope(env, t.annotation)
    for _ in range(t.decreasing):
        if not tele.expose():
            break
        tele.bind(Var(tele.fresh(tele.ty.binder, ctx.names())))
    if not tele.expose():
        raise TypeCheckError(ErrorKind.GUARD_VIOLATION,
                             f"fix type has no argument {t.decreasing}",
                             term=t)
    domain = tele.domain()
    dhead, _ = unfold_app(whnf(env, domain))
    if not isinstance(dhead, Ind):
        raise TypeCheckError(ErrorKind.GUARD_VIOLATION,
                             "decreasing argument is not of inductive type",
                             term=t, actual=domain)
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
    if not 0 <= fix.decreasing < len(binders):
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

    kind = type(t)
    if kind is Var:
        if t.name == f:
            raise TypeCheckError(ErrorKind.GUARD_VIOLATION,
                                 f"fix variable {f} escapes its recursive "
                                 f"call position", term=t)
    elif kind is Prod or kind is Lam or kind is Fix:
        dom, body = children(t)
        _guard(env, f, k, dom, dec_var, smaller)
        # Below a binder named f the fix variable is shadowed.
        if t.binder != f:
            _guard(env, f, k, body,
                   None if t.binder == dec_var else dec_var,
                   smaller - {t.binder})
    elif kind is Case:
        scrutinee = t.scrutinee
        _guard(env, f, k, scrutinee, dec_var, smaller)
        for p in t.params:
            _guard(env, f, k, p, dec_var, smaller)
        _guard(env, f, k, t.motive, dec_var, smaller)
        scrut_smaller = (isinstance(scrutinee, Var)
                         and (scrutinee.name == dec_var
                              or scrutinee.name in smaller))
        decl = env.inductive(t.ind)
        for i, branch in enumerate(t.branches):
            if scrut_smaller and decl is not None:
                fields, _ = strip_prods(decl.constructors[i][1])
                _guard_branch(env, f, k, branch, dec_var, smaller,
                              len(fields) - decl.params)
            else:
                _guard(env, f, k, branch, dec_var, smaller)


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


# ---------------------------------------------------------------------------
# Inductive declarations


def is_small(env: GlobalEnv, name: str) -> bool:
    """Whether every constructor argument (after the parameters) lives in
    Prop or Set, making strong elimination safe."""
    decl = env.inductive(name)
    if decl is None:
        raise TypeCheckError(ErrorKind.UNBOUND_VARIABLE,
                             f"unknown inductive {name}")
    binders, _ = instantiate(env, decl.arity, (), f"arity of {name}")
    params = binders[:decl.params]
    for _, cty in decl.constructors:
        fields, _ = instantiate(env, cty, tuple(Var(n) for n, _ in params),
                                "constructor type")
        ctx = Context(params)
        for fname, fty in fields:
            if infer_sort(env, ctx, fty).kind == "Type":
                return False
            ctx = ctx.extend(fname, fty)
    return True


def _strictly_positive(name: str, ty: Term) -> bool:
    """`name` may occur in `ty` only as the head of its conclusion, and not
    at all in the domains along the way."""
    if not _ind_occurs(name, ty):
        return True
    binders, core = strip_prods(ty)
    for _, d in binders:
        if _ind_occurs(name, d):
            return False
    head, args = unfold_app(core)
    if not (isinstance(head, Ind) and head.name == name):
        return False
    return not any(_ind_occurs(name, a) for a in args)


def _ind_occurs(name: str, t: Term) -> bool:
    """Whether `t` mentions the inductive `name`, as a type or in a case."""
    for u in subterms(t):
        match u:
            case Ind(ind) | Case(ind) if ind == name:
                return True
    return False


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
    if not 0 <= decl.params <= len(arity_binders):
        raise TypeCheckError(ErrorKind.ARITY_MISMATCH,
                             f"{decl.name}: {decl.params} parameters but the "
                             f"arity binds {len(arity_binders)}")
    param_binders = arity_binders[:decl.params]

    env2 = env.with_provisional(InductiveDecl(decl.name, decl.params,
                                              decl.arity, ()))
    seen: set[str] = {decl.name}
    for cname, cty in decl.constructors:
        if cname in seen:
            raise bad(f"duplicate constructor name {cname}")
        seen.add(cname)
        infer_sort(env2, Context(), cty, mode)

        # The parameter prefix must match the arity's, up to alpha: the
        # constructor's parameter binders are read as the arity's.
        tele = Telescope(env2, cty)
        for pname, pty in param_binders:
            if not isinstance(tele.ty, Prod):
                raise bad(f"constructor {cname} is missing parameter binders",
                          term=cty)
            domain = tele.domain()
            if not alpha_eq(domain, pty):
                raise bad(f"constructor {cname} disagrees with the arity on "
                          f"parameter {pname}", term=cty,
                          expected=pty, actual=domain)
            tele.bind(Var(pname))
        ctx = Context(param_binders)
        t = tele.rest()

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
            if not (isinstance(arg, Var) and arg.name == pname):
                raise bad(f"constructor {cname} must apply {decl.name} to its "
                          f"parameter binders in order", term=core)
        for arg in args[decl.params:]:
            if _ind_occurs(decl.name, arg):
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
