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
(lazy delta).  `whnf` reads a value back to a term with the definitions at
its head unfolded and its environments substituted, renaming a binder by
the rule of `syntax.subst_all`; `beta_normalize` reads back values computed
in an empty global environment, where only beta fires.

Type checking works on the same values.  A context binds each name to a de
Bruijn level and the level's type, a value; a product is opened by binding
its binder to the argument's value or to a new level, and a Lam is checked
against a product binder by binder, so the checker substitutes nothing.  A
type is read back to a term only to return it from `infer`, to show it in
an error, or as the product of a Lam whose type is inferred.  A level reads
back as its binder's name, or as the first fresh name if the binder is `_`
or a level in scope already has that name, so reading back never captures.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

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


class _Global(NamedTuple):
    """The kernel's values of a global of an environment: the class of the
    node that refers to it, its head, shared by every occurrence (so that
    conversion finds two identical at once and a definition unfolds once),
    and its type, evaluated on first use."""

    node: type
    head: _Neutral
    type: _Thunk


# The head kind and the description of each kind of global reference.
_REFERENCE = {Const: (_GLOBAL, "definition"), Ind: (_IND, "inductive"),
              Constr: (_CONSTR, "constructor")}


def _global(env: GlobalEnv, node: type, name: str) -> Optional[_Global]:
    """The kernel's values of the global `name` that a `node` refers to in
    `env`, kept in `env.values` from first use; None if there is none."""
    g = env.values.get(name)
    if g is not None and g.node is node:
        return g
    if node is Const:
        defn = env.definition(name)
        ty = defn and defn.type
    elif node is Ind:
        decl = env.inductive(name)
        ty = decl and decl.arity
    else:
        info = env.constructor(name)
        ty = info and info[0].constructors[info[1]][1]
    if ty is None:
        return None
    # Replaces an entry of another kind only in a `with_provisional` copy.
    g = env.values[name] = _Global(node, _Neutral(_REFERENCE[node][0], name),
                                   _Thunk(_EMPTY, ty))
    return g


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
    if kind is Ind or kind is Constr or kind is Const:
        g = _global(env, kind, t.name)
        if g is not None:
            return g.head
        # Not declared in `env`: a free Const, or an unshared Ind or Constr.
        return (_Neutral(_FREE, t) if kind is Const
                else _Neutral(_REFERENCE[kind][0], t.name))
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

    A fix unfolds only when its decreasing argument evaluates to a
    constructor `env` declares, so reduction of well-typed terms
    terminates.
    """
    return _term(_NO_CTX, _unfold_head(env, _eval(env, _EMPTY, t)))


def _substituted(rho: dict, t: Term, memo: dict, names) -> Term:
    """`t` with each variable bound in `rho` replaced by its thunk's term,
    substituted the same way once per thunk in `memo` and then shared.  A
    thunk with no term, such as a level, reads back its value, with level
    k as `names[k]`."""
    sub = {}
    for name in rho.keys() & free_vars(t):
        th = rho[name]
        if th not in memo:
            memo[th] = (_substituted(th.rho, th.term, memo, names)
                        if th.term is not None else _read_back(
                            th.value, lambda r, u: _substituted(r, u, memo,
                                                                names),
                            names))
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


def _read_back(v, term_of, names=()) -> Term:
    """The term of a value that `_eval` computed, with `term_of(rho, t)`
    making the term of each `t` the value keeps in an environment `rho`,
    and level k read back as `names[k]`.  A stuck case keeps its
    scrutinee's value in weak head normal form."""
    if type(v) is _Closure:
        return term_of(v.rho, v.term)
    if type(v) is Sort:
        return SortT(v)
    kind, t = v.kind, v.head
    if kind == _LEVEL:
        t = Var(names[t])
    elif kind == _STUCK:
        t = _read_back(t, term_of, names)
    elif kind == _CASE:
        rho, case, s = t
        t = Case(case.ind, _read_back(s, term_of, names),
                 tuple(term_of(rho, p) for p in case.params),
                 term_of(rho, case.motive),
                 tuple(term_of(rho, b) for b in case.branches))
    elif kind == _FIX:
        t = term_of(t[0], t[1])
    elif type(t) is str:  # else a Const that names no definition
        t = _HEAD_TERM[kind](t)
    for th in v.spine:
        t = App(t, term_of(th.rho, th.term) if th.term is not None
                else _read_back(th.value, term_of, names))
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


class _Entry(_Thunk):
    """A context entry: a thunk whose value is a level, with the level's
    binder and type."""

    __slots__ = ("binder", "type")

    def __init__(self, binder: str, level: int, ty):
        super().__init__(None, None, _Neutral(_LEVEL, level))
        self.binder = binder
        self.type = ty


class _Ctx(NamedTuple):
    """A typing context of values: `rho` binds each name in scope to its
    entry, and `levels` lists the entries by level."""

    rho: dict
    levels: tuple

    def extend(self, binder: str, ty) -> "_Ctx":
        """The context with `binder` bound to a new level of type `ty`."""
        entry = _Entry(binder, len(self.levels), ty)
        return _Ctx({**self.rho, binder: entry}, self.levels + (entry,))


_NO_CTX = _Ctx(_EMPTY, ())


def _context(env: GlobalEnv, ctx: Context) -> _Ctx:
    """The values of a term context: each entry's type is evaluated in the
    entries before it."""
    out = _NO_CTX
    for binder, ty in ctx:
        out = out.extend(binder, _eval(env, out.rho, ty))
    return out


def _level_names(ctx: _Ctx) -> list[str]:
    """The name each level of `ctx` reads back as: its binder's, or the
    first fresh name if the binder is `_` or a later level's binder has the
    same name.  So a type read back in a context given as terms names its
    entries as the caller does."""
    taken = {entry.binder for entry in ctx.levels}
    names: list[str] = []
    seen: set[str] = set()
    for entry in reversed(ctx.levels):
        name = entry.binder
        if name == "_" or name in seen:
            name = fresh_name(name, taken)
            taken.add(name)
        seen.add(entry.binder)
        names.append(name)
    names.reverse()
    return names


def _term(ctx: _Ctx, v) -> Term:
    """The term of the value `v`, whose levels are those of `ctx`: closures
    and thunks read back as their terms with their environments
    substituted."""
    memo: dict[_Thunk, Term] = {}
    names = _level_names(ctx)
    return _read_back(v, lambda rho, t: _substituted(rho, t, memo, names),
                      names)


def _reify(env: GlobalEnv, names: list[str], taken: set[str], v) -> Term:
    """The normal form of the value `v` as a term: level k reads back as
    `names[k]`, and each closure is opened at a new level, named as a level
    is for `taken`, the names of the levels in scope."""
    passed = []  # (node, its binder's name, its domain read back)
    while type(v) is _Closure:
        node = v.term
        dom, body = children(node)
        name = fresh_name(node.binder, taken)
        passed.append((node, name, _reify(env, names, taken,
                                          _eval(env, v.rho, dom))))
        level = _Thunk(None, None, _Neutral(_LEVEL, len(names)))
        names.append(name)
        taken.add(name)
        v = _eval(env, {**v.rho, node.binder: level}, body)

    def term_of(rho: dict, t: Term) -> Term:
        # A fix is opened like a closure; anything else is evaluated.
        u = _Closure(rho, t) if type(t) is Fix else _eval(env, rho, t)
        return _reify(env, names, taken, u)

    t = _read_back(v, term_of, names)
    for node, name, dom in reversed(passed):
        names.pop()
        taken.discard(name)
        t = rebuild_binder(node, name, dom, t)
    return t


def _is_prod(v) -> bool:
    return type(v) is _Closure and type(v.term) is Prod


def _open(env: GlobalEnv, pi: _Closure, th: _Thunk):
    """The codomain of the product `pi` with its binder bound to `th`."""
    prod = pi.term
    return _eval(env, {**pi.rho, prod.binder: th}, prod.codomain)


def _thunk(ctx: _Ctx, t: Term) -> _Thunk:
    """`t` in `ctx`, to be evaluated when needed."""
    return (type(t) is Var and ctx.rho.get(t.name)) or _Thunk(ctx.rho, t)


def infer(env: GlobalEnv, ctx: Context, t: Term,
          mode: EliminationMode = STAR) -> Term:
    """The principal type of `t`, with its head reduced."""
    c = _context(env, ctx)
    return _term(c, _unfold_head(env, _infer(env, c, t, mode)))


def check(env: GlobalEnv, ctx: Context, t: Term, expected: Term,
          mode: EliminationMode = STAR) -> None:
    """Check `t` against `expected` up to cumulativity."""
    c = _context(env, ctx)
    ty = _eval(env, c.rho, expected)
    if not _check(env, c, t, ty, mode):
        raise _mismatch(env, c, t, ty, mode, expected=expected)


def infer_sort(env: GlobalEnv, ctx: Context, t: Term,
               mode: EliminationMode = STAR) -> Sort:
    """The sort of the type `t`, or NotASort."""
    return _infer_sort(env, _context(env, ctx), t, mode)


def _infer_sort(env: GlobalEnv, ctx: _Ctx, t: Term,
                mode: EliminationMode) -> Sort:
    ty = _unfold_head(env, _infer(env, ctx, t, mode))
    if type(ty) is not Sort:
        raise TypeCheckError(ErrorKind.NOT_A_SORT, "expected a type", term=t,
                             actual=_term(ctx, ty))
    return ty


def _mismatch(env: GlobalEnv, ctx: _Ctx, t: Term, ty, mode: EliminationMode,
              message: str = "term does not have the expected type",
              term: Optional[Term] = None,
              expected: Optional[Term] = None) -> TypeCheckError:
    """The NotConvertible error of `t` failing to check against the type
    value `ty`, about `term` (by default `t`), with `t`'s inferred type as
    the actual one.  Inferring it raises the error, if any, that inferring
    `t` and comparing would have raised first."""
    return TypeCheckError(ErrorKind.NOT_CONVERTIBLE, message, term=term or t,
                          expected=expected or _term(ctx, ty),
                          actual=_term(ctx, _infer(env, ctx, t, mode)))


def _check(env: GlobalEnv, ctx: _Ctx, t: Term, ty, mode: EliminationMode,
           fields: int = 0, end=None) -> bool:
    """Whether `t` has the type value `ty`, up to cumulativity.  A Lam is
    checked against a product binder by binder: its annotation must be
    convertible with the domain, and its body is checked against the
    codomain at a new level.  That is what comparing the Lam's inferred
    product with `ty` decides.  Errors other than the mismatch are raised.

    With `end`, the type is instead made of the first `fields` binders of
    the product `ty`, a constructor's type past its parameters, and of
    `end(c, rest)` for the context `c` that binds them and the rest `rest`
    of `ty`.  Binders left when `t` runs out of Lams are compared with the
    products of its type."""
    actual = None  # the type of `t`, once it runs out of Lams
    while fields if end else type(t) is Lam:
        pi = _unfold_head(env, ty)
        if actual is None and type(t) is Lam and _is_prod(pi):
            _infer_sort(env, ctx, t.annotation, mode)
            binder, dom = t.binder, _eval(env, ctx.rho, t.annotation)
        elif end is None:
            break
        else:
            actual = _unfold_head(env, actual or _infer(env, ctx, t, mode))
            if not _is_prod(actual):
                return False
            binder = actual.term.binder
            dom = _eval(env, actual.rho, actual.term.domain)
        if not _conv(env, len(ctx.levels), dom,
                     _eval(env, pi.rho, pi.term.domain)):
            return False
        ctx = ctx.extend(binder, dom)
        ty = _open(env, pi, ctx.levels[-1])
        if actual is None:
            t = t.body
        else:
            actual = _open(env, actual, ctx.levels[-1])
        fields -= 1
    if end is not None:
        ty = end(ctx, ty)
        if actual is None:
            return _check(env, ctx, t, ty, mode)
    return _conv(env, len(ctx.levels), actual or _infer(env, ctx, t, mode),
                 ty, True)


def _infer(env: GlobalEnv, ctx: _Ctx, t: Term, mode: EliminationMode):
    """The type of `t` in `ctx`, as a value."""
    kind = type(t)
    if kind is Var:
        entry = ctx.rho.get(t.name)
        if entry is None:
            raise TypeCheckError(ErrorKind.UNBOUND_VARIABLE,
                                 f"unbound variable {t.name}", term=t)
        return entry.type
    if kind is App:
        return _infer_spine(env, ctx, t, mode)
    if kind is Ind or kind is Constr or kind is Const:
        g = _global(env, kind, t.name)
        if g is None:
            raise TypeCheckError(ErrorKind.UNBOUND_VARIABLE,
                                 f"unknown {_REFERENCE[kind][1]} {t.name}",
                                 term=t)
        return _force(env, g.type)
    if kind is SortT:
        return axiom_sort(t.sort)
    if kind is Prod:
        # A product telescope in one loop: the domains' sorts outermost
        # first, each in the context its outer binders extend, then the
        # codomain's; the product sorts fold from the codomain outward.
        sorts = []
        while type(t) is Prod:
            sorts.append(_infer_sort(env, ctx, t.domain, mode))
            ctx = ctx.extend(t.binder, _eval(env, ctx.rho, t.domain))
            t = t.codomain
        s = _infer_sort(env, ctx, t, mode)
        for sd in reversed(sorts):
            s = sort_of_product(sd, s)
        return s
    if kind is Lam:
        # A Lam telescope in one loop, and its product read back once, when
        # the body's type is known.
        outer = ctx
        domains = []
        while type(t) is Lam:
            _infer_sort(env, ctx, t.annotation, mode)
            domains.append(_eval(env, ctx.rho, t.annotation))
            ctx = ctx.extend(t.binder, domains[-1])
            t = t.body
        body = _infer(env, ctx, t, mode)
        names = _level_names(ctx)
        taken = set(names)
        ty = _reify(env, names, taken, body)
        for dom in reversed(domains):
            name = names.pop()
            taken.discard(name)
            ty = Prod(name, _reify(env, names, taken, dom), ty)
        return _Closure(dict(zip(names, outer.levels)), ty)
    if kind is Case:
        return _infer_case(env, ctx, t, mode)
    if kind is Fix:
        return _infer_fix(env, ctx, t, mode)
    raise TypeCheckError(ErrorKind.NOT_CONVERTIBLE, f"not a term: {t!r}")


def _infer_spine(env: GlobalEnv, ctx: _Ctx, t: App, mode: EliminationMode):
    """The type of an application: its head's type, inferred once, opened
    by one argument after another."""
    nodes: list[App] = []
    head = t
    while type(head) is App:
        nodes.append(head)
        head = head.fn
    ty = _infer(env, ctx, head, mode)
    for node in reversed(nodes):
        pi = _unfold_head(env, ty)
        if not _is_prod(pi):
            raise TypeCheckError(ErrorKind.NOT_A_FUNCTION,
                                 "application head is not a function",
                                 term=node.fn, actual=_term(ctx, pi))
        dom = _eval(env, pi.rho, pi.term.domain)
        if not _check(env, ctx, node.arg, dom, mode):
            raise _mismatch(env, ctx, node.arg, dom, mode,
                            "argument type mismatch", node)
        ty = _open(env, pi, _thunk(ctx, node.arg))
    return ty


def _infer_case(env: GlobalEnv, ctx: _Ctx, t: Case, mode: EliminationMode):
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

    scrut_ty = _unfold_head(env, _infer(env, ctx, t.scrutinee, mode))
    if not (type(scrut_ty) is _Neutral and scrut_ty.kind == _IND
            and scrut_ty.head == t.ind):
        raise TypeCheckError(ErrorKind.NOT_CONVERTIBLE,
                             f"scrutinee is not a {t.ind}",
                             term=t.scrutinee, actual=_term(ctx, scrut_ty))
    # Declared arities and constructor types are product telescopes.
    n_indices = len(strip_prods(decl.arity)[0]) - decl.params
    if len(scrut_ty.spine) != decl.params + n_indices:
        raise TypeCheckError(ErrorKind.ARITY_MISMATCH,
                             f"scrutinee type applies {t.ind} to "
                             f"{len(scrut_ty.spine)} arguments",
                             term=t.scrutinee, actual=_term(ctx, scrut_ty))
    params = [_thunk(ctx, p) for p in t.params]
    for p, given, actual in zip(t.params, params, scrut_ty.spine):
        actual = _force(env, actual)
        if not _conv(env, len(ctx.levels), _force(env, given), actual):
            raise TypeCheckError(ErrorKind.NOT_CONVERTIBLE,
                                 "case parameters disagree with the scrutinee",
                                 term=t, expected=p, actual=_term(ctx, actual))

    # The motive must take the indices, then the scrutinee, and land in a
    # sort.  The arity and the motive's type take one new level per index.
    arity = _force(env, _global(env, Ind, t.ind).type)
    for p in params:
        arity = _open(env, arity, p)
    motive_ty = _infer(env, ctx, t.motive, mode)
    mctx, indices = ctx, []
    for _ in range(n_indices):
        m = _unfold_head(env, motive_ty)
        if not _is_prod(m):
            raise TypeCheckError(ErrorKind.ARITY_MISMATCH,
                                 f"motive of case over {t.ind} takes too few "
                                 f"arguments", term=t.motive)
        expected = _eval(env, arity.rho, arity.term.domain)
        domain = _eval(env, m.rho, m.term.domain)
        if not _conv(env, len(mctx.levels), domain, expected):
            raise TypeCheckError(ErrorKind.NOT_CONVERTIBLE,
                                 "motive domain mismatch", term=t.motive,
                                 expected=_term(mctx, expected),
                                 actual=_term(mctx, domain))
        mctx = mctx.extend(arity.term.binder, expected)
        indices.append(mctx.levels[-1])
        arity = _open(env, arity, indices[-1])
        motive_ty = _open(env, m, indices[-1])
    m = _unfold_head(env, motive_ty)
    if not _is_prod(m):
        raise TypeCheckError(ErrorKind.ARITY_MISMATCH,
                             f"motive of case over {t.ind} must abstract the "
                             f"scrutinee", term=t.motive)
    expected = _Neutral(_IND, t.ind, (*params, *indices))
    domain = _eval(env, m.rho, m.term.domain)
    if not _conv(env, len(mctx.levels), domain, expected):
        raise TypeCheckError(ErrorKind.NOT_CONVERTIBLE,
                             "motive scrutinee domain mismatch", term=t.motive,
                             expected=_term(mctx, expected),
                             actual=_term(mctx, domain))
    scrutinee = _thunk(ctx, t.scrutinee)
    result = _unfold_head(env, _open(env, m, scrutinee))
    if type(result) is not Sort:
        raise TypeCheckError(ErrorKind.NOT_A_SORT,
                             "motive must land in a sort", term=t.motive,
                             actual=_term(mctx, result))
    if result.kind == "Type" and mode is STAR and not is_small(env, t.ind):
        raise TypeCheckError(ErrorKind.NON_SMALL_STRONG_ELIM,
                             f"strong elimination of non-small inductive "
                             f"{t.ind}", term=t)

    # Each branch takes its constructor's fields and returns the motive at
    # the constructor's indices and the constructor applied to the fields.
    motive = _eval(env, ctx.rho, t.motive)
    for (cname, cty), branch in zip(decl.constructors, t.branches):
        ty = _force(env, _global(env, Constr, cname).type)
        for p in params:
            ty = _open(env, ty, p)

        def end(fctx: _Ctx, concl: _Neutral):
            con = _Neutral(_CONSTR, cname,
                           (*params, *fctx.levels[len(ctx.levels):]))
            return _apply_spine(env, motive, [*concl.spine[decl.params:],
                                              _Thunk(None, None, con)])

        fields = len(strip_prods(cty)[0]) - decl.params
        if not _check(env, ctx, branch, ty, mode, fields, end):
            raise _mismatch(env, ctx, branch, ty, mode, expected=_branch_type(
                env, ctx, ty, fields, end))

    return _apply_spine(env, motive, [*scrut_ty.spine[decl.params:],
                                      scrutinee])


def _branch_type(env: GlobalEnv, ctx: _Ctx, ty: _Closure, fields: int,
                 end) -> Term:
    """The term of the type `_check` checks against with `fields` and
    `end`."""
    k, domains = len(ctx.levels), []
    for _ in range(fields):
        domains.append(_eval(env, ty.rho, ty.term.domain))
        ctx = ctx.extend(ty.term.binder, domains[-1])
        ty = _open(env, ty, ctx.levels[-1])
    return prods([(name, _term(ctx, d)) for name, d
                  in zip(_level_names(ctx)[k:], domains)],
                 _term(ctx, end(ctx, ty)))


def _infer_fix(env: GlobalEnv, ctx: _Ctx, t: Fix, mode: EliminationMode):
    _infer_sort(env, ctx, t.annotation, mode)
    annotation = _eval(env, ctx.rho, t.annotation)
    # The decreasing argument must exist and be of inductive type.
    ty, fctx = annotation, ctx
    for _ in range(t.decreasing):
        pi = _unfold_head(env, ty)
        if not _is_prod(pi):
            break
        fctx = fctx.extend(pi.term.binder, _eval(env, pi.rho, pi.term.domain))
        ty = _open(env, pi, fctx.levels[-1])
    pi = _unfold_head(env, ty)
    if not _is_prod(pi):
        raise TypeCheckError(ErrorKind.GUARD_VIOLATION,
                             f"fix type has no argument {t.decreasing}",
                             term=t)
    domain = _eval(env, pi.rho, pi.term.domain)
    d = _unfold_head(env, domain)
    if not (type(d) is _Neutral and d.kind == _IND):
        raise TypeCheckError(ErrorKind.GUARD_VIOLATION,
                             "decreasing argument is not of inductive type",
                             term=t, actual=_term(fctx, domain))
    ctx = ctx.extend(t.binder, annotation)
    if not _check(env, ctx, t.body, annotation, mode):
        raise _mismatch(env, ctx, t.body, annotation, mode)
    check_guard(env, t)
    return annotation


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

    # A bare `f` is a call with no arguments, caught above.
    kind = type(t)
    if kind is Prod or kind is Lam or kind is Fix:
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
    for _, cty in decl.constructors:
        ctx = _NO_CTX
        for i, (binder, dom) in enumerate(strip_prods(cty)[0]):
            if (i >= decl.params
                    and _infer_sort(env, ctx, dom, STAR).kind == "Type"):
                return False
            ctx = ctx.extend(binder, _eval(env, ctx.rho, dom))
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
    _infer_sort(env, _NO_CTX, decl.arity, mode)
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
        _infer_sort(env2, _NO_CTX, cty, mode)

        # The parameter prefix must match the arity's, up to alpha: the
        # constructor's parameter binders are read as the arity's.
        binders, _ = strip_prods(cty)
        for i, (pname, pty) in enumerate(param_binders):
            if i == len(binders):
                raise bad(f"constructor {cname} is missing parameter binders",
                          term=cty)
            if not alpha_eq(prods(binders[:i + 1], arity_core),
                            prods(param_binders[:i + 1], arity_core)):
                raise bad(f"constructor {cname} disagrees with the arity on "
                          f"parameter {pname}", term=cty,
                          expected=pty, actual=binders[i][1])
        ctx, t = _NO_CTX, cty
        for _ in param_binders:
            ctx = ctx.extend(t.binder, _eval(env2, ctx.rho, t.domain))
            t = t.codomain

        # Size: the post-parameter part must fit the declared sort.
        s_con = _infer_sort(env2, ctx, t, mode)
        if not subsort(s_con, ind_sort):
            raise bad(f"constructor {cname} lives in {s_con}, which exceeds "
                      f"{ind_sort}", term=cty)

        # Shape: fields, then the inductive applied to the parameters,
        # in order, followed by index terms.
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
        for fname, fty in fields:
            ctx = ctx.extend(fname, _eval(env2, ctx.rho, fty))
        for level, arg in enumerate(args[:decl.params]):
            v = _eval(env2, ctx.rho, arg)
            if not (type(v) is _Neutral and v.kind == _LEVEL
                    and v.head == level and not v.spine):
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
