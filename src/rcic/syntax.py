"""Core term language: sorts, terms, declarations, contexts.

A Var is a bound or context variable, never a global.  A Const refers to a
global definition, as Ind and Constr refer to inductives and constructors.
The node kind alone tells a global from a local: `free_vars` lists Vars
only, and a binder may share a global's name (only the printer renames it).

Terms use named binders.  Substitution is capture-avoiding and
simultaneous: `subst_all` applies a map from names to values in one pass,
and `subst` is its one-entry case.  A binder that would capture is renamed
by one more entry of the map, never by another pass (`under_binder`); the
kernel's beta read-back renames by the same rule.  alpha_eq compares
terms up to consistent renaming of bound names.

Sorts, term nodes and declarations are immutable records (`_Record`):
plain classes that compare, hash and print by their fields as frozen
dataclasses would, without importing `dataclasses`.  A term node keeps
two lazily filled caches in slots, which equality, hashing and repr do
not see: its free variables (`free_vars`) and the globals it mentions
(`global_names`, which the printer asks before renaming a binder).
GlobalEnv is the one mutable value: checked declarations and what is
derived from them.

Which subterms each node kind has, and in what order, is known only in
this module.  Walks that treat most kinds alike go through three helpers
and keep arms only for the kinds with a rule of their own (a Var, a
binder that renames or scopes, a redex): `children` lists a node's
immediate subterms in field order, `map_children` rebuilds a node from its
mapped children (returning the node itself when none changed), and
`subterms` yields every node in preorder without recursing.
`rebuild_binder` remakes a Prod, Lam or Fix under a new binder name.
In this module `free_vars`, `subst_all` and `alpha_eq` are built on them:
each has one arm for Var, one shared by Prod, Lam and Fix, and reaches
the children of every other kind through `children` or `map_children`.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterator, Optional, Union


class UniverseError(ValueError):
    """A sort outside the legal hierarchy (e.g. Type0 or a negative level)."""


# Assigns a field of a record, which plain assignment refuses.
_set = object.__setattr__


class _Record:
    """Base of the immutable records: sorts, term nodes and declarations.

    A subclass lists its fields, in order, in `__match_args__` (which
    positional class patterns use) and assigns each in `__init__` through
    `_set`.  Records compare equal when they are of the same class and
    their fields are equal, hash their fields, and print as
    `App(fn=Var(name='x'), arg=...)`.  Assigning or deleting an attribute
    raises.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if cls.__match_args__:
            cls._key = attrgetter(*cls.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}"
                           for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Sort(_Record):
    """A sort: Prop, Set at level >= 0, or Type at level >= 1."""

    __match_args__ = ("kind", "level")

    def __init__(self, kind: str, level: Optional[int] = None) -> None:
        if kind == "Prop":
            if level is not None:
                raise UniverseError("Prop carries no level")
        elif kind == "Set":
            if level is None or level < 0:
                raise UniverseError(f"Set needs a level >= 0, got {level}")
        elif kind == "Type":
            if level is None or level < 1:
                raise UniverseError(f"Type needs a level >= 1, got {level}")
        else:
            raise UniverseError(f"unknown sort kind {kind!r}")
        _set(self, "kind", kind)
        _set(self, "level", level)

    def __str__(self) -> str:
        return self.kind if self.level is None else f"{self.kind}{self.level}"


PROP = Sort("Prop")


def set_sort(level: int) -> Sort:
    return Sort("Set", level)


def type_sort(level: int) -> Sort:
    return Sort("Type", level)


class Term(_Record):
    """Base class for term nodes.

    A node keeps its fields in its instance dict, where they read faster
    than from slots, and two caches in slots, which equality, hashing and
    repr do not see: its free Vars (`_fv`, see `free_vars`) and the globals
    it mentions (`_gn`, see `global_names`).

    A node kind defined outside this module (the frontend's RawMatch)
    provides `children()` and `binders()`, the names it binds, so that
    `children`, `subterms` and `names` walk through it.
    """

    __slots__ = ("_fv", "_gn")


class Var(Term):
    """A bound or context variable.  Never a reference to a global."""

    __match_args__ = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)


class Const(Term):
    """A reference to a global definition."""

    __match_args__ = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)


class SortT(Term):
    """A sort used as a term."""

    __match_args__ = ("sort",)

    def __init__(self, sort: Sort) -> None:
        _set(self, "sort", sort)


class Prod(Term):
    """Dependent product `forall (binder : domain), codomain`."""

    __match_args__ = ("binder", "domain", "codomain")

    def __init__(self, binder: str, domain: Term, codomain: Term) -> None:
        _set(self, "binder", binder)
        _set(self, "domain", domain)
        _set(self, "codomain", codomain)


class Lam(Term):
    """Abstraction `fun (binder : annotation) => body`."""

    __match_args__ = ("binder", "annotation", "body")

    def __init__(self, binder: str, annotation: Term, body: Term) -> None:
        _set(self, "binder", binder)
        _set(self, "annotation", annotation)
        _set(self, "body", body)


class App(Term):
    __match_args__ = ("fn", "arg")

    def __init__(self, fn: Term, arg: Term) -> None:
        _set(self, "fn", fn)
        _set(self, "arg", arg)


class Ind(Term):
    """A reference to a declared inductive type."""

    __match_args__ = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)


class Constr(Term):
    """A reference to a declared constructor."""

    __match_args__ = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)


class Case(Term):
    """Case analysis over an inductive.

    `params` instantiates the inductive's parameters (exactly as many as the
    declaration has), `motive` is a function over the indices and the
    scrutinee, and `branches` holds one function per constructor, in
    declaration order, each expecting that constructor's non-parameter
    arguments.
    """

    __match_args__ = ("ind", "scrutinee", "params", "motive", "branches")

    def __init__(self, ind: str, scrutinee: Term, params: tuple[Term, ...],
                 motive: Term, branches: tuple[Term, ...]) -> None:
        _set(self, "ind", ind)
        _set(self, "scrutinee", scrutinee)
        _set(self, "params", params)
        _set(self, "motive", motive)
        _set(self, "branches", branches)


class Fix(Term):
    """Structural fixpoint.

    `annotation` is the recursive function's type, `body` its definition with
    `binder` in scope, and `decreasing` the 0-based position of the argument
    that must shrink at every recursive call.
    """

    __match_args__ = ("binder", "annotation", "body", "decreasing")

    def __init__(self, binder: str, annotation: Term, body: Term,
                 decreasing: int) -> None:
        _set(self, "binder", binder)
        _set(self, "annotation", annotation)
        _set(self, "body", body)
        _set(self, "decreasing", decreasing)


class InductiveDecl(_Record):
    """An inductive type: name, parameter count, arity, constructors.

    The arity is the full type of the inductive; its first `params` binders
    are the parameters.  Constructor types have no free Var (they may mention
    globals) and start with the same parameter binders.
    """

    __match_args__ = ("name", "params", "arity", "constructors")

    def __init__(self, name: str, params: int, arity: Term,
                 constructors: tuple[tuple[str, Term], ...]) -> None:
        _set(self, "name", name)
        _set(self, "params", params)
        _set(self, "arity", arity)
        _set(self, "constructors", constructors)


class Definition(_Record):
    """A transparent global definition."""

    __match_args__ = ("name", "type", "body")

    def __init__(self, name: str, type: Term, body: Term) -> None:
        _set(self, "name", name)
        _set(self, "type", type)
        _set(self, "body", body)


# ---------------------------------------------------------------------------
# Term construction helpers


def app(fn: Term, *args: Term) -> Term:
    for a in args:
        fn = App(fn, a)
    return fn


def arrow(domain: Term, codomain: Term) -> Term:
    return Prod("_", domain, codomain)


def prods(binders: list[tuple[str, Term]], body: Term) -> Term:
    for name, ty in reversed(binders):
        body = Prod(name, ty, body)
    return body


def lams(binders: list[tuple[str, Term]], body: Term) -> Term:
    for name, ty in reversed(binders):
        body = Lam(name, ty, body)
    return body


def unfold_app(t: Term) -> tuple[Term, list[Term]]:
    """Split a term into its application head and argument list."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def strip_prods(t: Term) -> tuple[list[tuple[str, Term]], Term]:
    """Split leading products off a term, syntactically."""
    binders: list[tuple[str, Term]] = []
    while isinstance(t, Prod):
        binders.append((t.binder, t.domain))
        t = t.codomain
    return binders, t


def strip_lams(t: Term) -> tuple[list[tuple[str, Term]], Term]:
    binders: list[tuple[str, Term]] = []
    while isinstance(t, Lam):
        binders.append((t.binder, t.annotation))
        t = t.body
    return binders, t


# ---------------------------------------------------------------------------
# Traversal


# The helpers below run once per node of nearly every walk, so they test
# the node's exact type rather than matching class patterns, which costs
# an isinstance check per pattern tried.
_LEAVES = frozenset((Var, Const, SortT, Ind, Constr))
_KINDS = _LEAVES | {App, Prod, Lam, Case, Fix}


def children(t: Term) -> tuple[Term, ...]:
    """The immediate subterms of `t`, in field order."""
    kind = type(t)
    if kind is App:
        return t.fn, t.arg
    if kind is Lam or kind is Fix:
        return t.annotation, t.body
    if kind is Prod:
        return t.domain, t.codomain
    if kind is Case:
        return t.scrutinee, *t.params, t.motive, *t.branches
    if kind in _LEAVES:
        return ()
    if isinstance(t, Term):
        return t.children()
    raise TypeError(f"not a term: {t!r}")


def rebuild_binder(t: Prod | Lam | Fix, binder: str, dom: Term,
                   body: Term) -> Term:
    """A node of `t`'s kind (with a Fix's decreasing index) binding `binder`
    over `body`, with `dom` as its domain or annotation."""
    if type(t) is Fix:
        return Fix(binder, dom, body, t.decreasing)
    return type(t)(binder, dom, body)


def map_children(t: Term, f: Callable[[Term], Term]) -> Term:
    """`t` with `f` applied to each child in field order; `t` itself when
    every child comes back as the same object."""
    kind = type(t)
    if kind is App:
        fn2 = f(t.fn)
        arg2 = f(t.arg)
        if fn2 is t.fn and arg2 is t.arg:
            return t
        return App(fn2, arg2)
    if kind is Lam or kind is Prod or kind is Fix:
        dom, body = children(t)
        dom2 = f(dom)
        body2 = f(body)
        if dom2 is dom and body2 is body:
            return t
        return rebuild_binder(t, t.binder, dom2, body2)
    if kind is Case:
        scrutinee2 = f(t.scrutinee)
        params2 = tuple(f(p) for p in t.params)
        motive2 = f(t.motive)
        branches2 = tuple(f(b) for b in t.branches)
        if (scrutinee2 is t.scrutinee and motive2 is t.motive
                and all(x is y for x, y in zip(params2, t.params))
                and all(x is y for x, y in zip(branches2, t.branches))):
            return t
        return Case(t.ind, scrutinee2, params2, motive2, branches2)
    if kind in _LEAVES:
        return t
    raise TypeError(f"not a term: {t!r}")


def subterms(t: Term) -> Iterator[Term]:
    """Every node of `t`, `t` first, in preorder.  The walk keeps its own
    stack, so nesting depth is not limited by the interpreter's."""
    stack = [t]
    while stack:
        u = stack.pop()
        yield u
        kids = children(u)
        if kids:
            stack.extend(reversed(kids))


def names(t: Term) -> set[str]:
    """Every name `t` uses: its Vars and Consts, bound or free, and the
    names its binders bind, except `_`."""
    out: set[str] = set()
    for u in subterms(t):
        kind = type(u)
        if kind is Var or kind is Const:
            out.add(u.name)
        elif kind is Lam or kind is Prod or kind is Fix:
            out.add(u.binder)
        elif kind not in _KINDS:
            out.update(u.binders())
    out.discard("_")
    return out


# ---------------------------------------------------------------------------
# Binding operations


# Each node's free-variable set is computed once and kept in its `_fv`
# slot, as the set of global names below it is in its `_gn` slot.  Where a
# node's set equals a child's, the child's frozenset object is reused, and
# each one-name set is made once, which keeps the caches small.
_NO_NAMES: frozenset[str] = frozenset()
_ONE_NAME: dict[str, frozenset[str]] = {}


def _singleton(name: str) -> frozenset[str]:
    s = _ONE_NAME.get(name)
    if s is None:
        s = _ONE_NAME[name] = frozenset((name,))
    return s


def free_vars(t: Term) -> frozenset[str]:
    """The names of `t`'s free Vars, which a binder around `t` must not
    capture; a global (Const, Ind, Constr) is no Var, so it has none."""
    fv = getattr(t, "_fv", None)
    if fv is not None:
        return fv
    kind = type(t)
    if kind is Var:
        fv = _singleton(t.name)
    elif kind is App:
        fv = _union(free_vars(t.fn), free_vars(t.arg))
    elif kind is Prod or kind is Lam or kind is Fix:
        dom, body = children(t)
        fv = _union(free_vars(dom), _minus(free_vars(body), t.binder))
    else:
        fv = _NO_NAMES
        for c in children(t):
            fv = _union(fv, free_vars(c))
    _set(t, "_fv", fv)
    return fv


def global_names(t: Term) -> frozenset[str]:
    """The names of the globals `t` mentions: its Const, Ind and Constr
    nodes."""
    gn = getattr(t, "_gn", None)
    if gn is not None:
        return gn
    kind = type(t)
    if kind is Const or kind is Ind or kind is Constr:
        gn = _singleton(t.name)
    else:
        gn = _NO_NAMES
        for c in children(t):
            gn = _union(gn, global_names(c))
    _set(t, "_gn", gn)
    return gn


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    """a | b, returning `a` or `b` itself when it already is the union."""
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def _minus(s: frozenset[str], name: str) -> frozenset[str]:
    return s - {name} if name in s else s


def fresh_name(base: str, avoid: frozenset[str] | set[str],
               start: int = 0) -> str:
    """The first of base, base1, base2, ... not in `avoid`, probing from
    base{start} on (base0 is base itself) when the caller knows that the
    names before it are in `avoid`.  A `_` base becomes `x`."""
    if base == "_":
        base = "x"
    if start == 0:
        if base not in avoid:
            return base
        start = 1
    i = start
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


PRIME_SUFFIX = "'"
WITNESS_SUFFIX = "_R"


def is_reserved(name: str) -> bool:
    """Whether `name` ends like the translation's copies and witnesses."""
    return name.endswith((PRIME_SUFFIX, WITNESS_SUFFIX))


def subst(t: Term, name: str, value: Term) -> Term:
    """Capture-avoiding substitution of `value` for free `name` in `t`:
    `subst_all` with a one-entry map."""
    return _subst_all(t, {name: value})


def subst_all(t: Term, sub: dict[str, Term]) -> Term:
    """Capture-avoiding simultaneous substitution: every free Var of `t`
    named by a key of `sub` is replaced by that key's value, in one pass.
    The values are not substituted into, so `{x: y, y: x}` swaps.  A binder
    is renamed only where it would capture (see `under_binder`)."""
    return _subst_all(t, sub) if sub else t


def _subst_all(t: Term, sub: dict[str, Term]) -> Term:
    if free_vars(t).isdisjoint(sub):
        return t
    kind = type(t)
    if kind is Var:
        return sub[t.name]
    if kind is App:
        return App(_subst_all(t.fn, sub), _subst_all(t.arg, sub))
    if kind is Lam or kind is Prod or kind is Fix:
        dom, body = children(t)
        binder, inner = under_binder(t.binder, body, sub)
        return rebuild_binder(t, binder, _subst_all(dom, sub),
                              _subst_all(body, inner) if inner else body)
    return map_children(t, lambda c: _subst_all(c, sub))


def open_prods(ty: Term, params: list[Term],
               names: list[str]) -> list[tuple[str, Term]]:
    """The binders of the product telescope `ty` after the first
    `len(params)`, named `names`: each domain with the binders before it
    replaced by the parameters and the Vars of the names, by one pending
    simultaneous substitution."""
    sub: dict[str, Term] = {}
    for p in params:
        sub[ty.binder] = p
        ty = ty.codomain
    binders = []
    for name in names:
        binders.append((name, subst_all(ty.domain, sub)))
        sub[ty.binder] = Var(name)
        ty = ty.codomain
    return binders


def under_binder(binder: str, body: Term, sub: dict[str, Term],
                 ) -> tuple[str, dict[str, Term]]:
    """The binder rule of `subst_all`: the name a binder over `body` takes
    when `sub` is applied below it, and the map for `body`.

    The map keeps only the entries live in `body` and drops the binder's
    own.  If the binder occurs free in a live value it would capture it,
    so it is renamed to the first fresh name outside `body`'s free names,
    the live keys and the live values' free names, and the renaming is
    one more entry of the map, not another pass.  An empty map means the
    body is left as it is.
    """
    fv_body = free_vars(body)
    live = {k: v for k, v in sub.items() if k in fv_body and k != binder}
    if live and any(binder in free_vars(v) for v in live.values()):
        avoid = fv_body.union(live, *(free_vars(v) for v in live.values()))
        fresh = fresh_name(binder, avoid)
        live[binder] = Var(fresh)
        return fresh, live
    return binder, live


def alpha_eq(a: Term, b: Term) -> bool:
    """Structural equality up to consistent renaming of bound names."""
    return _alpha(a, b, {}, {}, 0)


def _alpha(a: Term, b: Term, env_a: dict[str, int], env_b: dict[str, int],
           depth: int) -> bool:
    kind = type(a)
    if kind is not type(b):
        return False
    if kind is Var:
        return env_a.get(a.name, a.name) == env_b.get(b.name, b.name)
    if kind is Prod or kind is Lam or kind is Fix:
        if kind is Fix and a.decreasing != b.decreasing:
            return False
        dom_a, body_a = children(a)
        dom_b, body_b = children(b)
        return (_alpha(dom_a, dom_b, env_a, env_b, depth)
                and _alpha(body_a, body_b, {**env_a, a.binder: depth},
                           {**env_b, b.binder: depth}, depth + 1))
    if kind is App or kind is Case:
        if kind is Case and (a.ind != b.ind
                             or len(a.params) != len(b.params)):
            return False
        kids_a, kids_b = children(a), children(b)
        if len(kids_a) != len(kids_b):
            return False
        for x, y in zip(kids_a, kids_b):
            if not _alpha(x, y, env_a, env_b, depth):
                return False
        return True
    return a == b


# ---------------------------------------------------------------------------
# Contexts and the global environment


class Context:
    """An ordered typing context.  Lookup returns the innermost binding."""

    __slots__ = ("_entries",)

    def __init__(self, entries: tuple[tuple[str, Term], ...] = ()) -> None:
        self._entries = tuple(entries)

    def extend(self, name: str, ty: Term) -> "Context":
        return Context(self._entries + ((name, ty),))

    def lookup(self, name: str) -> Optional[Term]:
        for n, ty in reversed(self._entries):
            if n == name:
                return ty
        return None

    def names(self) -> frozenset[str]:
        return frozenset(n for n, _ in self._entries)

    def __iter__(self) -> Iterator[tuple[str, Term]]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Context({self._entries!r})"


GlobalEntry = Union[InductiveDecl, Definition]


class DuplicateNameError(ValueError):
    """A global name was declared twice."""

    def __init__(self, name: str):
        super().__init__(f"{name} is already declared")


class GlobalEnv:
    """Append-only map of declared globals, keyed by name.

    Constructor names are registered alongside their inductive so both kinds
    of reference resolve in one place.  Entries are only added through the
    kernel's declare functions, after checking.  A name whose declaration
    failed can be recorded with its error, so that it is not checked again.
    It also keeps, by name from first use, the node a name refers to
    (`reference`) and the kernel's values of each global (`values`).
    """

    __slots__ = ("_entries", "_constructors", "_failed", "_references",
                 "values")

    def __init__(self) -> None:
        self._entries: dict[str, GlobalEntry] = {}
        # Each constructor name's declaring inductive and position in it.
        self._constructors: dict[str, tuple[InductiveDecl, int]] = {}
        self._failed: dict[str, Exception] = {}
        self._references: dict[str, Term] = {}
        self.values: dict[str, object] = {}  # read and filled by the kernel

    def inductive(self, name: str) -> Optional[InductiveDecl]:
        entry = self._entries.get(name)
        return entry if isinstance(entry, InductiveDecl) else None

    def definition(self, name: str) -> Optional[Definition]:
        entry = self._entries.get(name)
        return entry if isinstance(entry, Definition) else None

    def constructor(self, name: str) -> Optional[tuple[InductiveDecl, int]]:
        """The declaring inductive and position of a constructor name."""
        return self._constructors.get(name)

    def reference(self, name: str) -> Optional[Term]:
        """The one node that refers to the global `name`: a Const, Ind or
        Constr; None if `name` is not declared."""
        ref = self._references.get(name)
        if ref is None and self.taken(name):
            entry = self._entries.get(name)
            kind = (Const if isinstance(entry, Definition)
                    else Constr if entry is None else Ind)
            ref = self._references[name] = kind(name)
        return ref

    def names(self) -> list[str]:
        return list(self._entries)

    def taken(self, name: str) -> bool:
        return name in self._entries or name in self._constructors

    def add_inductive(self, decl: InductiveDecl) -> None:
        if self.taken(decl.name):
            raise DuplicateNameError(decl.name)
        for cname, _ in decl.constructors:
            if self.taken(cname) or cname == decl.name:
                raise DuplicateNameError(cname)
        self._entries[decl.name] = decl
        for i, (cname, _) in enumerate(decl.constructors):
            self._constructors[cname] = decl, i

    def failure(self, name: str) -> Optional[Exception]:
        """The error that declaring `name` raised, if it was recorded."""
        return self._failed.get(name)

    def record_failure(self, name: str, err: Exception) -> None:
        self._failed[name] = err

    def add_definition(self, defn: Definition) -> None:
        if self.taken(defn.name):
            raise DuplicateNameError(defn.name)
        self._entries[defn.name] = defn

    def with_provisional(self, decl: InductiveDecl) -> "GlobalEnv":
        """A copy with `decl` visible but its constructors unregistered.

        Used while elaborating and checking the declaration itself: the
        type name must resolve, the constructors must not yet (nor those of
        an inductive of the same name that `decl` hides).
        """
        out = GlobalEnv()
        out._entries = dict(self._entries)
        out._constructors = {c: owner for c, owner in self._constructors.items()
                             if owner[0].name != decl.name}
        out._entries[decl.name] = decl
        out._failed = self._failed
        return out
