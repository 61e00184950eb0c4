"""Core term language: sorts, terms, declarations, contexts.

Terms use named binders.  Substitution is capture-avoiding and renames
binders on demand; alpha_eq compares terms up to consistent renaming of
bound names.  Term nodes are immutable and must never be mutated: each
carries a lazily filled cache of its free variables, which equality,
hashing and repr do not see.  GlobalEnv is the one mutable value, an
append-only map of checked declarations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union


class UniverseError(ValueError):
    """A sort outside the legal hierarchy (e.g. Type0 or a negative level)."""


@dataclass(frozen=True)
class Sort:
    """A sort: Prop, Set at level >= 0, or Type at level >= 1."""

    kind: str
    level: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind == "Prop":
            if self.level is not None:
                raise UniverseError("Prop carries no level")
        elif self.kind == "Set":
            if self.level is None or self.level < 0:
                raise UniverseError(f"Set needs a level >= 0, got {self.level}")
        elif self.kind == "Type":
            if self.level is None or self.level < 1:
                raise UniverseError(f"Type needs a level >= 1, got {self.level}")
        else:
            raise UniverseError(f"unknown sort kind {self.kind!r}")

    def __str__(self) -> str:
        return self.kind if self.level is None else f"{self.kind}{self.level}"


PROP = Sort("Prop")


def set_sort(level: int) -> Sort:
    return Sort("Set", level)


def type_sort(level: int) -> Sort:
    return Sort("Type", level)


class Term:
    """Base class for term nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    """A variable, or a reference to a defined global."""

    name: str


@dataclass(frozen=True)
class SortT(Term):
    """A sort used as a term."""

    sort: Sort


@dataclass(frozen=True)
class Prod(Term):
    """Dependent product `forall (binder : domain), codomain`."""

    binder: str
    domain: Term
    codomain: Term


@dataclass(frozen=True)
class Lam(Term):
    """Abstraction `fun (binder : annotation) => body`."""

    binder: str
    annotation: Term
    body: Term


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True)
class Ind(Term):
    """A reference to a declared inductive type."""

    name: str


@dataclass(frozen=True)
class Constr(Term):
    """A reference to a declared constructor."""

    name: str


@dataclass(frozen=True)
class Case(Term):
    """Case analysis over an inductive.

    `params` instantiates the inductive's parameters (exactly as many as the
    declaration has), `motive` is a function over the indices and the
    scrutinee, and `branches` holds one function per constructor, in
    declaration order, each expecting that constructor's non-parameter
    arguments.
    """

    ind: str
    scrutinee: Term
    params: tuple[Term, ...]
    motive: Term
    branches: tuple[Term, ...]


@dataclass(frozen=True)
class Fix(Term):
    """Structural fixpoint.

    `annotation` is the recursive function's type, `body` its definition with
    `binder` in scope, and `decreasing` the 0-based position of the argument
    that must shrink at every recursive call.
    """

    binder: str
    annotation: Term
    body: Term
    decreasing: int


@dataclass(frozen=True)
class InductiveDecl:
    """An inductive type: name, parameter count, arity, constructors.

    The arity is the full type of the inductive; its first `params` binders
    are the parameters.  Constructor types are closed and start with the same
    parameter binders.
    """

    name: str
    params: int
    arity: Term
    constructors: tuple[tuple[str, Term], ...]


@dataclass(frozen=True)
class Definition:
    """A transparent global definition."""

    name: str
    type: Term
    body: Term


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
# Binding operations


# Each node's free-variable set is computed once and kept in the node's
# instance dict under this key.  It is not a dataclass field, so equality,
# hashing and repr never see it.  Where a node's set equals a child's, the
# child's frozenset object is reused, which keeps the cache small.
_FV = "_fv"
_NO_FV: frozenset[str] = frozenset()
_VAR_FV: dict[str, frozenset[str]] = {}


def free_vars(t: Term) -> frozenset[str]:
    fv = t.__dict__.get(_FV)
    if fv is None:
        fv = _free_vars(t)
        t.__dict__[_FV] = fv
    return fv


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    """a | b, returning `a` or `b` itself when it already is the union."""
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def _minus(s: frozenset[str], name: str) -> frozenset[str]:
    return s - {name} if name in s else s


def _free_vars(t: Term) -> frozenset[str]:
    match t:
        case Var(name):
            fv = _VAR_FV.get(name)
            if fv is None:
                fv = _VAR_FV[name] = frozenset((name,))
            return fv
        case SortT() | Ind() | Constr():
            return _NO_FV
        case App(fn, arg):
            return _union(free_vars(fn), free_vars(arg))
        case Prod(binder, domain, codomain):
            return _union(free_vars(domain), _minus(free_vars(codomain), binder))
        case Lam(binder, annotation, body):
            return _union(free_vars(annotation), _minus(free_vars(body), binder))
        case Case(_, scrutinee, params, motive, branches):
            out = _union(free_vars(scrutinee), free_vars(motive))
            for p in params:
                out = _union(out, free_vars(p))
            for b in branches:
                out = _union(out, free_vars(b))
            return out
        case Fix(binder, annotation, body, _):
            return _union(free_vars(annotation), _minus(free_vars(body), binder))
    raise TypeError(f"not a term: {t!r}")


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    """The first of base, base1, base2, ... not in `avoid`."""
    if base == "_":
        base = "x"
    if base not in avoid:
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


def subst(t: Term, name: str, value: Term) -> Term:
    """Capture-avoiding substitution of `value` for free `name` in `t`."""
    return _subst(t, name, value, free_vars(value))


def _subst(t: Term, name: str, value: Term, fv_value: frozenset[str]) -> Term:
    if name not in free_vars(t):
        return t
    match t:
        case Var():
            return value
        case App(fn, arg):
            return App(_subst(fn, name, value, fv_value),
                       _subst(arg, name, value, fv_value))
        case Prod(binder, domain, codomain):
            domain2 = _subst(domain, name, value, fv_value)
            binder2, codomain2 = _subst_under(binder, codomain, name, value, fv_value)
            return Prod(binder2, domain2, codomain2)
        case Lam(binder, annotation, body):
            annotation2 = _subst(annotation, name, value, fv_value)
            binder2, body2 = _subst_under(binder, body, name, value, fv_value)
            return Lam(binder2, annotation2, body2)
        case Case(ind, scrutinee, params, motive, branches):
            return Case(
                ind,
                _subst(scrutinee, name, value, fv_value),
                tuple(_subst(p, name, value, fv_value) for p in params),
                _subst(motive, name, value, fv_value),
                tuple(_subst(b, name, value, fv_value) for b in branches),
            )
        case Fix(binder, annotation, body, decreasing):
            annotation2 = _subst(annotation, name, value, fv_value)
            binder2, body2 = _subst_under(binder, body, name, value, fv_value)
            return Fix(binder2, annotation2, body2, decreasing)
    raise TypeError(f"not a term: {t!r}")


def _subst_under(binder: str, body: Term, name: str, value: Term,
                 fv_value: frozenset[str]) -> tuple[str, Term]:
    """Substitute below a binder, renaming it if it would capture."""
    if binder == name:
        return binder, body
    if binder in fv_value and name in free_vars(body):
        fresh = fresh_name(binder, fv_value | free_vars(body) | {name})
        body = _subst(body, binder, Var(fresh), frozenset((fresh,)))
        return fresh, _subst(body, name, value, fv_value)
    return binder, _subst(body, name, value, fv_value)


def alpha_eq(a: Term, b: Term) -> bool:
    """Structural equality up to consistent renaming of bound names."""
    return _alpha(a, b, {}, {}, 0)


def _alpha(a: Term, b: Term, env_a: dict[str, int], env_b: dict[str, int],
           depth: int) -> bool:
    if type(a) is not type(b):
        return False
    match a, b:
        case Var(na), Var(nb):
            return env_a.get(na, na) == env_b.get(nb, nb)
        case SortT(sa), SortT(sb):
            return sa == sb
        case Ind(na), Ind(nb):
            return na == nb
        case Constr(na), Constr(nb):
            return na == nb
        case App(fa, aa), App(fb, ab):
            return (_alpha(fa, fb, env_a, env_b, depth)
                    and _alpha(aa, ab, env_a, env_b, depth))
        case Prod(xa, da, ca), Prod(xb, db, cb):
            return (_alpha(da, db, env_a, env_b, depth)
                    and _alpha(ca, cb, {**env_a, xa: depth},
                               {**env_b, xb: depth}, depth + 1))
        case Lam(xa, ta, ba), Lam(xb, tb, bb):
            return (_alpha(ta, tb, env_a, env_b, depth)
                    and _alpha(ba, bb, {**env_a, xa: depth},
                               {**env_b, xb: depth}, depth + 1))
        case Case(ia, sa, pa, ma, bra), Case(ib, sb, pb, mb, brb):
            if ia != ib or len(pa) != len(pb) or len(bra) != len(brb):
                return False
            if not _alpha(sa, sb, env_a, env_b, depth):
                return False
            if not all(_alpha(x, y, env_a, env_b, depth) for x, y in zip(pa, pb)):
                return False
            if not _alpha(ma, mb, env_a, env_b, depth):
                return False
            return all(_alpha(x, y, env_a, env_b, depth) for x, y in zip(bra, brb))
        case Fix(xa, ta, ba, ka), Fix(xb, tb, bb, kb):
            return (ka == kb
                    and _alpha(ta, tb, env_a, env_b, depth)
                    and _alpha(ba, bb, {**env_a, xa: depth},
                               {**env_b, xb: depth}, depth + 1))
    return False


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


class GlobalEnv:
    """Append-only map of declared globals, keyed by name.

    Constructor names are registered alongside their inductive so both kinds
    of reference resolve in one place.  Entries are only added through the
    kernel's declare functions, after checking.
    """

    __slots__ = ("_entries", "_constr_owner", "_definitions")

    def __init__(self) -> None:
        self._entries: dict[str, GlobalEntry] = {}
        self._constr_owner: dict[str, str] = {}
        self._definitions: set[str] = set()

    def lookup(self, name: str) -> Optional[GlobalEntry]:
        return self._entries.get(name)

    def inductive(self, name: str) -> Optional[InductiveDecl]:
        entry = self._entries.get(name)
        return entry if isinstance(entry, InductiveDecl) else None

    def definition(self, name: str) -> Optional[Definition]:
        entry = self._entries.get(name)
        return entry if isinstance(entry, Definition) else None

    def constructor(self, name: str) -> Optional[tuple[InductiveDecl, int]]:
        """The declaring inductive and position of a constructor name."""
        owner = self._constr_owner.get(name)
        if owner is None:
            return None
        decl = self._entries[owner]
        assert isinstance(decl, InductiveDecl)
        for i, (cname, _) in enumerate(decl.constructors):
            if cname == name:
                return decl, i
        return None

    def names(self) -> list[str]:
        return list(self._entries)

    def definition_names(self) -> set[str]:
        """The names of all definitions.  This is the environment's own set,
        kept up to date as definitions are added; callers must not modify
        it."""
        return self._definitions

    def taken(self, name: str) -> bool:
        return name in self._entries or name in self._constr_owner

    def add_inductive(self, decl: InductiveDecl) -> None:
        if self.taken(decl.name):
            raise DuplicateNameError(decl.name)
        for cname, _ in decl.constructors:
            if self.taken(cname) or cname == decl.name:
                raise DuplicateNameError(cname)
        self._entries[decl.name] = decl
        for cname, _ in decl.constructors:
            self._constr_owner[cname] = decl.name

    def add_definition(self, defn: Definition) -> None:
        if self.taken(defn.name):
            raise DuplicateNameError(defn.name)
        self._entries[defn.name] = defn
        self._definitions.add(defn.name)

    def with_provisional(self, decl: InductiveDecl) -> "GlobalEnv":
        """A copy with `decl` visible but its constructors unregistered.

        Used while checking or translating the declaration itself: the type
        name must resolve, the constructors must not yet.
        """
        out = GlobalEnv()
        out._entries = dict(self._entries)
        out._constr_owner = dict(self._constr_owner)
        out._definitions = set(self._definitions)
        out._entries[decl.name] = decl
        return out
