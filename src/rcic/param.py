"""The binary relational translation and the abstraction check.

Every term is mapped to a witness that it is related to its own renamed
copy: a context entry x : A becomes the triple x : A, x' : A', x_R : [A] x x',
a sort becomes the relation space fun (x : s) (x' : s) => x -> x' -> s^, and
a product becomes the space of functions sending related arguments to
related results.  Inductives get a freshly declared relation inductive with
tripled parameters and indices; its constructors relate the source
constructors pointwise.

Name scheme: the copy of a variable (Var) x is x', its witness x_R; a
global (Const, Ind, Constr) keeps its name in the copy and gains the _R
suffix for its relation.  Input terms must not use names with either suffix
(the frontend rejects them), which keeps generated names from colliding.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

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
    arrow,
    free_vars,
    strip_lams,
    strip_prods,
    subst,
)
from .kernel import (
    STAR,
    ErrorKind,
    TypeCheckError,
    beta_normalize,
    check,
    declare_definition,
    declare_inductive,
    whnf,
)

logger = logging.getLogger(__name__)

PRIME_SUFFIX = "'"
WITNESS_SUFFIX = "_R"


def primed(name: str) -> str:
    return name + PRIME_SUFFIX


def witness(name: str) -> str:
    return name + WITNESS_SUFFIX


def relation_name(name: str) -> str:
    """The global name given to the relation of a global."""
    return name + WITNESS_SUFFIX


def is_reserved(name: str) -> bool:
    return name.endswith(PRIME_SUFFIX) or name.endswith(WITNESS_SUFFIX)


@dataclass(frozen=True)
class NameTriple:
    """The three names a source binder expands to."""

    base: str
    copy: str
    rel: str

    @classmethod
    def from_base(cls, base: str) -> "NameTriple":
        return cls(base, primed(base), witness(base))


@dataclass(frozen=True)
class TranslatedInductive:
    """The relation inductive generated for a source inductive."""

    source: str
    relation: InductiveDecl
    constructors: tuple[tuple[str, str], ...]


def relation_sort(s: Sort) -> Sort:
    """Where the relation over a type of sort `s` lands: proof-irrelevant
    relations over Prop and Set, level-preserving over Type."""
    if s.kind == "Type":
        return s
    return PROP


def prime(t: Term) -> Term:
    """Rename every variable x to x', bound or free, leaving references to
    globals unchanged."""
    match t:
        case Var(name):
            return Var(primed(name))
        case Const() | SortT() | Ind() | Constr():
            return t
        case App(fn, arg):
            return App(prime(fn), prime(arg))
        case Prod(binder, domain, codomain):
            return Prod(primed(binder), prime(domain), prime(codomain))
        case Lam(binder, annotation, body):
            return Lam(primed(binder), prime(annotation), prime(body))
        case Case(ind, scrutinee, params, motive, branches):
            return Case(ind, prime(scrutinee), tuple(prime(p) for p in params),
                        prime(motive), tuple(prime(b) for b in branches))
        case Fix(binder, annotation, body, decreasing):
            return Fix(primed(binder), prime(annotation), prime(body),
                       decreasing)
    raise TypeError(f"not a term: {t!r}")


def _assert_clean(t: Term) -> None:
    """Reject terms that already use the reserved name suffixes."""
    for name in _all_names(t):
        if is_reserved(name):
            raise ValueError(
                f"cannot translate a term using the reserved name {name!r}")


def _all_names(t: Term) -> set[str]:
    out: set[str] = set()

    def go(u: Term) -> None:
        match u:
            case Var(name) | Const(name):
                out.add(name)
            case SortT() | Ind() | Constr():
                pass
            case App(fn, arg):
                go(fn)
                go(arg)
            case Prod(binder, domain, codomain):
                out.add(binder)
                go(domain)
                go(codomain)
            case Lam(binder, annotation, body):
                out.add(binder)
                go(annotation)
                go(body)
            case Case(_, scrutinee, params, motive, branches):
                go(scrutinee)
                for p in params:
                    go(p)
                go(motive)
                for b in branches:
                    go(b)
            case Fix(binder, annotation, body, _):
                out.add(binder)
                go(annotation)
                go(body)

    go(t)
    out.discard("_")
    return out


def _pick_triple(base: str, avoid: frozenset[str]) -> NameTriple:
    """A binder triple whose three names are all free of collisions."""
    if base == "_":
        base = "x"
    candidate = base
    i = 0
    while (candidate in avoid or primed(candidate) in avoid
           or witness(candidate) in avoid):
        i += 1
        candidate = f"{base}{i}"
    return NameTriple.from_base(candidate)


def translate_term(env: GlobalEnv, t: Term) -> Term:
    """The relational witness of `t`.

    References to inductives, constructors, and definitions are redirected
    to their relations, translating and registering those on demand.  The
    result is the raw clause-by-clause image; apply beta_normalize for the
    readable form.
    """
    _assert_clean(t)
    return _translate(env, t)


@dataclass(frozen=True)
class Alias:
    """A pair of terms definitionally equal to the subterm being translated,
    threaded from a fix through its body's lambdas.

    The motive of a case over the fix's decreasing argument (and only that
    case: `guard` names it) embeds the alias instead of copies of the case,
    which is what lets the generated fixpoint check against its own
    annotation: at the bound variable the two sides agree syntactically, and
    at each constructor instance guarded unfolding closes the gap.
    """

    raw: Term
    primed: Term
    guard: str | None = None


def _translate(env: GlobalEnv, t: Term, alias: Alias | None = None) -> Term:
    match t:
        case Var(name):
            return Var(witness(name))
        case Const(name):
            _ensure_definition(env, name)
            return Const(relation_name(name))
        case SortT(s):
            x = NameTriple.from_base("x")
            return Lam(x.base, t, Lam(x.copy, t,
                       arrow(Var(x.base),
                             arrow(Var(x.copy), SortT(relation_sort(s))))))
        case Ind(name):
            _ensure_inductive(env, name)
            return Ind(relation_name(name))
        case Constr(name):
            info = env.constructor(name)
            if info is not None:
                _ensure_inductive(env, info[0].name)
            return Constr(relation_name(name))
        case Prod(binder, domain, codomain):
            dom_c = prime(domain)
            dom_r = _translate(env, domain)
            cod_r = _translate(env, codomain)
            x = _pick_triple(binder, free_vars(dom_c) | free_vars(dom_r))
            if binder != "_" and x.base != binder:
                cod_r = _rename_triple(cod_r, binder, x)
            fn_avoid = (free_vars(t) | free_vars(dom_c) | free_vars(dom_r)
                        | free_vars(cod_r)
                        | {x.base, x.copy, x.rel})
            f = _pick_pair("f", fn_avoid)
            rel = Prod(x.base, domain,
                       Prod(x.copy, dom_c,
                            Prod(x.rel, app(dom_r, Var(x.base), Var(x.copy)),
                                 app(cod_r,
                                     App(Var(f[0]), Var(x.base)),
                                     App(Var(f[1]), Var(x.copy))))))
            return Lam(f[0], t, Lam(f[1], prime(t), rel))
        case Lam(binder, annotation, body):
            ann_c = prime(annotation)
            ann_r = _translate(env, annotation)
            inner = None
            if (alias is not None and binder != "_"
                    and binder not in free_vars(alias.raw)
                    and primed(binder) not in free_vars(alias.primed)):
                inner = Alias(App(alias.raw, Var(binder)),
                              App(alias.primed, Var(primed(binder))),
                              alias.guard)
            body_r = _translate(env, body, inner)
            x = _pick_triple(binder, free_vars(ann_c) | free_vars(ann_r))
            if binder != "_" and x.base != binder:
                body_r = _rename_triple(body_r, binder, x)
            return Lam(x.base, annotation,
                       Lam(x.copy, ann_c,
                           Lam(x.rel, app(ann_r, Var(x.base), Var(x.copy)),
                               body_r)))
        case App(fn, arg):
            return app(_translate(env, fn), arg, prime(arg),
                       _translate(env, arg))
        case Case(ind, scrutinee, params, motive, branches):
            _ensure_inductive(env, ind)
            params3: list[Term] = []
            for q in params:
                params3 += [q, prime(q), _translate(env, q)]
            motive_r = _case_motive(env, t, alias)
            return Case(relation_name(ind),
                        _translate(env, scrutinee),
                        tuple(params3),
                        motive_r,
                        tuple(_translate(env, b) for b in branches))
        case Fix(binder, annotation, body, decreasing):
            raw, copy = (alias.raw, alias.primed) if alias is not None \
                else (t, prime(t))
            spine, _ = strip_lams(body)
            guard = None
            if decreasing < len(spine) and spine[decreasing][0] != "_":
                guard = spine[decreasing][0]
            selves = Alias(raw, copy, guard)
            ann_r = _translate(env, annotation)
            body_r = _translate(env, body, selves)
            rel = Fix(witness(binder),
                      app(ann_r, Var(binder), Var(primed(binder))),
                      body_r,
                      3 * decreasing + 2)
            rel = subst(rel, binder, selves.raw)
            return subst(rel, primed(binder), selves.primed)
    raise TypeError(f"not a term: {t!r}")


def _rename_triple(t: Term, old: str, new: NameTriple) -> Term:
    t = subst(t, old, Var(new.base))
    t = subst(t, primed(old), Var(new.copy))
    return subst(t, witness(old), Var(new.rel))


def _pick_pair(base: str, avoid: frozenset[str]) -> tuple[str, str]:
    candidate = base
    i = 0
    while candidate in avoid or primed(candidate) in avoid:
        i += 1
        candidate = f"{base}{i}"
    return candidate, primed(candidate)


def _case_motive(env: GlobalEnv, t: Case, alias: Alias | None = None) -> Term:
    """The motive of the translated case over the relation inductive.

    It abstracts a triple per index of the source inductive, the two related
    scrutinees, and the relation witness, and returns the motive's own
    relation applied to both original case expressions.
    """
    rdecl = _ensure_inductive(env, t.ind).relation
    src = env.inductive(t.ind)
    assert src is not None
    motive_r = _translate(env, t.motive)
    motive_c = prime(t.motive)
    branches_c = tuple(prime(b) for b in t.branches)
    params_c = tuple(prime(q) for q in t.params)
    params3: list[Term] = []
    for q, q_c in zip(t.params, params_c):
        params3 += [q, q_c, _translate(env, q)]

    avoid = set(free_vars(motive_r) | free_vars(t.motive) | free_vars(motive_c))
    pieces = [*t.branches, *branches_c, *params3]
    if alias is not None:
        pieces += [alias.raw, alias.primed]
    for piece in pieces:
        avoid |= free_vars(piece)

    # Instantiate the relation's arity with the tripled parameters, then
    # read off the telescope it expects: three binders per source index,
    # then the two related scrutinees, then their witness.
    tele = rdecl.arity
    for q3 in params3:
        tele = whnf(env, tele)
        assert isinstance(tele, Prod), "relation arity shorter than its params"
        tele = subst(tele.codomain, tele.binder, q3)

    n_indices = len(strip_prods(src.arity)[0]) - src.params
    binders: list[tuple[str, Term]] = []
    idx_names: list[str] = []
    for _ in range(3 * n_indices):
        tele = whnf(env, tele)
        assert isinstance(tele, Prod)
        base = tele.binder if tele.binder != "_" else "i"
        name = base
        k = 0
        while name in avoid:
            k += 1
            name = f"{base}{k}"
        avoid.add(name)
        idx_names.append(name)
        binders.append((name, tele.domain))
        tele = subst(tele.codomain, tele.binder, Var(name))

    pair = _pick_triple("a", frozenset(avoid))
    for scrut in (pair.base, pair.copy):
        tele = whnf(env, tele)
        assert isinstance(tele, Prod)
        binders.append((scrut, tele.domain))
        tele = subst(tele.codomain, tele.binder, Var(scrut))
    rel_ty = app(Ind(rdecl.name), *params3, *(Var(n) for n in idx_names),
                 Var(pair.base), Var(pair.copy))
    binders.append((pair.rel, rel_ty))

    if (alias is not None and alias.guard is not None
            and isinstance(t.scrutinee, Var)
            and t.scrutinee.name == alias.guard):
        v = t.scrutinee.name
        left = subst(alias.raw, v, Var(pair.base))
        right = subst(alias.primed, primed(v), Var(pair.copy))
    else:
        left = Case(t.ind, Var(pair.base), t.params, t.motive, t.branches)
        right = Case(t.ind, Var(pair.copy), params_c, motive_c, branches_c)
    body = app(motive_r, *(Var(n) for n in idx_names),
               Var(pair.base), Var(pair.copy), Var(pair.rel), left, right)
    for name, ty in reversed(binders):
        body = Lam(name, ty, body)
    return body


def _ensure_inductive(env: GlobalEnv, name: str) -> TranslatedInductive:
    decl = env.inductive(name)
    if decl is None:
        raise TypeCheckError(ErrorKind.UNBOUND_VARIABLE,
                             f"unknown inductive {name}")
    return translate_inductive(env, decl)


def translate_definition(env: GlobalEnv, name: str) -> Definition:
    """Declare (or fetch) the relation witness of the definition `name`:
    a new definition relating the body to itself at the translated type."""
    _ensure_definition(env, name)
    return env.definition(relation_name(name))


def _ensure_definition(env: GlobalEnv, name: str) -> None:
    defn = env.definition(name)
    if defn is None:
        raise TypeCheckError(ErrorKind.UNBOUND_VARIABLE,
                             f"unknown definition {name}")
    if env.lookup(relation_name(name)) is not None:
        return
    _assert_clean(defn.type)
    _assert_clean(defn.body)
    # The definition's own name is a definitional alias for its body, which
    # keeps the generated witness referencing `name` instead of copies of
    # the body.
    self_ref = Alias(Const(name), Const(name))
    body_r = beta_normalize(_translate(env, defn.body, self_ref))
    ty_r = beta_normalize(app(_translate(env, defn.type),
                              Const(name), Const(name)))
    declare_definition(env, relation_name(name), ty_r, body_r, STAR)


def _ensure_dependencies(env: GlobalEnv, t: Term, skip: str) -> None:
    """Translate every global `t` mentions, except `skip` itself."""
    match t:
        case Const(name):
            _ensure_definition(env, name)
        case Var() | SortT():
            pass
        case Ind(name):
            if name != skip:
                _ensure_inductive(env, name)
        case Constr(name):
            info = env.constructor(name)
            if info is not None and info[0].name != skip:
                _ensure_inductive(env, info[0].name)
        case App(fn, arg):
            _ensure_dependencies(env, fn, skip)
            _ensure_dependencies(env, arg, skip)
        case Prod(_, domain, codomain):
            _ensure_dependencies(env, domain, skip)
            _ensure_dependencies(env, codomain, skip)
        case Lam(_, annotation, body):
            _ensure_dependencies(env, annotation, skip)
            _ensure_dependencies(env, body, skip)
        case Case(ind, scrutinee, params, motive, branches):
            if ind != skip:
                _ensure_inductive(env, ind)
            _ensure_dependencies(env, scrutinee, skip)
            for p in params:
                _ensure_dependencies(env, p, skip)
            _ensure_dependencies(env, motive, skip)
            for b in branches:
                _ensure_dependencies(env, b, skip)
        case Fix(_, annotation, body, _):
            _ensure_dependencies(env, annotation, skip)
            _ensure_dependencies(env, body, skip)


def translate_inductive(env: GlobalEnv, decl: InductiveDecl) -> TranslatedInductive:
    """Declare (or fetch) the relation inductive of `decl`.

    Its arity is the translated arity applied to two copies of the source
    inductive, its parameter count triples, and each constructor relates a
    source constructor to itself.  The declaration is kernel-checked before
    it is returned.
    """
    rn = relation_name(decl.name)
    cmap = tuple((c, relation_name(c)) for c, _ in decl.constructors)
    existing = env.inductive(rn)
    if existing is not None:
        return TranslatedInductive(decl.name, existing, cmap)

    _assert_clean(decl.arity)
    for _, cty in decl.constructors:
        _assert_clean(cty)
    _ensure_dependencies(env, decl.arity, decl.name)
    for _, cty in decl.constructors:
        _ensure_dependencies(env, cty, decl.name)

    arity_r = beta_normalize(app(_translate(env, decl.arity),
                                 Ind(decl.name), Ind(decl.name)))
    prov = env.with_provisional(InductiveDecl(rn, 3 * decl.params, arity_r, ()))
    ctors = tuple(
        (relation_name(c),
         beta_normalize(app(_translate(prov, cty),
                            Constr(c), Constr(c))))
        for c, cty in decl.constructors)
    rdecl = InductiveDecl(rn, 3 * decl.params, arity_r, ctors)
    declare_inductive(env, rdecl, STAR)
    return TranslatedInductive(decl.name, rdecl, cmap)


def translate_context(env: GlobalEnv, ctx: Context) -> Context:
    """Triple every context entry: the original, its copy, its witness."""
    out = Context()
    for name, ty in ctx:
        _assert_clean(ty)
        if is_reserved(name):
            raise ValueError(f"context name {name!r} uses a reserved suffix")
        rel = beta_normalize(app(_translate(env, ty),
                                 Var(name), Var(primed(name))))
        out = out.extend(name, ty)
        out = out.extend(primed(name), prime(ty))
        out = out.extend(witness(name), rel)
    return out


def abstraction_check(env: GlobalEnv, ctx: Context, term: Term,
                      ty: Term) -> bool:
    """Whether term, its copy, and its witness all check in the tripled
    context: the executable face of the abstraction theorem."""
    try:
        _assert_clean(term)
        _assert_clean(ty)
        tctx = translate_context(env, ctx)
        check(env, tctx, term, ty, STAR)
        check(env, tctx, prime(term), prime(ty), STAR)
        term_r = _translate(env, term)
        expected = beta_normalize(app(_translate(env, ty), term, prime(term)))
        check(env, tctx, term_r, expected, STAR)
        return True
    except (TypeCheckError, ValueError) as err:
        logger.debug("abstraction check failed: %s", err)
        return False
