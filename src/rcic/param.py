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
from dataclasses import dataclass, replace

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
    fresh_name,
    lams,
    map_children,
    names,
    open_prods,
    rebuild_binder,
    strip_lams,
    strip_prods,
    subst_all,
    subterms,
    unfold_app,
)
from .kernel import (
    STAR,
    ErrorKind,
    TypeCheckError,
    beta_normalize,
    check,
    declare_definition,
    declare_inductive,
)

logger = logging.getLogger(__name__)

PRIME_SUFFIX = "'"
WITNESS_SUFFIX = "_R"


def primed(name: str) -> str:
    return name + PRIME_SUFFIX


def relation_name(name: str) -> str:
    """The name of a local's witness (a Var) or of a global's relation (a
    Const, Ind or Constr); the node kind tells the two apart."""
    return name + WITNESS_SUFFIX


def is_reserved(name: str) -> bool:
    return name.endswith((PRIME_SUFFIX, WITNESS_SUFFIX))


@dataclass(frozen=True)
class NameTriple:
    """The three names a source binder expands to."""

    base: str
    copy: str
    rel: str

    @classmethod
    def from_base(cls, base: str) -> "NameTriple":
        return cls(base, primed(base), relation_name(base))


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
        case Prod(binder, dom, body) | Lam(binder, dom, body) | Fix(binder, dom, body):
            return rebuild_binder(t, primed(binder), prime(dom), prime(body))
    return map_children(t, prime)


def _assert_clean(t: Term) -> None:
    """Reject terms that already use the reserved name suffixes, naming the
    first such name in sorted order."""
    for name in sorted(names(t)):
        if is_reserved(name):
            raise ValueError(
                f"cannot translate a term using the reserved name {name!r}")


def _pick_triple(base: str, avoid: frozenset[str], scope: Term | None = None,
                 suffixes: tuple[str, ...] = ("", PRIME_SUFFIX, WITNESS_SUFFIX),
                 ) -> NameTriple:
    """A binder triple whose base, with each of `suffixes` appended, is
    not in `avoid`: by default all three names; a caller that uses only
    the base and its copy passes ("", PRIME_SUFFIX).  A `_` base becomes
    `x`, which also avoids the names free in `scope`, the binder's scope."""
    if base == "_":
        base, avoid = "x", avoid | free_vars(scope)
    candidate = base
    i = 0
    while any(candidate + suffix in avoid for suffix in suffixes):
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
    at each constructor instance guarded unfolding closes the gap.  The
    motive binds the case's indices afresh, so `guard_type`, the decreasing
    binder's annotation, tells which variables of the alias to rebind.
    """

    raw: Term
    primed: Term
    guard: str | None = None
    guard_type: Term | None = None


def _translate(env: GlobalEnv, t: Term, alias: Alias | None = None) -> Term:
    match t:
        case Var(name):
            return Var(relation_name(name))
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
        case Prod():
            # A product telescope in one loop: the domains are translated
            # outermost first, then the codomain; the witnesses and copies
            # are built innermost first, each copy from the one below it.
            levels = []
            while type(t) is Prod:
                levels.append((t, prime(t.domain), _translate(env, t.domain)))
                t = t.codomain
            cod_r, cod_c = _translate(env, t), prime(t)
            for node, dom_c, dom_r in reversed(levels):
                binder = node.binder
                x = _pick_triple(binder, free_vars(dom_c) | free_vars(dom_r),
                                 cod_r)
                if binder != "_" and x.base != binder:
                    cod_r = _rename_triple(cod_r, binder, x)
                fn_avoid = (free_vars(node) | free_vars(dom_c)
                            | free_vars(dom_r) | free_vars(cod_r)
                            | {x.base, x.copy, x.rel})
                f = _pick_triple("f", fn_avoid, suffixes=("", PRIME_SUFFIX))
                cod_c = Prod(primed(binder), dom_c, cod_c)
                rel = Prod(x.base, node.domain, Prod(x.copy, dom_c, Prod(
                    x.rel, app(dom_r, Var(x.base), Var(x.copy)),
                    app(cod_r, App(Var(f.base), Var(x.base)),
                        App(Var(f.copy), Var(x.copy))))))
                cod_r = Lam(f.base, node, Lam(f.copy, cod_c, rel))
            return cod_r
        case Lam(binder, annotation, body):
            ann_c = prime(annotation)
            ann_r = _translate(env, annotation)
            inner = None
            if (alias is not None and binder != "_"
                    and binder not in free_vars(alias.raw)
                    and primed(binder) not in free_vars(alias.primed)):
                inner = replace(alias, raw=App(alias.raw, Var(binder)),
                                primed=App(alias.primed, Var(primed(binder))))
            body_r = _translate(env, body, inner)
            x = _pick_triple(binder, free_vars(ann_c) | free_vars(ann_r),
                             body_r)
            if binder != "_" and x.base != binder:
                body_r = _rename_triple(body_r, binder, x)
            return Lam(x.base, annotation,
                       Lam(x.copy, ann_c,
                           Lam(x.rel, app(ann_r, Var(x.base), Var(x.copy)),
                               body_r)))
        case App():
            return _translate_app(env, t)[0]
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
            guard = guard_type = None
            if decreasing < len(spine) and spine[decreasing][0] != "_":
                guard, guard_type = spine[decreasing]
            selves = Alias(raw, copy, guard, guard_type)
            ann_r = _translate(env, annotation)
            body_r = _translate(env, body, selves)
            rel = Fix(relation_name(binder),
                      app(ann_r, Var(binder), Var(primed(binder))),
                      body_r,
                      3 * decreasing + 2)
            return subst_all(rel, {binder: selves.raw,
                                   primed(binder): selves.primed})
    raise TypeError(f"not a term: {t!r}")


def _translate_app(env: GlobalEnv, t: Term) -> tuple[Term, Term]:
    """The witness and the copy of `t`.  An application's copy is built
    from the copies of its function and argument, so an argument nested in
    arguments is copied once, not once per application above it."""
    if type(t) is not App:
        return _translate(env, t), prime(t)
    fn_r, fn_c = _translate_app(env, t.fn)
    arg_r, arg_c = _translate_app(env, t.arg)
    copy = t if fn_c is t.fn and arg_c is t.arg else App(fn_c, arg_c)
    return app(fn_r, t.arg, arg_c, arg_r), copy


def _rename_triple(t: Term, old: str, new: NameTriple) -> Term:
    return subst_all(t, {old: Var(new.base), primed(old): Var(new.copy),
                         relation_name(old): Var(new.rel)})


def _case_motive(env: GlobalEnv, t: Case, alias: Alias | None = None) -> Term:
    """The motive of the translated case over the relation inductive.

    It abstracts a triple per index of the source inductive, the two related
    scrutinees, and the relation witness, and returns the motive's own
    relation applied to both original case expressions.
    """
    rdecl = _ensure_inductive(env, t.ind)
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
    # then the two related scrutinees, then their witness.  A declared
    # arity is a syntactic product telescope.
    n_indices = len(strip_prods(src.arity)[0]) - src.params
    arity_binders, _ = strip_prods(rdecl.arity)
    idx_names: list[str] = []
    for binder, _ in arity_binders[len(params3):][:3 * n_indices]:
        name = fresh_name(binder if binder != "_" else "i", avoid)
        avoid.add(name)
        idx_names.append(name)
    pair = _pick_triple("a", frozenset(avoid))
    binders = open_prods(rdecl.arity, params3,
                         [*idx_names, pair.base, pair.copy])
    rel_ty = app(Ind(rdecl.name), *params3, *(Var(n) for n in idx_names),
                 Var(pair.base), Var(pair.copy))
    binders.append((pair.rel, rel_ty))

    if (alias is not None and alias.guard is not None
            and isinstance(t.scrutinee, Var)
            and t.scrutinee.name == alias.guard):
        # The alias at the motive's own scrutinee and indices: an index of
        # the guard's type that is a variable becomes the index binder.  An
        # index that is not a variable stays, and the case fails to check.
        v = t.scrutinee.name
        to_left = {v: Var(pair.base)}
        to_right = {primed(v): Var(pair.copy)}
        _, indices = unfold_app(alias.guard_type)
        for i, index in enumerate(indices[src.params:]):
            if isinstance(index, Var):
                to_left[index.name] = Var(idx_names[3 * i])
                to_right[primed(index.name)] = Var(idx_names[3 * i + 1])
        left = subst_all(alias.raw, to_left)
        right = subst_all(alias.primed, to_right)
    else:
        left = Case(t.ind, Var(pair.base), t.params, t.motive, t.branches)
        right = Case(t.ind, Var(pair.copy), params_c, motive_c, branches_c)
    return lams(binders, app(motive_r, *(Var(n) for n in idx_names),
                             Var(pair.base), Var(pair.copy), Var(pair.rel),
                             left, right))


def _ensure_inductive(env: GlobalEnv, name: str) -> InductiveDecl:
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
    rn = relation_name(name)
    if env.taken(rn):
        return
    # A relation that failed to declare fails again at once, with its error.
    failure = env.failure(rn)
    if failure is not None:
        raise failure
    try:
        _assert_clean(defn.type)
        _assert_clean(defn.body)
        # The definition's own name is a definitional alias for its body,
        # which keeps the generated witness referencing `name` instead of
        # copies of the body.
        self_ref = Alias(Const(name), Const(name))
        body_r = beta_normalize(_translate(env, defn.body, self_ref))
        ty_r = beta_normalize(app(_translate(env, defn.type),
                                  Const(name), Const(name)))
        declare_definition(env, rn, ty_r, body_r, STAR)
    except (TypeCheckError, ValueError) as err:
        env.record_failure(rn, err)
        raise


def _ensure_dependencies(env: GlobalEnv, t: Term, skip: str) -> None:
    """Translate every global `t` mentions, except `skip` itself."""
    for u in subterms(t):
        match u:
            case Const(name):
                _ensure_definition(env, name)
            case Ind(name) | Case(name) if name != skip:
                _ensure_inductive(env, name)
            case Constr(name):
                info = env.constructor(name)
                if info is not None and info[0].name != skip:
                    _ensure_inductive(env, info[0].name)


def translate_inductive(env: GlobalEnv, decl: InductiveDecl) -> InductiveDecl:
    """Declare (or fetch) the relation inductive of `decl`.

    Its arity is the translated arity applied to two copies of the source
    inductive, its parameter count triples, and each constructor relates a
    source constructor to itself.  The declaration is kernel-checked before
    it is returned.
    """
    rn = relation_name(decl.name)
    existing = env.inductive(rn)
    if existing is not None:
        return existing

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
    return rdecl


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
        out = out.extend(relation_name(name), rel)
    return out


def abstraction_check(env: GlobalEnv, ctx: Context, term: Term,
                      ty: Term) -> bool:
    """Whether term, its copy, and its witness all check in the tripled
    context: the executable face of the abstraction theorem for an open
    term.  A closed global is decided by `translate_definition`, whose
    declared relation is the theorem for it and is reused by later
    references."""
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
