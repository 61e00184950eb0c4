"""The binary relational translation and the abstraction check.

Every term is mapped to a witness that it is related to its own renamed
copy: a context entry x : A becomes the triple x : A, x' : A', x_R : [A] x x',
a sort becomes the relation space fun (x : s) (x' : s) => x -> x' -> s^, and
a product becomes the space of functions sending related arguments to
related results.  Inductives get a freshly declared relation inductive with
tripled parameters and indices; its constructors relate the source
constructors pointwise.

The translation is a function of the term: a global maps to its relation
by name, and a case reads its relation inductive from the environment.
So each entry point first declares, once each, the relations of the
globals its terms mention (`_prepare`), and then translates.

Relations are built in beta normal form: `_relate` gives the relation of
a type at two terms, `[T] a a'`, directly, as a sort's relation space or a
product's function space would read once applied and reduced.  The
binders it makes are named as that reduction would name them.  The
translation of a term with no redex therefore has none either, and each
entry point calls `beta_normalize` only when `_prepare` found a redex in
its source terms, to contract those redexes and their images.

Name scheme: the copy of a variable (Var) x is x', its witness x_R; a
global (Const, Ind, Constr) keeps its name in the copy and gains the _R
suffix for its relation.  Input terms must not use names with either suffix
(the frontend rejects them), which keeps generated names from colliding.
"""

from __future__ import annotations

from .syntax import (
    PRIME_SUFFIX,
    PROP,
    WITNESS_SUFFIX,
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
    _Record,
    _set,
    app,
    arrow,
    free_vars,
    fresh_name,
    is_reserved,
    lams,
    map_children,
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


def primed(name: str) -> str:
    return name + PRIME_SUFFIX


def relation_name(name: str) -> str:
    """The name of a local's witness (a Var) or of a global's relation (a
    Const, Ind or Constr); the node kind tells the two apart."""
    return name + WITNESS_SUFFIX


class NameTriple(_Record):
    """The three names a source binder expands to."""

    __match_args__ = ("base", "copy", "rel")

    def __init__(self, base: str, copy: str, rel: str) -> None:
        _set(self, "base", base)
        _set(self, "copy", copy)
        _set(self, "rel", rel)

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


def _prepare(env: GlobalEnv, *terms: Term, skip: str = "") -> bool:
    """Make `terms` ready to translate, and tell whether any of them holds
    a redex (an App whose head is a Lam).  Reject a term that already uses
    the reserved name suffixes, naming the first such name in sorted order,
    term by term; then declare the relation of every global the terms
    mention, except the inductive `skip`, once each in order of first
    mention.  One walk per term finds the globals, the redexes and the
    names `syntax.names` would list: Vars, Consts and binders."""
    needed: dict[tuple[type, str], None] = {}
    redex = False
    for t in terms:
        reserved: set[str] = set()
        for u in subterms(t):
            kind = type(u)
            if kind is App:
                redex = redex or type(u.fn) is Lam
            elif kind is Const or kind is Ind:
                needed[kind, u.name] = None
            elif kind is Case:
                needed[Ind, u.ind] = None
            elif kind is Constr and (info := env.constructor(u.name)):
                needed[Ind, info[0].name] = None
            if kind is Lam or kind is Prod or kind is Fix:
                name = u.binder
            elif kind is Var or kind is Const:
                name = u.name
            else:
                continue
            if is_reserved(name):
                reserved.add(name)
        if reserved:
            raise ValueError("cannot translate a term using the "
                             f"reserved name {min(reserved)!r}")
    needed.pop((Ind, skip), None)
    for kind, name in needed:
        if kind is Const:
            _ensure_definition(env, name)
        else:
            translate_inductive(env, _inductive(env, name))
    return redex


def _pick_triple(base: str, avoid: frozenset[str], scope: Term | None = None,
                 ) -> NameTriple:
    """A binder triple none of whose names is in `avoid`, nor has a name
    of `avoid` as its base.  A `_` base becomes `x`, which also avoids the
    names free in `scope`, the binder's scope."""
    if base == "_":
        avoid = avoid | free_vars(scope)
    stems = {n[:len(n) - len(s)] for n in avoid
             for s in ("", PRIME_SUFFIX, WITNESS_SUFFIX) if n.endswith(s)}
    return NameTriple.from_base(fresh_name(base, stems))


def _tripled(names: frozenset[str]) -> frozenset[str]:
    """Each name with its copy and witness: the names free in the
    translation of a product whose free names are `names`."""
    return frozenset(n for name in names
                     for n in (name, primed(name), relation_name(name)))


def translate_term(env: GlobalEnv, t: Term) -> Term:
    """The relational witness of `t`.

    References to inductives, constructors, and definitions are redirected
    to their relations, which are declared first.  The result is in beta
    normal form when `t` is; `beta_normalize` contracts what `t` brings.
    """
    _prepare(env, t)
    return _translate(env, t)


class Alias(_Record):
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

    __match_args__ = ("raw", "primed", "guard", "guard_type")

    def __init__(self, raw: Term, primed: Term, guard: str | None = None,
                 guard_type: Term | None = None) -> None:
        _set(self, "raw", raw)
        _set(self, "primed", primed)
        _set(self, "guard", guard)
        _set(self, "guard_type", guard_type)


def _translate(env: GlobalEnv, t: Term, alias: Alias | None = None) -> Term:
    match t:
        case Var(name) | Const(name) | Ind(name) | Constr(name):
            return type(t)(relation_name(name))
        case SortT() | Prod():
            # The relation space fun (f : t) (f' : t') => [t] f f'.  The
            # pair avoids the names free in t and t's first binder, whose
            # triple the relation binds around the pair's first use.
            f = (NameTriple.from_base("x") if type(t) is SortT
                 else _pick_triple("f", free_vars(t) | {t.binder}))
            return Lam(f.base, t, Lam(f.copy, prime(t), _relate(
                env, t, Var(f.base), Var(f.copy))))
        case Lam(binder, annotation, body):
            inner = None
            if (alias is not None and binder != "_"
                    and binder not in free_vars(alias.raw)
                    and primed(binder) not in free_vars(alias.primed)):
                inner = Alias(App(alias.raw, Var(binder)),
                              App(alias.primed, Var(primed(binder))),
                              alias.guard, alias.guard_type)
            body_r = _translate(env, body, inner)
            x = _pick_triple(binder, free_vars(annotation), body_r)
            if binder != "_" and x.base != binder:
                body_r = _rename_triple(body_r, binder, x)
            return Lam(x.base, annotation,
                       Lam(x.copy, prime(annotation),
                           Lam(x.rel, _relate(env, annotation, Var(x.base),
                                              Var(x.copy)),
                               body_r)))
        case App():
            return _translate_app(env, t)[0]
        case Case():
            return _translate_case(env, t, alias)
        case Fix(binder, annotation, body, decreasing):
            raw, copy = (alias.raw, alias.primed) if alias is not None \
                else (t, prime(t))
            spine, _ = strip_lams(body)
            guard = guard_type = None
            if decreasing < len(spine) and spine[decreasing][0] != "_":
                guard, guard_type = spine[decreasing]
            selves = Alias(raw, copy, guard, guard_type)
            body_r = _translate(env, body, selves)
            rel = Fix(relation_name(binder),
                      _relate(env, annotation, raw, copy),
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


def _relate(env: GlobalEnv, t: Term, a: Term, a2: Term,
            ren: dict[str, Term] | None = None,
            t_r: Term | None = None) -> Term:
    """`[t] a a2`, the relation of the type `t` at the terms `a` and `a2`:
    the beta normal form of `app(_translate(env, t), a, a2)`, with the
    names free in that translation renamed by `ren`, built directly.

    A sort s gives `a -> a2 -> s^`.  A product telescope gives, in one
    loop, a binder triple x, x', x_R per source binder, x_R ranging over
    the domain's relation at x and x', and then the codomain's relation at
    `a x ...` and `a2 x' ...`.  Any other type gives its translation, `t_r`
    if the caller has it, applied to `a` and `a2`.

    Each triple is the one `_translate` picks for the binder; a name of it
    is then renamed, on its own, as `kernel.beta_normalize` would rename
    it in reducing that application (`_bind`), so the relation is the
    same term, binder names included.
    """
    ren = ren or {}
    levels = []
    while type(t) is Prod:
        binder, dom, cod = t.binder, t.domain, t.codomain
        x = _pick_triple(binder, free_vars(dom), cod)
        if binder != "_" and x.base != binder:
            cod = subst_all(cod, {binder: Var(x.base)})
        dom_c = prime(dom)
        dom_r, dom_fv = _translated(env, dom)
        t_r, cod_fv = _translated(env, cod)
        # The names free in the body of each binder of this level in the
        # application `app(_translate(env, t), a, a2)`.
        rel_body = cod_fv | {x.base, x.copy}
        copy_body = dom_fv | (rel_body - {x.rel})
        base_body = free_vars(dom_c) | (copy_body - {x.copy})
        names = free_vars(a) | free_vars(a2)
        dom_n = subst_all(dom, ren)
        base, ren = _bind(x.base, base_body, names, ren)
        dom_c = subst_all(dom_c, ren)
        copy, ren = _bind(x.copy, copy_body, names, ren)
        dom_rel = _relate(env, dom, Var(base), Var(copy), ren, dom_r)
        rel, ren = _bind(x.rel, rel_body, names, ren)
        levels.append((base, dom_n, copy, dom_c, rel, dom_rel))
        a, a2, t = App(a, Var(base)), App(a2, Var(copy)), cod
    if type(t) is SortT:
        out = arrow(a, arrow(a2, SortT(relation_sort(t.sort))))
    else:
        out = app(subst_all(_translate(env, t) if t_r is None else t_r, ren),
                  a, a2)
    for base, dom, copy, dom_c, rel, dom_rel in reversed(levels):
        out = Prod(base, dom, Prod(copy, dom_c, Prod(rel, dom_rel, out)))
    return out


def _translated(env: GlobalEnv, t: Term) -> tuple[Term | None, frozenset[str]]:
    """The translation of `t`, or None for a sort or a product, which
    `_relate` relates directly, and the names free in the translation."""
    if type(t) is SortT:
        return None, frozenset()
    if type(t) is Prod:
        return None, _tripled(free_vars(t))
    t_r = _translate(env, t)
    return t_r, free_vars(t_r)


def _bind(name: str, body: frozenset[str], names: frozenset[str],
          ren: dict[str, Term]) -> tuple[str, dict[str, Term]]:
    """The name a binder `name` takes over a body whose free names are
    `body` when the names `names` and the renaming `ren` are substituted
    below it, and the renaming below it, where its own entry shadows any
    outer one.  It keeps `name` unless that would capture one of the
    names substituted, and then takes the first fresh name outside those
    and `body`, as `kernel.beta_normalize` renames a binder."""
    live = {v.name for k, v in ren.items() if k in body and k != name}
    new = name
    if name in names or name in live:
        new = fresh_name(name, body | names | live)
    if new == name and name not in ren:
        return name, ren
    return new, {**ren, name: Var(new)}


def _translate_case(env: GlobalEnv, t: Case, alias: Alias | None) -> Term:
    """The witness of a case: a case over the relation inductive, which
    must be declared, with the parameters tripled.

    Its motive abstracts a triple per index of the source inductive, the
    two related scrutinees, and the relation witness, and returns the
    relation of the source motive's body at both original case
    expressions, with the triple of each source motive binder renamed to
    the matching binders.  A source motive with fewer binders (a variable,
    say, or a `fun` over some indices that returns a type family) names the
    targets it binds, and the translation of its body is applied to the
    rest and to both cases, so the motive holds no redex.
    """
    rdecl = _inductive(env, relation_name(t.ind))
    motive_c = prime(t.motive)
    branches_c = tuple(prime(b) for b in t.branches)
    params_c = tuple(prime(q) for q in t.params)
    params3: list[Term] = []
    for q, q_c in zip(t.params, params_c):
        params3 += [q, q_c, _translate(env, q)]

    # The names free in the motive, its copy and its translation.
    avoid = set(_tripled(free_vars(t.motive)))
    pieces = [*t.branches, *branches_c, *params3]
    if alias is not None:
        pieces += [alias.raw, alias.primed]
    for piece in pieces:
        avoid |= free_vars(piece)

    # Instantiate the relation's arity with the tripled parameters, then
    # read off the telescope it expects: three binders per source index,
    # then the two related scrutinees (the arity's last two binders), then
    # their witness.  A declared arity is a syntactic product telescope.
    arity_binders, _ = strip_prods(rdecl.arity)
    idx_names: list[str] = []
    for binder, _ in arity_binders[len(params3):-2]:
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
        for i, index in enumerate(indices[len(t.params):]):
            if isinstance(index, Var):
                to_left[index.name] = Var(idx_names[3 * i])
                to_right[primed(index.name)] = Var(idx_names[3 * i + 1])
        left = subst_all(alias.raw, to_left)
        right = subst_all(alias.primed, to_right)
    else:
        left = Case(t.ind, Var(pair.base), t.params, t.motive, t.branches)
        right = Case(t.ind, Var(pair.copy), params_c, motive_c, branches_c)
    targets = [*idx_names, pair.base, pair.copy, pair.rel]
    motive_binders, body = strip_lams(t.motive)
    bound = 3 * len(motive_binders)
    ren = {}
    for i, (binder, _) in enumerate(motive_binders):
        if binder != "_":
            for name, target in zip(
                    (binder, primed(binder), relation_name(binder)),
                    targets[3 * i:3 * i + 3]):
                ren[name] = Var(target)
    if bound == len(targets):
        rel = _relate(env, body, left, right, ren)
    else:
        rel = app(subst_all(_translate(env, body), ren),
                  *map(Var, targets[bound:]), left, right)
    motive = lams(binders, rel)
    return Case(rdecl.name, _translate(env, t.scrutinee), tuple(params3),
                motive, tuple(_translate(env, b) for b in t.branches))


def _inductive(env: GlobalEnv, name: str) -> InductiveDecl:
    decl = env.inductive(name)
    if decl is None:
        raise TypeCheckError(ErrorKind.UNBOUND_VARIABLE,
                             f"unknown inductive {name}")
    return decl


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
        redex = _prepare(env, defn.type, defn.body)
        # The definition's own name is a definitional alias for its body,
        # which keeps the generated witness referencing `name` instead of
        # copies of the body.
        self_ref = Alias(Const(name), Const(name))
        body_r = _translate(env, defn.body, self_ref)
        ty_r = _relate(env, defn.type, Const(name), Const(name))
        if redex:
            body_r, ty_r = beta_normalize(body_r), beta_normalize(ty_r)
        declare_definition(env, rn, ty_r, body_r, STAR)
    except (TypeCheckError, ValueError) as err:
        env.record_failure(rn, err)
        raise


def translate_inductive(env: GlobalEnv, decl: InductiveDecl) -> InductiveDecl:
    """Declare (or fetch) the relation inductive of `decl`.

    Its arity is the arity's relation at two copies of the source
    inductive, its parameter count triples, and each constructor relates a
    source constructor to itself.  The declaration is kernel-checked before
    it is returned.
    """
    rn = relation_name(decl.name)
    existing = env.inductive(rn)
    if existing is not None:
        return existing

    redex = _prepare(env, decl.arity,
                     *(cty for _, cty in decl.constructors), skip=decl.name)
    arity_r = _relate(env, decl.arity, Ind(decl.name), Ind(decl.name))
    ctors = [(relation_name(c), _relate(env, cty, Constr(c), Constr(c)))
             for c, cty in decl.constructors]
    if redex:
        arity_r = beta_normalize(arity_r)
        ctors = [(c, beta_normalize(rel)) for c, rel in ctors]
    rdecl = InductiveDecl(rn, 3 * decl.params, arity_r, tuple(ctors))
    declare_inductive(env, rdecl, STAR)
    return rdecl


def translate_context(env: GlobalEnv, ctx: Context) -> Context:
    """Triple every context entry: the original, its copy, its witness."""
    out = Context()
    for name, ty in ctx:
        if is_reserved(name):
            raise ValueError(f"context name {name!r} uses a reserved suffix")
        redex = _prepare(env, ty)
        rel = _relate(env, ty, Var(name), Var(primed(name)))
        if redex:
            rel = beta_normalize(rel)
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
        redex = _prepare(env, term, ty)
        tctx = translate_context(env, ctx)
        check(env, tctx, term, ty, STAR)
        check(env, tctx, prime(term), prime(ty), STAR)
        term_r = _translate(env, term)
        expected = _relate(env, ty, term, prime(term))
        # A `fun` term applied to the binders of a product's relation is a
        # redex too, which the kernel contracts as it checks.
        if redex:
            expected = beta_normalize(expected)
        check(env, tctx, term_r, expected, STAR)
        return True
    except (TypeCheckError, ValueError):
        return False
