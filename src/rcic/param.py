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

The translation is one pass over the source.  It carries a renaming
(`_Renaming`) from the source's variables to the names and terms that
stand for them in the output: a source binder whose triple must be
renamed, a fix's name and copy (which stand for the definition being
translated), a case's motive binders.  Every node is built with its
final names, so nothing is substituted over the output afterwards.

Every binder the output makes is named by one rule, Barendregt's variable
convention: it keeps its name unless the name is free in an image of the
renaming (its `taken` set), and then takes the first fresh name outside
`taken` and the source variables free in its scope, with their copies and
witnesses.  A binder of a relation also avoids the names free in the
related terms.  `fun` telescopes, product telescopes and application
spines are read in loops, and the search for a fresh binder name along a
telescope resumes where the last one stopped, so the cost is linear in
the output.

Relations are built in beta normal form: `_relate` gives the relation of
a type at two terms, `[T] a a'`, directly, as a sort's relation space or a
product's function space would read once applied and reduced.  The
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
    children,
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
    globals and anonymous binders `_` unchanged."""
    kind = type(t)
    if kind is Var:
        return Var(primed(t.name))
    if kind is Prod or kind is Lam or kind is Fix:
        dom, body = children(t)
        binder = t.binder
        return rebuild_binder(t, binder if binder == "_" else primed(binder),
                              prime(dom), prime(body))
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
        used: set[str] = set()
        stack = [t]
        while stack:
            u = stack.pop()
            kind = type(u)
            if kind is App:
                redex = redex or type(u.fn) is Lam
                stack += u.arg, u.fn
                continue
            if kind is Var:
                used.add(u.name)
                continue
            if kind is Lam or kind is Fix:
                used.add(u.binder)
                stack += u.body, u.annotation
                continue
            if kind is Prod:
                used.add(u.binder)
                stack += u.codomain, u.domain
                continue
            if kind is Const:
                used.add(u.name)
                needed[Const, u.name] = None
            elif kind is Ind:
                needed[Ind, u.name] = None
            elif kind is Constr:
                if info := env.constructor(u.name):
                    needed[Ind, info[0].name] = None
            else:
                if kind is Case:
                    needed[Ind, u.ind] = None
                stack.extend(reversed(children(u)))
        reserved = [name for name in used if is_reserved(name)]
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
    if base == "_" and scope is not None:
        avoid = avoid | free_vars(scope)
    stems = {n[:len(n) - len(s)] for n in avoid
             for s in ("", PRIME_SUFFIX, WITNESS_SUFFIX) if n.endswith(s)}
    return NameTriple.from_base(fresh_name(base, stems))


def _tripled(names: frozenset[str] | set[str]) -> set[str]:
    """Each name with its copy and witness."""
    return {n for name in names
            for n in (name, primed(name), relation_name(name))}


def _stem(name: str) -> str:
    """The source name whose copy or witness `name` is, or `name`."""
    if name.endswith(PRIME_SUFFIX):
        return name[:-len(PRIME_SUFFIX)]
    if name.endswith(WITNESS_SUFFIX):
        return name[:-len(WITNESS_SUFFIX)]
    return name


class _Renaming:
    """Where the translation puts the variables of the source: `images`
    maps the name of a source variable x, of its copy x' or of its witness
    x_R to the term that stands for it in the output, for each one that is
    not itself; `taken` holds every name free in those terms.

    A source binder whose triple is renamed, a fix (whose name and copy
    stand for the definition being translated) and a case's motive
    binders (which become the case's index and scrutinee triples) add
    entries.  The output is built with the images in place, so nothing is
    substituted over it afterwards.  A binder the output makes keeps its
    name unless `taken` holds it, one set lookup (`_avoiding`).
    """

    __slots__ = ("images", "taken")

    def __init__(self, images: dict[str, Term],
                 taken: frozenset[str]) -> None:
        self.images = images
        self.taken = taken

    def bind(self, entries: dict[str, Term]) -> "_Renaming":
        """This renaming under binders for the names of `entries`: each
        maps to its term, or to nothing when the term is the name's own
        Var."""
        images = dict(self.images)
        taken = self.taken
        for name, image in entries.items():
            if type(image) is Var and image.name == name:
                images.pop(name, None)
            else:
                images[name] = image
                taken = taken.union((image.name,) if type(image) is Var
                                    else free_vars(image))
        if images == self.images:
            return self
        return _Renaming(images, taken)

    def rebind(self, binder: str, base: str, copy: str,
               rel: str) -> "_Renaming":
        """Under a source binder whose triple is named `base`, `copy` and
        `rel`."""
        triple = (binder, binder + PRIME_SUFFIX, binder + WITNESS_SUFFIX)
        if (base, copy, rel) == triple and (
                not self.images or self.images.keys().isdisjoint(triple)):
            return self
        return self.bind(dict(zip(triple, map(Var, (base, copy, rel)))))


_NO_RENAMING = _Renaming({}, frozenset())


# The leaves with no free variable: a copy or a renaming keeps them.
_CLOSED = frozenset((Const, Ind, Constr, SortT))
_NO_NAMES: frozenset[str] = frozenset()


def _kept(t: Term, ren: _Renaming) -> Term:
    """The source term `t` as the output holds it: itself, with the images
    of the renamed source variables free in it."""
    images = ren.images
    if not images or type(t) in _CLOSED:
        return t
    fv = free_vars(t)
    if len(fv) <= len(images):
        sub = {y: images[y] for y in fv if y in images}
    else:
        sub = {y: v for y, v in images.items() if y in fv}
    return subst_all(t, sub) if sub else t


def _copy(t: Term, ren: _Renaming) -> Term:
    """`prime(t)` with the images of the renamed copies free in it.  A
    global or a sort is its own copy."""
    kind = type(t)
    if kind in _CLOSED:
        return t
    images = ren.images
    if kind is Var:
        name = primed(t.name)
        return images.get(name) or Var(name)
    if images:
        sub = {name: v for y in free_vars(t)
               if (v := images.get(name := primed(y))) is not None}
        if sub:
            return subst_all(prime(t), sub)
    return prime(t)


def _avoiding(name: str, taken: frozenset[str] | set[str],
              *scope: frozenset[str]) -> str:
    """The name an output binder `name` takes: itself unless `taken` (the
    names free in the terms the output holds below it for source
    variables) holds it, and then the first fresh name outside `taken` and
    the source names of `scope`, those free in the binder's scope, with
    their copies and witnesses."""
    if name not in taken:
        return name
    avoid = set(taken)
    for names in scope:
        avoid |= _tripled(names)
    return fresh_name(name, avoid)


class Alias(_Record):
    """A pair of terms definitionally equal to the subterm being translated,
    threaded from a fix through its body's lambdas.

    The motive of a case over the fix's decreasing argument (and only that
    case: `guard` holds the names the argument and its copy take in the
    output) embeds the alias instead of copies of the case, which is what
    lets the generated fixpoint check against its own annotation: at the
    bound variable the two sides agree syntactically, and at each
    constructor instance guarded unfolding closes the gap.  The motive
    binds the case's indices afresh, so `guard_type`, the argument's
    annotation and its copy as the output holds them, tells which
    variables of the alias and of its copy to rebind.
    """

    __match_args__ = ("raw", "primed", "guard", "guard_type")

    def __init__(self, raw: Term, primed: Term,
                 guard: tuple[str, str] | None = None,
                 guard_type: tuple[Term, Term] | None = None) -> None:
        _set(self, "raw", raw)
        _set(self, "primed", primed)
        _set(self, "guard", guard)
        _set(self, "guard_type", guard_type)


def _translate(env: GlobalEnv, t: Term, ren: _Renaming = _NO_RENAMING,
               alias: Alias | None = None) -> Term:
    """The relational witness of `t`, with the source variables renamed by
    `ren`."""
    kind = type(t)
    if kind is Var:
        name = t.name + WITNESS_SUFFIX
        return ren.images.get(name) or Var(name)
    if kind is App:
        return _translate_app(env, t, ren)[0]
    if kind is Lam:
        return _translate_lams(env, t, ren, alias)
    if kind is Const or kind is Ind or kind is Constr:
        return kind(t.name + WITNESS_SUFFIX)
    if kind is Case:
        return _translate_case(env, t, ren, alias)
    if kind is SortT or kind is Prod:
        # The relation space fun (f : t) (f' : t') => [t] f f'.  The
        # pair avoids the names free in t and t's first binder, whose
        # triple the relation binds around the pair's first use.
        fv = free_vars(t)
        f = "x" if kind is SortT else fresh_name("f", fv | {t.binder})
        f_c = f + PRIME_SUFFIX
        base, copy = (_avoiding(n, ren.taken, fv) for n in (f, f_c))
        return Lam(base, _kept(t, ren), Lam(copy, _copy(t, ren), _relate(
            env, t, Var(base), Var(copy), (base, copy), ren)))
    if kind is Fix:
        return _translate_fix(env, t, ren, alias)
    raise TypeError(f"not a term: {t!r}")


def _translate_lams(env: GlobalEnv, t: Lam, ren: _Renaming,
                    alias: Alias | None, guard_at: int = -1) -> Term:
    """The witness of a `fun` telescope, read in one loop: a triple per
    source binder, the last ranging over the annotation's relation, around
    the witness of the body.  A `_` binder becomes x, x1, ..., and a
    binder its annotation uses is renamed alike, avoiding the names its
    scope uses.  An alias grows by the binder's pair, and records the
    binder at position `guard_at`, a fix's decreasing argument."""
    levels = []
    if alias is not None:
        # The names free in the alias and in its copy, as it grows.
        raw_names = set(free_vars(alias.raw))
        copy_names = set(free_vars(alias.primed))
    while type(t) is Lam:
        binder, ann, body = t.binder, t.annotation, t.body
        fv_ann = _NO_NAMES if type(ann) in _CLOSED else free_vars(ann)
        if binder == "_" or binder in fv_ann:
            x = fresh_name(binder, fv_ann | free_vars(body))
        else:
            x = binder
        base, copy, rel = x, x + PRIME_SUFFIX, x + WITNESS_SUFFIX
        taken = ren.taken
        grows = alias is not None and binder != "_"
        if grows and (base in raw_names or copy in copy_names):
            # The alias the binder grows holds these names below it.
            taken = taken | raw_names | copy_names
        if taken:
            base, copy, rel = (_avoiding(n, taken, fv_ann, free_vars(body))
                               for n in (base, copy, rel))
        ann_l, ann_c = _kept(ann, ren), _copy(ann, ren)
        levels.append((base, ann_l, copy, ann_c, rel,
                       _relate(env, ann, Var(base), Var(copy), (base, copy),
                               ren)))
        if grows:
            guard = alias.guard, alias.guard_type
            if guard_at == 0:
                guard = (base, copy), (ann_l, ann_c)
            alias = Alias(App(alias.raw, Var(base)),
                          App(alias.primed, Var(copy)), *guard)
            raw_names.add(base)
            copy_names.add(copy)
        else:
            alias = None
        if binder != "_":
            ren = ren.rebind(binder, base, copy, rel)
        guard_at -= 1
        t = body
    out = _translate(env, t, ren, alias)
    for base, ann, copy, ann_c, rel, ann_r in reversed(levels):
        out = Lam(base, ann, Lam(copy, ann_c, Lam(rel, ann_r, out)))
    return out


def _translate_fix(env: GlobalEnv, t: Fix, ren: _Renaming,
                   alias: Alias | None) -> Term:
    """The witness of a fix: a fix over its relation, whose name and copy
    stand for the fix itself (or for the alias it is given) in the body's
    witness."""
    raw, copy = ((alias.raw, alias.primed) if alias is not None
                 else (_kept(t, ren), _copy(t, ren)))
    rel = relation_name(t.binder)
    inner = ren.bind({t.binder: raw, primed(t.binder): copy, rel: Var(rel)})
    if type(t.body) is Lam:
        body_r = _translate_lams(env, t.body, inner, Alias(raw, copy),
                                 t.decreasing)
    else:
        body_r = _translate(env, t.body, inner, Alias(raw, copy))
    return Fix(rel, _relate(env, t.annotation, raw, copy,
                            free_vars(raw) | free_vars(copy), ren),
               body_r, 3 * t.decreasing + 2)


def _translate_app(env: GlobalEnv, t: Term,
                   ren: _Renaming) -> tuple[Term, Term]:
    """The witness and the copy of `t`.  An application's copy is built
    from the copies of its function and argument, so an argument nested in
    arguments is copied once, not once per application above it.  The
    spine is read in a loop; each argument is kept, copied and
    translated."""
    spine = []
    while type(t) is App:
        spine.append(t)
        t = t.fn
    witness, copy = _translate(env, t, ren), _copy(t, ren)
    for node in reversed(spine):
        arg = node.arg
        if type(arg) is App:
            arg_r, arg_c = _translate_app(env, arg, ren)
        else:
            arg_r, arg_c = _translate(env, arg, ren), _copy(arg, ren)
        copy = (node if copy is node.fn and arg_c is arg
                else App(copy, arg_c))
        witness = App(App(App(witness, _kept(arg, ren)), arg_c), arg_r)
    return witness, copy


def _relate(env: GlobalEnv, t: Term, a: Term, a2: Term,
            names: tuple[str, ...] | frozenset[str] | set[str],
            ren: _Renaming = _NO_RENAMING) -> Term:
    """`[t] a a2`, the relation of the type `t` at the terms `a` and `a2`:
    the beta normal form of `app(_translate(env, t), a, a2)`, with the
    source variables renamed by `ren`, built directly.  `names` holds the
    names free in `a` and `a2`, or more; those in `ren.taken` may be left
    out.

    A sort s gives `a -> a2 -> s^`.  A product telescope gives, in one
    loop, a binder triple x, x', x_R per source binder, x_R ranging over
    the domain's relation at x and x', and then the codomain's relation at
    `a x ...` and `a2 x' ...`.  Any other type gives its translation
    applied to `a` and `a2`.

    Each triple is the one `_translate` picks for the binder; a name of it
    that is one of `names` or in `ren.taken` is then renamed on its own
    (`_bind`).  The names a binder must avoid grow along the telescope,
    and the search for a fresh one resumes where the last one for the same
    base stopped, so each level costs the same.
    """
    if type(t) is not Prod:
        if type(t) is SortT:
            return arrow(a, arrow(a2, SortT(relation_sort(t.sort))))
        return App(App(_translate(env, t, ren), a), a2)
    names = set(names)
    resume: dict[str, int] = {}
    levels = []
    fv_cods = None  # the names free in each codomain left, once needed
    while type(t) is Prod:
        binder, dom, cod = t.binder, t.domain, t.codomain
        fv_dom = _NO_NAMES if type(dom) in _CLOSED else free_vars(dom)
        x = binder
        if binder == "_" or binder in fv_dom:
            if fv_cods is None:
                fv_cods = _codomain_names(t)
            x = fresh_name(binder, fv_dom | fv_cods[-1])
        fv_cod = fv_cods.pop() if fv_cods is not None else None
        base, copy, rel = x, x + PRIME_SUFFIX, x + WITNESS_SUFFIX
        if ren.taken or base in names or copy in names or rel in names:
            if fv_cod is None:
                fv_cods = _codomain_names(t)
                fv_cod = fv_cods.pop()
            base, copy, rel = (_bind(n, names, ren.taken, resume, fv_dom,
                                     fv_cod) for n in (base, copy, rel))
        v, v2 = Var(base), Var(copy)
        levels.append((base, _kept(dom, ren), copy, _copy(dom, ren), rel,
                       _relate(env, dom, v, v2, (base, copy), ren)))
        a, a2 = App(a, v), App(a2, v2)
        names.add(base)
        names.add(copy)
        if binder != "_":
            ren = ren.rebind(binder, base, copy, rel)
        t = cod
    if type(t) is SortT:
        out = arrow(a, arrow(a2, SortT(relation_sort(t.sort))))
    else:
        out = App(App(_translate(env, t, ren), a), a2)
    for base, dom, copy, dom_c, rel, dom_rel in reversed(levels):
        out = Prod(base, dom, Prod(copy, dom_c, Prod(rel, dom_rel, out)))
    return out


def _codomain_names(t: Prod) -> list[frozenset[str]]:
    """The names free in the codomain of each level of the product
    telescope `t`, the outermost last.  They are computed innermost first,
    so that no `free_vars` call recurses down the telescope."""
    cods = []
    while type(t) is Prod:
        t = t.codomain
        cods.append(t)
    return [free_vars(cod) for cod in reversed(cods)]


def _bind(name: str, names: set[str], taken: frozenset[str],
          resume: dict[str, int], fv_dom: frozenset[str],
          fv_cod: frozenset[str]) -> str:
    """The name a binder `name` of a relation's level takes: itself unless
    it is one of `names` (those free in the related terms) or of `taken`
    (those free in the renaming's images), and then the first fresh name
    outside those and the source names free in the level's domain and
    codomain, with their copies and witnesses.  The search starts where
    the last one for `name` found the first candidate outside `names`,
    which only grow along the telescope."""
    if name not in names and name not in taken:
        return name
    new = fresh_name(name, names, resume.get(name, 1))
    resume[name] = int(new[len(name):])
    while new in taken or _stem(new) in fv_dom or _stem(new) in fv_cod:
        new = fresh_name(name, names, int(new[len(name):]) + 1)
    return new


def _translate_case(env: GlobalEnv, t: Case, ren: _Renaming,
                    alias: Alias | None) -> Term:
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
    params3: list[Term] = []
    for q in t.params:
        params3 += [_kept(q, ren), _copy(q, ren), _translate(env, q, ren)]
    guarded = (alias is not None and alias.guard is not None
               and type(t.scrutinee) is Var
               and _kept(t.scrutinee, ren) == Var(alias.guard[0]))

    # The names the motive's binders avoid: those free in the images of
    # `ren`, and, as the source names them, those free in the motive, its
    # copy and its translation, in the branches and their copies, in the
    # tripled parameters, and in the alias.
    fv_params = frozenset().union(*map(free_vars, t.params))
    fv_branches = frozenset().union(*map(free_vars, t.branches))
    fv_motive = free_vars(t.motive)
    avoid = _tripled(fv_motive | fv_params)
    avoid |= fv_branches
    avoid.update(map(primed, fv_branches))
    avoid |= ren.taken
    if alias is not None:
        alias_names = free_vars(alias.raw)
        avoid |= alias_names | free_vars(alias.primed)

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
    targets = [*idx_names, pair.base, pair.copy, pair.rel]
    binders = open_prods(rdecl.arity, params3, targets[:-1])
    rel_ty = app(Ind(rdecl.name), *params3, *map(Var, targets[:-1]))
    binders.append((targets[-1], rel_ty))

    if guarded:
        # The alias at the motive's own scrutinee and indices: the guard,
        # and each index of its type that is a variable, become the
        # motive's binders, in the alias and in its copy.  An index that is
        # not a variable stays, and the case fails to check.
        (guard, guard_c), types = alias.guard, alias.guard_type
        to_left, to_right = {guard: Var(pair.base)}, {guard_c: Var(pair.copy)}
        indices = [unfold_app(ty)[1][len(t.params):] for ty in types]
        for i, (index, index_c) in enumerate(zip(*indices)):
            if type(index) is Var and type(index_c) is Var:
                to_left[index.name] = Var(idx_names[3 * i])
                to_right[index_c.name] = Var(idx_names[3 * i + 1])
        left = subst_all(alias.raw, to_left)
        right = subst_all(alias.primed, to_right)
        names = {to_left[n].name if n in to_left else n for n in alias_names}
        names.update(to_right[n].name if n in to_right else n
                     for n in free_vars(alias.primed))
    else:
        left = Case(t.ind, Var(pair.base), tuple(params3[0::3]),
                    _kept(t.motive, ren),
                    tuple(_kept(b, ren) for b in t.branches))
        right = Case(t.ind, Var(pair.copy), tuple(params3[1::3]),
                     _copy(t.motive, ren),
                     tuple(_copy(b, ren) for b in t.branches))
        names = _tripled(fv_params | fv_motive | fv_branches)
        names -= {relation_name(n) for n in fv_params | fv_motive
                  | fv_branches}
        names.update((pair.base, pair.copy))
    motive_binders, body = strip_lams(t.motive)
    bound = 3 * len(motive_binders)
    # The triple of a motive binder becomes the matching targets; one the
    # body does not use needs no entry, unless it shadows an outer one.
    entries = {}
    fv_body = free_vars(body)
    for i, (binder, _) in enumerate(motive_binders):
        triple = (binder, primed(binder), relation_name(binder))
        if binder != "_" and (binder in fv_body
                              or not ren.images.keys().isdisjoint(triple)):
            entries.update(zip(triple, map(Var, targets[3 * i:3 * i + 3])))
    inner = ren.bind(entries)
    if bound == len(targets):
        rel = _relate(env, body, left, right, names, inner)
    else:
        rel = app(_translate(env, body, inner), *map(Var, targets[bound:]),
                  left, right)
    motive = lams(binders, rel)
    return Case(rdecl.name, _translate(env, t.scrutinee, ren), tuple(params3),
                motive, tuple(_translate(env, b, ren) for b in t.branches))


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
        body_r = _translate(env, defn.body, alias=self_ref)
        ty_r = _relate(env, defn.type, Const(name), Const(name), ())
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
    arity_r = _relate(env, decl.arity, Ind(decl.name), Ind(decl.name), ())
    ctors = [(relation_name(c), _relate(env, cty, Constr(c), Constr(c), ()))
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
        rel = _relate(env, ty, Var(name), Var(primed(name)),
                      (name, primed(name)))
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
        fv = free_vars(term)
        expected = _relate(env, ty, term, prime(term),
                           fv | {primed(n) for n in fv})
        # A `fun` term applied to the binders of a product's relation is a
        # redex too, which the kernel contracts as it checks.
        if redex:
            expected = beta_normalize(expected)
        check(env, tctx, term_r, expected, STAR)
        return True
    except (TypeCheckError, ValueError):
        return False
