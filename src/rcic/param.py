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

Every binder the output makes is named by one function, `_bind`, and one
rule, Barendregt's variable convention: it keeps its name unless the name
is free in what the output holds below it in place of source variables
(the images of the renaming, its `taken` set, and a relation's related
terms), and then takes the first fresh name outside those names and the
source variables free in its scope.  A binder that stands for no source
binder (a relation space's pair, a case's motive binders) also avoids
every name its scope may use.  `fun` telescopes, product telescopes and
application spines are read in loops, and the search for a fresh binder
name along a telescope resumes where the last one stopped, so the cost is
linear in the output.

Relations are built in beta normal form: `_relate` gives the relation of
a type at two terms, `[T] a a'`, directly, as a sort's relation space or a
product's function space would read once applied and reduced.  The
translation commutes with beta (the relation of `(fun x => b) a` reduces
to that of `b[a/x]`), so `_prepare` normalises a source term that holds a
redex, and the entry points translate the normal forms: the witnesses and
relations they declare hold no redex, and each of their binders is named
once.  Normalisation ends only on a well-typed term, so
`abstraction_check` has the kernel check its context, type and term first.

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
    infer_sort,
)


def primed(name: str) -> str:
    return name + PRIME_SUFFIX


def relation_name(name: str) -> str:
    """The name of a local's witness (a Var) or of a global's relation (a
    Const, Ind or Constr); the node kind tells the two apart."""
    return name + WITNESS_SUFFIX


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


def _prepare(env: GlobalEnv, *terms: Term, skip: str = "",
             ) -> tuple[Term, ...]:
    """Make `terms` ready to translate, and return them in beta normal
    form.  Reject a term that already uses the reserved name suffixes,
    naming the first such name in sorted order, term by term; then declare
    the relation of every global the terms mention, except the inductive
    `skip`, once each in order of first mention.  One walk per term finds
    the globals, the names `syntax.names` would list (Vars, Consts and
    binders) and whether it holds a redex (an App whose head is a Lam),
    which `beta_normalize` then contracts; a term with none is returned
    as it is."""
    needed: dict[tuple[type, str], None] = {}
    normal = []
    for t in terms:
        used: set[str] = set()
        redex = False
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
        normal.append(beta_normalize(t) if redex else t)
    needed.pop((Ind, skip), None)
    for kind, name in needed:
        if kind is Const:
            _ensure_definition(env, name)
        else:
            translate_inductive(env, _inductive(env, name))
    return tuple(normal)


class _Renaming:
    """Where the translation puts the variables of the source: `images`
    maps the name of a source variable x, of its copy x' or of its witness
    x_R to the term that stands for it in the output, for each one that is
    not itself; `taken` holds every name free in those terms.

    A source binder whose triple is renamed, a fix (whose name and copy
    stand for the definition being translated) and a case's motive
    binders (which become the case's index and scrutinee triples) add
    entries.  The output is built with the images in place, so nothing is
    substituted over it afterwards.  A binder the output makes for a
    source binder keeps its name unless `taken` holds it (`_bind`).
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


def _bind(name: str, taken: frozenset[str] | set[str],
          *scope: frozenset[str], resume: dict[str, int] | None = None,
          ) -> str:
    """The name an output binder `name` takes: itself unless `taken` holds
    it, and then the first fresh name `name{i}` outside `taken` and the
    names of `scope`.

    `taken` holds the names free in what the output holds below the
    binder in place of source variables: the images of the renaming, the
    related terms of a relation, and, for a binder that stands for no
    source binder, every name its scope may use.  `scope` holds the source
    variables free in the binder's scope.  A candidate ends in a digit, so
    it is never the copy or the witness of one of them.  With `resume`, the
    search starts where the last one for `name` found the first candidate
    outside `taken`, which only grows along a telescope."""
    if name not in taken:
        return name
    new = fresh_name(name, taken, resume.get(name, 1) if resume else 1)
    if resume is not None:
        resume[name] = int(new[len(name):])
    while any(new in names for names in scope):
        new = fresh_name(name, taken, int(new[len(name):]) + 1)
    return new


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
        if kind is Prod:
            fv = fv | {t.binder}
        base = _bind("x" if kind is SortT else "f", ren.taken | fv)
        copy = _bind(primed(base), ren.taken, fv)
        return Lam(base, _kept(t, ren), Lam(copy, _copy(t, ren), _relate(
            env, t, Var(base), Var(copy), ren)))
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
            base, copy, rel = (_bind(n, taken, fv_ann, free_vars(body))
                               for n in (base, copy, rel))
        ann_l, ann_c = _kept(ann, ren), _copy(ann, ren)
        levels.append((base, ann_l, copy, ann_c, rel,
                       _relate(env, ann, Var(base), Var(copy), ren)))
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
    witness.  The fix's own witness is bound like any other binder, so it
    captures no image of the renaming."""
    raw, copy = ((alias.raw, alias.primed) if alias is not None
                 else (_kept(t, ren), _copy(t, ren)))
    rel = relation_name(t.binder)
    rel_r = _bind(rel, ren.taken, free_vars(t), free_vars(raw))
    inner = ren.bind({t.binder: raw, primed(t.binder): copy, rel: Var(rel_r)})
    if type(t.body) is Lam:
        body_r = _translate_lams(env, t.body, inner, Alias(raw, copy),
                                 t.decreasing)
    else:
        body_r = _translate(env, t.body, inner, Alias(raw, copy))
    return Fix(rel_r, _relate(env, t.annotation, raw, copy, ren), body_r,
               3 * t.decreasing + 2)


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
            ren: _Renaming = _NO_RENAMING) -> Term:
    """`[t] a a2`, the relation of the type `t` at the terms `a` and `a2`:
    the beta normal form of `app(_translate(env, t), a, a2)`, with the
    source variables renamed by `ren`, built directly.

    A sort s gives `a -> a2 -> s^`.  A product telescope gives, in one
    loop, a binder triple x, x', x_R per source binder, x_R ranging over
    the domain's relation at x and x', and then the codomain's relation at
    `a x ...` and `a2 x' ...`.  Any other type gives its translation
    applied to `a` and `a2`.

    Each triple is the one `_translate` picks for the binder; a name of it
    that is free in `a` or `a2` or in `ren.taken` is then renamed on its
    own (`_bind`).  The names a binder must avoid grow along the
    telescope, and the search for a fresh one resumes where the last one
    for the same base stopped, so each level costs the same.
    """
    levels = []
    if type(t) is Prod:
        # The names the binders avoid: those free in the images of `ren`
        # and in the related terms, which grow along the telescope.
        taken = set(ren.taken)
        taken |= free_vars(a)
        taken |= free_vars(a2)
        resume: dict[str, int] = {}
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
        if base in taken or copy in taken or rel in taken:
            if fv_cod is None:
                fv_cods = _codomain_names(t)
                fv_cod = fv_cods.pop()
            base, copy, rel = (_bind(n, taken, fv_dom, fv_cod, resume=resume)
                               for n in (base, copy, rel))
        v, v2 = Var(base), Var(copy)
        levels.append((base, _kept(dom, ren), copy, _copy(dom, ren), rel,
                       _relate(env, dom, v, v2, ren)))
        a, a2 = App(a, v), App(a2, v2)
        taken.add(base)
        taken.add(copy)
        if binder != "_":
            inner = ren.rebind(binder, base, copy, rel)
            if inner.taken is not ren.taken:
                taken |= inner.taken
            ren = inner
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

    # The names the motive's binders avoid: the source variables free in
    # the case, with their copies and witnesses, the names free in the
    # images of `ren`, and, in a guarded case, those free in the alias,
    # which its motive holds.
    taken = {n for y in free_vars(t)
             for n in (y, primed(y), relation_name(y))}
    taken |= ren.taken
    if guarded:
        taken |= free_vars(alias.raw)
        taken |= free_vars(alias.primed)

    # Instantiate the relation's arity with the tripled parameters, then
    # read off the telescope it expects: three binders per source index,
    # then the two related scrutinees (the arity's last two binders), then
    # their witness.  A declared arity is a syntactic product telescope.
    arity_binders, _ = strip_prods(rdecl.arity)
    targets: list[str] = []
    for binder, _ in arity_binders[len(params3):-2]:
        targets.append(_bind(binder if binder != "_" else "i", taken))
        taken.add(targets[-1])
    a = _bind("a", taken)
    a_c = _bind(primed(a), taken)
    targets += [a, a_c, _bind(relation_name(a), taken)]
    binders = open_prods(rdecl.arity, params3, targets[:-1])
    rel_ty = app(Ind(rdecl.name), *params3, *map(Var, targets[:-1]))
    binders.append((targets[-1], rel_ty))

    if guarded:
        # The alias at the motive's own scrutinee and indices: the guard,
        # and each index of its type that is a variable, become the
        # motive's binders, in the alias and in its copy.  An index that is
        # not a variable stays, and the case fails to check.
        (guard, guard_c), types = alias.guard, alias.guard_type
        to_left, to_right = {guard: Var(a)}, {guard_c: Var(a_c)}
        indices = [unfold_app(ty)[1][len(t.params):] for ty in types]
        for i, (index, index_c) in enumerate(zip(*indices)):
            if type(index) is Var and type(index_c) is Var:
                to_left[index.name] = Var(targets[3 * i])
                to_right[index_c.name] = Var(targets[3 * i + 1])
        left = subst_all(alias.raw, to_left)
        right = subst_all(alias.primed, to_right)
    else:
        left = Case(t.ind, Var(a), tuple(params3[0::3]),
                    _kept(t.motive, ren),
                    tuple(_kept(b, ren) for b in t.branches))
        right = Case(t.ind, Var(a_c), tuple(params3[1::3]),
                     _copy(t.motive, ren),
                     tuple(_copy(b, ren) for b in t.branches))
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
        rel = _relate(env, body, left, right, inner)
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
        ty, body = _prepare(env, defn.type, defn.body)
        # The definition's own name is a definitional alias for its body,
        # which keeps the generated witness referencing `name` instead of
        # copies of the body.
        self_ref = Alias(Const(name), Const(name))
        body_r = _translate(env, body, alias=self_ref)
        ty_r = _relate(env, ty, Const(name), Const(name))
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

    arity, *ctys = _prepare(env, decl.arity,
                            *(cty for _, cty in decl.constructors),
                            skip=decl.name)
    ctors = tuple((relation_name(c), _relate(env, cty, Constr(c), Constr(c)))
                  for (c, _), cty in zip(decl.constructors, ctys))
    rdecl = InductiveDecl(rn, 3 * decl.params,
                          _relate(env, arity, Ind(decl.name), Ind(decl.name)),
                          ctors)
    declare_inductive(env, rdecl, STAR)
    return rdecl


def translate_context(env: GlobalEnv, ctx: Context) -> Context:
    """Triple every context entry: the original, its copy, its witness."""
    out = Context()
    for name, ty in ctx:
        if is_reserved(name):
            raise ValueError(f"context name {name!r} uses a reserved suffix")
        (normal,) = _prepare(env, ty)
        rel = _relate(env, normal, Var(name), Var(primed(name)))
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
        # Only well-typed terms are sure to have a beta normal form, so the
        # kernel checks the context, the type and the term before
        # `translate_context` and `_prepare` normalise them.
        scope = Context()
        for name, entry in ctx:
            infer_sort(env, scope, entry, STAR)
            scope = scope.extend(name, entry)
        infer_sort(env, ctx, ty, STAR)
        check(env, ctx, term, ty, STAR)
        tctx = translate_context(env, ctx)
        check(env, tctx, prime(term), prime(ty), STAR)
        normal, normal_ty = _prepare(env, term, ty)
        # A `fun` term applied to the binders of a product's relation is a
        # redex, which the kernel contracts as it checks.
        expected = _relate(env, normal_ty, normal, prime(normal))
        check(env, tctx, _translate(env, normal), expected, STAR)
        return True
    except (TypeCheckError, ValueError):
        return False
