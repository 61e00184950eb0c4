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
final names, so nothing is substituted over the output afterwards, and the
names a new binder must avoid come from the source's cached free
variables, mapped through the renaming, never from a walk over nodes just
built.  `fun` telescopes, product telescopes and application spines are
read in loops, and the search for a fresh binder name along a telescope
resumes where the last one stopped, so the cost is linear in the output.

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
    globals unchanged."""
    kind = type(t)
    if kind is Var:
        return Var(primed(t.name))
    if kind is Prod or kind is Lam or kind is Fix:
        dom, body = children(t)
        return rebuild_binder(t, primed(t.binder), prime(dom), prime(body))
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
    substituted over it afterwards.  A binder the output makes is named as
    a capture-avoiding substitution of the images would name it
    (`_avoiding`); `taken` makes that test one set lookup when it cannot
    capture.
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


def _renamed(ren: _Renaming, *pairs: tuple[str, str]) -> _Renaming:
    """`ren` with each name the output picked for a binder, `(picked,
    final)`, renamed to the name it took to capture no image: the terms
    built around the picked names then see the final ones."""
    entries = {old: Var(new) for old, new in pairs if old != new}
    return ren.bind(entries) if entries else ren


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


def _in_translation(t: Term, name: str,
                    fv: frozenset[str] | None = None) -> bool:
    """Whether `name`, a source variable x, its copy x' or its witness
    x_R, is free in the translation of `t`, from `t`'s free variables: the
    witness of every free variable is, and a variable itself and its copy
    are unless `t` uses it only as the head of an application or as a
    scrutinee, which the translation replaces by its witness.  `fv` are
    the names free in `t`, if the caller has them."""
    kind = type(t)
    if kind is SortT:
        return False
    y = _stem(name)
    if y not in (free_vars(t) if fv is None else fv):
        return False
    if kind is Prod or name.endswith(WITNESS_SUFFIX):
        return True
    while True:
        kind = type(t)
        if kind is App:
            t, args = unfold_app(t)
            if any(y in free_vars(arg) for arg in args):
                return True
        elif kind is Lam:
            if y in free_vars(t.annotation):
                return True
            if t.binder == y:
                return False
            t = t.body
        elif kind is Case:
            if any(y in free_vars(u) for u in (*t.params, t.motive,
                                                *t.branches)):
                return True
            t = t.scrutinee
        else:
            return kind is not Var


def _avoiding(name: str, ren: _Renaming, full: frozenset[str],
              scope: Term | None = None, own: str = "") -> str:
    """The name an output binder `name` keeps when the images of `ren`
    are in place below it, as capture-avoiding substitution of them would
    leave it: `name` itself unless an image it would capture is live in
    its scope, and then the first fresh name outside the scope's names,
    the live entries and their images' names.  The scope holds the
    variables of `full`, with their copies and witnesses, and the
    translation of `scope`, where the source binder `own` shadows."""
    if name not in ren.taken:
        return name
    live = [(k, v) for k, v in ren.images.items()
            if k != name and _stem(k) != own
            and (_stem(k) in full
                 or scope is not None and _in_translation(scope, k))]
    if not any(name in free_vars(v) for _, v in live):
        return name
    avoid = _tripled(full)
    if scope is not None:
        avoid |= _tripled(free_vars(scope) - {own})
    avoid.update(k for k, _ in live)
    for _, v in live:
        avoid |= free_vars(v)
    return fresh_name(name, avoid)


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
        base, copy = _avoiding(f, ren, fv), _avoiding(f_c, ren, fv)
        return Lam(base, _kept(t, ren), Lam(copy, _copy(t, ren), _relate(
            env, t, Var(base), Var(copy), (f, f_c),
            _renamed(ren, (f, base), (f_c, copy)))))
    if kind is Fix:
        return _translate_fix(env, t, ren, alias)
    raise TypeError(f"not a term: {t!r}")


def _translate_lams(env: GlobalEnv, t: Lam, ren: _Renaming,
                    alias: Alias | None) -> Term:
    """The witness of a `fun` telescope, read in one loop: a triple per
    source binder, the last ranging over the annotation's relation, around
    the witness of the body.  A `_` binder becomes x, x1, ..., avoiding
    the names its scope uses.  An alias grows by the binder's pair."""
    levels = []
    if alias is not None:
        # The names free in the alias and in its copy, as it grows.
        raw_names = set(free_vars(alias.raw))
        copy_names = set(free_vars(alias.primed))
    while type(t) is Lam:
        binder, ann, body = t.binder, t.annotation, t.body
        fv_ann = _NO_NAMES if type(ann) in _CLOSED else free_vars(ann)
        if binder == "_":
            x = fresh_name("_", fv_ann | free_vars(body))
        elif binder in fv_ann:
            x = fresh_name(binder, fv_ann)
        else:
            x = binder
        x_c, x_r = x + PRIME_SUFFIX, x + WITNESS_SUFFIX
        base, copy, rel = x, x_c, x_r
        inner = ren
        if ren.taken:
            base = _avoiding(x, ren, fv_ann, body, binder)
            copy = _avoiding(x_c, ren, fv_ann, body, binder)
            rel = _avoiding(x_r, ren, fv_ann, body, binder)
            inner = _renamed(ren, (x, base), (x_c, copy))
        levels.append((base, _kept(ann, ren), copy, _copy(ann, ren), rel,
                       _relate(env, ann, Var(base), Var(copy), (x, x_c),
                               inner)))
        if (alias is not None and binder != "_"
                and base not in raw_names and copy not in copy_names):
            alias = Alias(App(alias.raw, Var(base)),
                          App(alias.primed, Var(copy)), alias.guard,
                          alias.guard_type)
            raw_names.add(base)
            copy_names.add(copy)
        else:
            alias = None
        if binder != "_":
            ren = ren.rebind(binder, base, copy, rel)
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
    spine, _ = strip_lams(t.body)
    guard = guard_type = None
    if t.decreasing < len(spine) and spine[t.decreasing][0] != "_":
        guard, guard_type = spine[t.decreasing]
    rel = relation_name(t.binder)
    inner = ren.bind({t.binder: raw, primed(t.binder): copy, rel: Var(rel)})
    body_r = _translate(env, t.body, inner,
                        Alias(raw, copy, guard, guard_type))
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
    source variables renamed by `ren`, built directly.  `names` are the
    names free in `a` and `a2`, as the source names them.

    A sort s gives `a -> a2 -> s^`.  A product telescope gives, in one
    loop, a binder triple x, x', x_R per source binder, x_R ranging over
    the domain's relation at x and x', and then the codomain's relation at
    `a x ...` and `a2 x' ...`.  Any other type gives its translation
    applied to `a` and `a2`.

    Each triple is the one `_translate` picks for the binder; a name of it
    is then renamed, on its own, as `kernel.beta_normalize` would rename
    it in reducing that application (`_bind`), so the relation is the
    same term, binder names included.  The names a binder must avoid grow
    along the telescope, and the search for a fresh one resumes where the
    last one for the same base stopped, so each level costs the same.
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
        if fv_cods is None and binder == "_":
            fv_cods = _codomain_names(t)
        fv_cod = fv_cods.pop() if fv_cods is not None else None
        if binder == "_":
            x = fresh_name("_", fv_dom | fv_cod)
        elif binder in fv_dom:
            x = fresh_name(binder, fv_dom)
        else:
            x = binder
        base, copy, rel = x, x + PRIME_SUFFIX, x + WITNESS_SUFFIX
        if ren.taken or base in names or copy in names or rel in names:
            if fv_cod is None:
                fv_cods = _codomain_names(t)
                fv_cod = fv_cods.pop()
            level = (base, copy, rel, dom, cod, fv_dom, fv_cod)
            base = _bind(base, 0, level, names, ren, resume)
            copy = _bind(copy, 1, level, names, ren, resume)
            rel = _bind(rel, 2, level, names, ren, resume)
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


def _in_level(name: str, part: int, level: tuple) -> bool:
    """Whether `name` is free in the body of the base (`part` 0), copy (1)
    or witness (2) binder of a level of `app(_translate(env, t), a, a2)`
    for a product telescope `t`, before it is reduced: the witness binder
    is over the codomain's relation at x and x', the copy binder also over
    the domain's relation, the base binder also over the domain's copy.
    A level is the triple's names, the domain, the codomain and the names
    free in each."""
    base, copy, rel, dom, cod, fv_dom, fv_cod = level
    if part == 0:
        if name.endswith(PRIME_SUFFIX) and _stem(name) in fv_dom:
            return True
        if name == copy:
            return False
        part = 1
    if part == 1:
        if _in_translation(dom, name, fv_dom):
            return True
        if name == rel:
            return False
    return (name == base or name == copy
            or _in_translation(cod, name, fv_cod))


def _bind(name: str, part: int, level: tuple,
          names: set[str], ren: _Renaming, resume: dict[str, int]) -> str:
    """The name a binder `name` of a level takes over its body when the
    names `names` (those free in the related terms) and the images of
    `ren` are substituted below it.

    It keeps `name` unless that would capture one of `names` or an image
    live in the body, and then takes the first fresh name outside those
    and the body's free names, as `kernel.beta_normalize` renames a binder.
    The search starts where the last one for `name` found the first
    candidate outside `names`, which only grow along the telescope.  An
    image live only through the related terms is captured as substitution
    would capture it, and the name is then renamed as `_avoiding` does."""
    live: set[str] = set()
    if ren.taken and (name in names or name in ren.taken):
        for k, v in ren.images.items():
            if k != name and _in_level(k, part, level):
                live |= free_vars(v)
    new = name
    if name in names or name in live:
        new = fresh_name(name, names, resume.get(name, 1))
        resume[name] = int(new[len(name):])
        while new in live or _in_level(new, part, level):
            new = fresh_name(name, names, int(new[len(name):]) + 1)
    if new in ren.taken:
        through = [(k, v) for k, v in ren.images.items()
                   if k != new and k in names]
        if any(new in free_vars(v) for _, v in through):
            avoid = names | live
            avoid.update(k for k, _ in through)
            for _, v in through:
                avoid |= free_vars(v)
            captured = new
            new = fresh_name(captured, avoid)
            while _in_level(new, part, level):
                avoid.add(new)
                new = fresh_name(captured, avoid)
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
               and t.scrutinee.name == alias.guard)

    # The names, as the source names them, free in the motive, its copy
    # and its translation, in the branches and their copies, in the
    # tripled parameters, and in the alias.
    fv_params = frozenset().union(*map(free_vars, t.params))
    fv_branches = frozenset().union(*map(free_vars, t.branches))
    fv_motive = free_vars(t.motive)
    avoid = _tripled(fv_motive | fv_params)
    avoid |= fv_branches
    avoid.update(map(primed, fv_branches))
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
    scope = fv_params | fv_motive | (alias_names if guarded else fv_branches)
    final = [_avoiding(n, ren, scope) for n in targets]
    binders = open_prods(rdecl.arity, params3, final[:-1])
    rel_ty = app(Ind(rdecl.name), *params3, *map(Var, final[:-1]))
    binders.append((final[-1], rel_ty))

    if guarded:
        # The alias at the motive's own scrutinee and indices: an index of
        # the guard's type that is a variable becomes the index binder.  An
        # index that is not a variable stays, and the case fails to check.
        to_left = {t.scrutinee.name: (pair.base, final[-3])}
        to_right = {t.scrutinee.name: (pair.copy, final[-2])}
        _, indices = unfold_app(alias.guard_type)
        for i, index in enumerate(indices[len(t.params):]):
            if type(index) is Var:
                to_left[index.name] = idx_names[3 * i], final[3 * i]
                to_right[index.name] = idx_names[3 * i + 1], final[3 * i + 1]
        left = subst_all(alias.raw, _image_map(ren, to_left, ""))
        right = subst_all(alias.primed,
                          _image_map(ren, to_right, PRIME_SUFFIX))
        names = {to_left[n][0] if n in to_left else n for n in alias_names}
        names.update(to_right[n[:-1]][0] if n[:-1] in to_right else n
                     for n in free_vars(alias.primed))
    else:
        left = Case(t.ind, Var(final[-3]), tuple(params3[0::3]),
                    _kept(t.motive, ren),
                    tuple(_kept(b, ren) for b in t.branches))
        right = Case(t.ind, Var(final[-2]), tuple(params3[1::3]),
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
            entries.update(zip(triple, map(Var, final[3 * i:3 * i + 3])))
    inner = _renamed(ren.bind(entries) if entries else ren,
                     *zip(targets, final))
    if bound == len(targets):
        rel = _relate(env, body, left, right, names, inner)
    else:
        rel = app(_translate(env, body, inner), *map(Var, final[bound:]),
                  left, right)
    motive = lams(binders, rel)
    return Case(rdecl.name, _translate(env, t.scrutinee, ren), tuple(params3),
                motive, tuple(_translate(env, b, ren) for b in t.branches))


def _image_map(ren: _Renaming, targets: dict[str, tuple[str, str]],
               suffix: str) -> dict[str, Term]:
    """The map that rebinds, in an alias built with the images of `ren`,
    the image of each source variable `y` of `targets` (its copy's, with
    `suffix` a prime) to the Var of the final name `targets[y]` gives."""
    out = {}
    for y, (_, target) in targets.items():
        image = ren.images.get(y + suffix)
        out[image.name if type(image) is Var else y + suffix] = Var(target)
    return out


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
