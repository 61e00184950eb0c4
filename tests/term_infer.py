"""Type inference on terms, by substitution, used as an oracle.

This is the checker the kernel had before it typed on evaluator values:
types are terms in a named `Context`, and a product telescope is opened by
one pending simultaneous substitution (`Telescope`), reduced to weak head
normal form only where it is not syntactically a product.  The tests
compare the kernel's `infer` against `term_infer` by `conv`.

It is compared only on shadow-free terms, such as the elaborator makes:
its Lam arm returns `Prod(binder, annotation, body_type)` as it stands, so
a binder that shadows an earlier one captures that one's occurrences in
the body's type.  `term_infer` of `fun (A : Set0) (x : A) (A : Set0) => x`
is `forall (A : Set0) (x : A) (A : Set0), A`, whose result is the second
`A`; the kernel reads it back as `forall (A : Set0) (x : A) (A1 : Set0), A`.
"""

from rcic import (
    STAR,
    App,
    Case,
    Const,
    Constr,
    ErrorKind,
    Fix,
    Ind,
    Lam,
    Prod,
    SortT,
    TypeCheckError,
    Var,
    app,
    conv,
    free_vars,
    subtype,
    whnf,
)
from rcic.kernel import axiom_sort, check_guard, is_small, sort_of_product
from rcic.syntax import fresh_name, prods, subst_all, unfold_app


def term_infer(env, ctx, t, mode=STAR):
    """The principal type of `t` in the term context `ctx`, with its head
    reduced."""
    return whnf(env, _infer(env, ctx, t, mode))


def term_check(env, ctx, t, expected, mode=STAR):
    actual = _infer(env, ctx, t, mode)
    if not subtype(env, actual, expected):
        raise TypeCheckError(ErrorKind.NOT_CONVERTIBLE,
                             "term does not have the expected type",
                             term=t, expected=expected, actual=actual)


def term_infer_sort(env, ctx, t, mode=STAR):
    ty = whnf(env, _infer(env, ctx, t, mode))
    if not isinstance(ty, SortT):
        raise TypeCheckError(ErrorKind.NOT_A_SORT, "expected a type", term=t,
                             actual=ty)
    return ty.sort


def _infer(env, ctx, t, mode):
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
            sorts = []
            while type(t) is Prod:
                sorts.append(term_infer_sort(env, ctx, t.domain, mode))
                ctx = ctx.extend(t.binder, t.domain)
                t = t.codomain
            s = term_infer_sort(env, ctx, t, mode)
            for sd in reversed(sorts):
                s = sort_of_product(sd, s)
            return SortT(s)
        case Lam(binder, annotation, body):
            term_infer_sort(env, ctx, annotation, mode)
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


def _infer_spine(env, ctx, t, mode):
    nodes = []
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

    def __init__(self, env, ty):
        self.env = env
        self.ty = ty
        self.pending = {}

    def expose(self):
        if type(self.ty) is not Prod:
            self.ty = whnf(self.env, self.rest())
            self.pending = {}
        return type(self.ty) is Prod

    def domain(self):
        return subst_all(self.ty.domain, self.pending)

    def fresh(self, base, avoid):
        """A name from `base` outside `avoid` and the free names of the
        codomain with `pending` applied."""
        prod = self.ty
        taken = set(avoid)
        for name in free_vars(prod.codomain):
            value = self.pending.get(name)
            if value is None or name == prod.binder:
                taken.add(name)
            else:
                taken |= free_vars(value)
        return fresh_name(base, taken)

    def bind(self, value):
        self.pending[self.ty.binder] = value
        self.ty = self.ty.codomain

    def rest(self):
        return subst_all(self.ty, self.pending)


def instantiate(env, ty, params, what, avoid=frozenset()):
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
    binders = []
    while tele.expose():
        name = tele.fresh(tele.ty.binder, taken)
        binders.append((name, tele.domain()))
        taken.add(name)
        tele.bind(Var(name))
    return binders, tele.ty


def _infer_case(env, ctx, t, mode):
    decl = env.inductive(t.ind)
    if decl is None:
        raise TypeCheckError(ErrorKind.UNBOUND_VARIABLE,
                             f"unknown inductive {t.ind}", term=t)
    if len(t.params) != decl.params:
        raise TypeCheckError(ErrorKind.ARITY_MISMATCH,
                             f"case over {t.ind} takes {decl.params} "
                             f"parameters, got {len(t.params)}", term=t)
    if len(t.branches) != len(decl.constructors):
        raise TypeCheckError(ErrorKind.ARITY_MISMATCH,
                             f"case over {t.ind} needs "
                             f"{len(decl.constructors)} branches, got "
                             f"{len(t.branches)}", term=t)

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

    motive = Telescope(env, _infer(env, ctx, t.motive, mode))
    idx_vars = {}
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
        fields, end = instantiate(env, cty, t.params, "constructor type",
                                  avoid)
        chead, cargs = unfold_app(end)
        if not (isinstance(chead, Ind) and chead.name == decl.name):
            raise TypeCheckError(ErrorKind.ILL_FORMED_INDUCTIVE,
                                 f"constructor does not build {decl.name}",
                                 actual=end)
        con_app = app(Constr(cname), *t.params, *(Var(n) for n, _ in fields))
        expected_branch = app(t.motive, *cargs[decl.params:], con_app)
        term_check(env, ctx, branch, prods(fields, expected_branch), mode)

    return app(t.motive, *actual_indices, t.scrutinee)


def _infer_fix(env, ctx, t, mode):
    term_infer_sort(env, ctx, t.annotation, mode)
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
    term_check(env, ctx.extend(t.binder, t.annotation), t.body, t.annotation,
               mode)
    check_guard(env, t)
    return t.annotation
