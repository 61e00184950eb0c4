"""Pretty printer producing concrete syntax the parser reads back.

Case expressions need the global environment: branch constructor names and
the split of the motive into index binders come from the inductive's
declaration, which the term itself no longer carries.
"""

from __future__ import annotations

from .syntax import (
    App,
    Case,
    Const,
    Constr,
    Definition,
    Fix,
    GlobalEnv,
    Ind,
    InductiveDecl,
    Lam,
    Prod,
    SortT,
    Term,
    Var,
    alpha_eq,
    app,
    children,
    free_vars,
    fresh_name,
    global_names,
    names,
    prods,
    strip_prods,
    subst,
    subst_all,
    unfold_app,
)

# Precedence levels: parenthesize when a node's level is below the context.
_BINDER = 0
_ARROW = 1
_APP = 2
_ATOM = 3


def print_term(t: Term, env: GlobalEnv | None = None) -> str:
    """Render `t`; `env` is required if `t` contains a case expression."""
    return _pr(t, _BINDER, env)


def _pr(t: Term, level: int, env: GlobalEnv | None) -> str:
    text, own = _render(t, env)
    return f"({text})" if own < level else text


def _render(t: Term, env: GlobalEnv | None) -> tuple[str, int]:
    kind = type(t)
    if kind is Var or kind is Ind or kind is Constr or kind is Const:
        return t.name, _ATOM
    if kind is App:
        head, args = unfold_app(t)
        parts = [_pr(head, _APP, env)]
        parts += [_pr(a, _ATOM, env) for a in args]
        return " ".join(parts), _APP
    if kind is Prod:
        binders = []
        body: Term = t
        while (isinstance(body, Prod) and body.binder != "_"
               and body.binder in free_vars(body.codomain)):
            name, domain, body = _scope(body)
            binders.append((name, domain))
        if not binders:
            return (f"{_pr(t.domain, _APP, env)} -> "
                    f"{_pr(t.codomain, _ARROW, env)}", _ARROW)
        return (f"forall {_groups(binders, env)}, {_pr(body, _BINDER, env)}",
                _BINDER)
    if kind is Lam:
        binders = []
        body = t
        while isinstance(body, Lam):
            name, annotation, body = _scope(body)
            binders.append((name, annotation))
        return (f"fun {_groups(binders, env)} => {_pr(body, _BINDER, env)}",
                _BINDER)
    if kind is SortT:
        return str(t.sort), _ATOM
    if kind is Fix:
        binder, annotation, body = _scope(t)
        return (f"fix {binder} {{struct {t.decreasing}}} : "
                f"{_pr(annotation, _BINDER, env)} := "
                f"{_pr(body, _BINDER, env)}", _BINDER)
    if kind is Case:
        return _render_case(t, env), _ATOM
    raise ValueError(f"cannot print {t!r}")


def _scope(t: Prod | Lam | Fix) -> tuple[str, Term, Term]:
    """The name `t`'s binder prints under, its domain, and the body it binds.
    The one place names are kept apart: a binder named like a global node
    (Const, Ind or Constr) that occurs in the body would capture it when
    read back, so it becomes `fresh_name(binder, names(t))`."""
    binder = t.binder
    dom, body = children(t)
    if binder in global_names(body):
        new = fresh_name(binder, names(t))
        return new, dom, subst(body, binder, Var(new))
    return binder, dom, body


def _groups(binders: list[tuple[str, Term]], env: GlobalEnv | None) -> str:
    """Binder groups, merging adjacent binders of the same type."""
    groups: list[tuple[list[str], Term]] = []
    for name, ty in binders:
        if (groups and alpha_eq(groups[-1][1], ty)
                and not any(n in free_vars(ty) for n in groups[-1][0])):
            groups[-1][0].append(name)
        else:
            groups.append(([name], ty))
    return " ".join(f"({' '.join(names)} : {_pr(ty, _BINDER, env)})"
                    for names, ty in groups)


def _render_case(t: Case, env: GlobalEnv | None) -> str:
    if env is None:
        raise ValueError("printing a case expression needs the environment")
    decl = env.inductive(t.ind)
    if decl is None:
        raise ValueError(f"unknown inductive {t.ind}")
    n_indices = len(strip_prods(decl.arity)[0]) - decl.params

    motive = t.motive
    binder_names: list[str] = []
    for _ in range(n_indices + 1):
        if not isinstance(motive, Lam):
            raise ValueError(
                f"case motive on {t.ind} must bind {n_indices + 1} name(s)")
        name, _, motive = _scope(motive)
        binder_names.append(name)

    atoms = [_pr(p, _ATOM, env) for p in t.params] + binder_names[:-1]
    head = (f"match {_pr(t.scrutinee, _BINDER, env)} as {binder_names[-1]} "
            f"in {t.ind}")
    if atoms:
        head += " " + " ".join(atoms)
    head += f" return {_pr(motive, _BINDER, env)} with"
    parts = [head]
    for (cname, _), branch in zip(decl.constructors, t.branches):
        parts.append(f"| {cname} => {_pr(branch, _BINDER, env)}")
    parts.append("end")
    return " ".join(parts)


def print_inductive(decl: InductiveDecl, env: GlobalEnv | None = None) -> str:
    """A full inductive declaration, period included."""
    binders, core = strip_prods(decl.arity)
    params = binders[:decl.params]
    bodies = []
    for _, ctype in decl.constructors:
        # The part after the parameters, under the arity's parameter names.
        renaming = {}
        for name, _ in params:
            renaming[ctype.binder] = Var(name)
            ctype = ctype.codomain
        bodies.append(subst_all(ctype, renaming))
    # The parameters bind in the rest of the arity and in every constructor,
    # so each is scoped, and renamed if need be, over all of them at once.
    scope = prods(params, app(prods(binders[decl.params:], core), *bodies))
    params = []
    for _ in range(decl.params):
        name, domain, scope = _scope(scope)
        params.append((name, domain))
    rest, bodies = unfold_app(scope)
    head = f"inductive {decl.name}"
    if params:
        head += f" {_groups(params, env)}"
    ctors = " | ".join(f"{cname} : {_pr(body, _BINDER, env)}" for (cname, _), body
                       in zip(decl.constructors, bodies))
    return f"{head} : {_pr(rest, _BINDER, env)} := {ctors}."


def print_definition(d: Definition, env: GlobalEnv | None = None) -> str:
    """A full definition, period included."""
    return (f"def {d.name} : {_pr(d.type, _BINDER, env)} := "
            f"{_pr(d.body, _BINDER, env)}.")
