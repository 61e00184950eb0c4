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
    free_vars,
    strip_prods,
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
    match t:
        case Var(name) | Ind(name) | Constr(name) | Const(name):
            return name, _ATOM
        case SortT(s):
            return str(s), _ATOM
        case App():
            head, args = unfold_app(t)
            parts = [_pr(head, _APP, env)]
            parts += [_pr(a, _ATOM, env) for a in args]
            return " ".join(parts), _APP
        case Prod(binder, domain, codomain):
            if binder == "_" or binder not in free_vars(codomain):
                return (f"{_pr(domain, _APP, env)} -> {_pr(codomain, _ARROW, env)}",
                        _ARROW)
            binders = [(binder, domain)]
            body = codomain
            while (isinstance(body, Prod) and body.binder != "_"
                   and body.binder in free_vars(body.codomain)):
                binders.append((body.binder, body.domain))
                body = body.codomain
            return (f"forall {_groups(binders, env)}, {_pr(body, _BINDER, env)}",
                    _BINDER)
        case Lam():
            binders = []
            body: Term = t
            while isinstance(body, Lam):
                binders.append((body.binder, body.annotation))
                body = body.body
            return (f"fun {_groups(binders, env)} => {_pr(body, _BINDER, env)}",
                    _BINDER)
        case Fix(binder, annotation, body, decreasing):
            return (f"fix {binder} {{struct {decreasing}}} : "
                    f"{_pr(annotation, _BINDER, env)} := {_pr(body, _BINDER, env)}",
                    _BINDER)
        case Case():
            return _render_case(t, env), _ATOM
    raise ValueError(f"cannot print {t!r}")


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
        binder_names.append(motive.binder)
        motive = motive.body

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
    binders, _ = strip_prods(decl.arity)
    params = binders[:decl.params]
    rest = decl.arity
    for _ in params:
        rest = rest.codomain
    head = f"inductive {decl.name}"
    if params:
        head += f" {_groups(list(params), env)}"
    head += f" : {_pr(rest, _BINDER, env)} :="
    ctors = []
    for cname, ctype in decl.constructors:
        # The part after the parameters, under the arity's parameter names.
        body, names = ctype, {}
        for name, _ in params:
            names[body.binder] = Var(name)
            body = body.codomain
        ctors.append(f"{cname} : {_pr(subst_all(body, names), _BINDER, env)}")
    if not ctors:
        return head + " ."
    return head + " " + " | ".join(ctors) + "."


def print_definition(d: Definition, env: GlobalEnv | None = None) -> str:
    """A full definition, period included."""
    return (f"def {d.name} : {_pr(d.type, _BINDER, env)} := "
            f"{_pr(d.body, _BINDER, env)}.")
