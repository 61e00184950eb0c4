"""What each public function does with input the kernel rejects.

Every name in `rcic.__all__` that takes a term or a declaration is called
on an ill-typed redex whose beta reduction never ends, on an unbound
variable and on unknown globals.  Each call gives the documented exception
or result: the checking entry points raise TypeCheckError, or return
False; the builders, the printer and the syntactic walkers return what
they build; the elaborator leaves an unknown name a Var.  None ends in a
RecursionError.

`whnf`, `beta_normalize`, `conv` and `subtype` reduce without checking,
and terminate on well-typed input only, as their docstrings say: they are
called on the unbound and unknown names, not on the redex.  The classes in
`rcic.__all__` only hold what they are given, and `parse_file`,
`parse_term` and `prelude_path` take text or nothing.
"""

import inspect

import pytest

import rcic
from rcic import (
    App,
    Const,
    Constr,
    Context,
    Definition,
    Ind,
    InductiveDecl,
    Lam,
    SortT,
    Term,
    TypeCheckError,
    Var,
    abstraction_check,
    alpha_eq,
    app,
    arrow,
    beta_normalize,
    check,
    check_inductive,
    conv,
    declare,
    declare_definition,
    declare_inductive,
    elaborate,
    free_vars,
    infer,
    infer_sort,
    parse_file,
    parse_term,
    prime,
    print_definition,
    print_inductive,
    print_term,
    subst,
    subtype,
    translate_definition,
    translate_inductive,
    whnf,
)
from rcic.syntax import set_sort

from conftest import fresh_prelude_env

NAT = Ind("Nat")
ZERO = Constr("zero")
OMEGA = Lam("x", NAT, App(Var("x"), Var("x")))

# Each input as a kernel term and as source text.
INPUTS = {
    "redex": (App(OMEGA, OMEGA),
              "(fun (x : Nat) => x x) (fun (x : Nat) => x x)"),
    "unbound variable": (Var("y"), "y"),
    "unknown definition": (Const("nope"), "nope"),
    "unknown inductive": (Ind("Nope"), "Nope"),
}

# Reduce without checking; they terminate on well-typed input only.
REDUCERS = frozenset(("whnf", "beta_normalize", "conv", "subtype"))

# Names in `rcic.__all__` that are functions but take no term or
# declaration.
TEXT_OR_NOTHING = frozenset(("parse_file", "parse_term", "prelude_path"))


def _inductive(t: Term) -> InductiveDecl:
    """`inductive W : Set0 := w : t -> W`, which holds `t` in a field."""
    return InductiveDecl("W", 0, SortT(set_sort(0)),
                         (("w", arrow(t, Ind("W"))),))


def _declare_text(env, text: str) -> None:
    for decl in parse_file(text).decls:
        declare(env, decl)


# (name, call of env, term and text, expected result or exception class).
# A name may have several rows, one per position it takes the input in.
CONTRACTS = [
    ("abstraction_check",
     lambda env, t, s: abstraction_check(env, Context(), t, NAT), False),
    ("abstraction_check",
     lambda env, t, s: abstraction_check(env, Context(), ZERO, t), False),
    ("abstraction_check",
     lambda env, t, s: abstraction_check(env, Context().extend("n", t),
                                         Var("n"), NAT), False),
    ("check", lambda env, t, s: check(env, Context(), t, NAT),
     TypeCheckError),
    ("infer", lambda env, t, s: infer(env, Context(), t), TypeCheckError),
    ("infer_sort", lambda env, t, s: infer_sort(env, Context(), t),
     TypeCheckError),
    ("declare_definition",
     lambda env, t, s: declare_definition(env, "d", NAT, t), TypeCheckError),
    ("declare_definition",
     lambda env, t, s: declare_definition(env, "d", t, ZERO), TypeCheckError),
    ("translate_definition",
     lambda env, t, s: translate_definition(env, "d"), TypeCheckError),
    ("check_inductive", lambda env, t, s: check_inductive(env, _inductive(t)),
     TypeCheckError),
    ("declare_inductive",
     lambda env, t, s: declare_inductive(env, _inductive(t)), TypeCheckError),
    ("translate_inductive",
     lambda env, t, s: translate_inductive(env, _inductive(t)),
     TypeCheckError),
    ("declare", lambda env, t, s: _declare_text(env, f"def d : Nat := {s}."),
     TypeCheckError),
    ("declare",
     lambda env, t, s: _declare_text(env, f"inductive W : Set0 := "
                                          f"w : ({s}) -> W."),
     TypeCheckError),
    ("elaborate",
     lambda env, t, s: isinstance(elaborate(env, parse_term(s)), Term), True),
    ("whnf", lambda env, t, s: whnf(env, t) == t, True),
    ("beta_normalize", lambda env, t, s: beta_normalize(t) is t, True),
    ("conv", lambda env, t, s: conv(env, t, ZERO), False),
    ("subtype", lambda env, t, s: subtype(env, t, NAT), False),
    ("alpha_eq", lambda env, t, s: alpha_eq(t, t), True),
    ("free_vars", lambda env, t, s: free_vars(t) <= {"y"}, True),
    ("subst", lambda env, t, s: isinstance(subst(t, "x", ZERO), Term), True),
    ("prime", lambda env, t, s: isinstance(prime(t), Term), True),
    ("app", lambda env, t, s: app(t, t) == App(t, t), True),
    ("arrow", lambda env, t, s: isinstance(arrow(t, t), Term), True),
    ("print_term", lambda env, t, s: print_term(t, env) == s, True),
    ("print_definition",
     lambda env, t, s: print_definition(Definition("d", NAT, t), env)
     == f"def d : Nat := {s}.", True),
    ("print_inductive",
     lambda env, t, s: isinstance(print_inductive(_inductive(t), env), str),
     True),
]


def test_the_table_covers_every_public_function():
    functions = {name for name in rcic.__all__
                 if inspect.isfunction(getattr(rcic, name))}
    assert {name for name, _, _ in CONTRACTS} == functions - TEXT_OR_NOTHING


@pytest.mark.parametrize("column", INPUTS)
def test_library_contract(column):
    env = fresh_prelude_env()
    t, text = INPUTS[column]
    for name, call, expected in CONTRACTS:
        if column == "redex" and name in REDUCERS:
            continue
        if isinstance(expected, type):
            with pytest.raises(expected):
                call(env, t, text)
        else:
            assert call(env, t, text) is expected, name
    # Nothing rejected was declared.
    assert env.definition("d") is None and env.inductive("W") is None
