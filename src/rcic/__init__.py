"""A small dependently typed kernel with a binary relational translation.

The pieces:

- syntax: terms, sorts, declarations, contexts, substitution
- kernel: reduction, conversion, type checking, inductive and guard checks
- param: the relational translation and the abstraction check
- frontend: concrete syntax, parsing, elaboration
- printer: rendering terms and declarations back to concrete syntax
- cli: the rcic command
"""

from .syntax import (
    PROP,
    App,
    Case,
    Const,
    Constr,
    Context,
    Definition,
    DuplicateNameError,
    Fix,
    GlobalEnv,
    Ind,
    InductiveDecl,
    Lam,
    Prod,
    Sort,
    SortT,
    Term,
    UniverseError,
    Var,
    alpha_eq,
    app,
    arrow,
    free_vars,
    subst,
)
from .kernel import (
    FULL,
    STAR,
    EliminationMode,
    ErrorKind,
    TypeCheckError,
    beta_normalize,
    check,
    check_inductive,
    conv,
    declare_definition,
    declare_inductive,
    infer,
    infer_sort,
    subtype,
    whnf,
)
from .param import (
    abstraction_check,
    prime,
    translate_definition,
    translate_inductive,
)
# abstraction_check, parse_term: used by the README example and bench/run.py.
from .frontend import ParseError, declare, elaborate, parse_file, parse_term
from .printer import print_definition, print_inductive, print_term


def prelude_path():
    """The bundled standard prelude of inductives and definitions, as a
    pathlib.Path.  pathlib is imported here, not with the package: the
    command line does not need it."""
    from pathlib import Path
    return Path(__file__).with_name("prelude.rcic")


__all__ = [
    "PROP",
    "App",
    "Case",
    "Const",
    "Constr",
    "Context",
    "Definition",
    "DuplicateNameError",
    "EliminationMode",
    "ErrorKind",
    "FULL",
    "Fix",
    "GlobalEnv",
    "Ind",
    "InductiveDecl",
    "Lam",
    "ParseError",
    "Prod",
    "STAR",
    "Sort",
    "SortT",
    "Term",
    "TypeCheckError",
    "UniverseError",
    "Var",
    "abstraction_check",
    "alpha_eq",
    "app",
    "arrow",
    "beta_normalize",
    "check",
    "check_inductive",
    "conv",
    "declare",
    "declare_definition",
    "declare_inductive",
    "elaborate",
    "free_vars",
    "infer",
    "infer_sort",
    "parse_file",
    "parse_term",
    "prelude_path",
    "prime",
    "print_definition",
    "print_inductive",
    "print_term",
    "subst",
    "subtype",
    "translate_definition",
    "translate_inductive",
    "whnf",
]
