"""A small dependently typed kernel with a binary relational translation.

The pieces:

- syntax: terms, sorts, declarations, contexts, substitution
- kernel: reduction, conversion, type checking, inductive and guard checks
- param: the relational translation and the abstraction check
- frontend: concrete syntax, parsing, elaboration
- printer: rendering terms and declarations back to concrete syntax
- cli: the rcic command
"""

from pathlib import Path

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
    lams,
    prods,
    subst,
    type_sort,
)
from .kernel import (
    FULL,
    STAR,
    EliminationMode,
    ErrorKind,
    TypeCheckError,
    axiom_sort,
    beta_normalize,
    check,
    check_inductive,
    conv,
    declare_definition,
    declare_inductive,
    infer,
    infer_sort,
    is_small,
    sort_of_product,
    subsort,
    subtype,
    whnf,
)
from .param import (
    NameTriple,
    abstraction_check,
    prime,
    primed,
    relation_name,
    relation_sort,
    translate_context,
    translate_definition,
    translate_inductive,
)
# abstraction_check, parse_term: used by the README example and bench/run.py.
from .frontend import ParseError, declare, elaborate, parse_file, parse_term
from .printer import print_definition, print_inductive, print_term


def prelude_path() -> Path:
    """The bundled standard prelude of inductives and definitions."""
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
    "NameTriple",
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
    "axiom_sort",
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
    "is_small",
    "lams",
    "parse_file",
    "parse_term",
    "prelude_path",
    "prime",
    "primed",
    "print_definition",
    "print_inductive",
    "print_term",
    "prods",
    "relation_name",
    "relation_sort",
    "sort_of_product",
    "subsort",
    "subst",
    "subtype",
    "translate_context",
    "translate_definition",
    "translate_inductive",
    "type_sort",
    "whnf",
]
