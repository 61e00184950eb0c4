"""Command line driver.

Three commands over .rcic files, sharing one growing global environment
across the files in argument order:

  check        type check every declaration and print `name : type` lines
  translate    additionally print the generated relation declarations
  param-check  run the abstraction check on every definition, printing
               one PASS or FAIL line per definition

Exit status: 0 on success, 1 for type errors, abstraction failures and
declarations nested too deep to check, 2 for parse and I/O errors.
Diagnostics go to stderr as path:line:col: error: ...
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .syntax import Context, DuplicateNameError, GlobalEnv
from .kernel import ErrorKind, FULL, STAR, TypeCheckError, infer, infer_sort
from .frontend import (
    DCheck,
    DDef,
    DInductive,
    DParamCheck,
    ParseError,
    declare,
    elaborate,
    parse_file,
)
from .param import abstraction_check, translate_definition, translate_inductive
from .printer import print_definition, print_inductive, print_term


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcic",
        description="Type checker and relational translator for a small "
                    "dependently typed language.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("files", nargs="+", help="source files, processed in order")
        p.add_argument("--full-elim", action="store_true",
                       help="allow strong elimination over non-small inductives")

    p_check = sub.add_parser("check", help="type check declarations")
    common(p_check)
    p_check.add_argument("--print-universes", action="store_true",
                         help="also print the sort of every printed type")

    p_translate = sub.add_parser(
        "translate", help="type check and print relation declarations")
    common(p_translate)
    p_translate.add_argument("--print-universes", action="store_true",
                             help="also print the sort of every printed type")
    p_translate.add_argument("--def", dest="only", metavar="NAME",
                             help="only print the translation of this global")

    p_param = sub.add_parser(
        "param-check", help="run the abstraction check on every definition")
    common(p_param)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    mode = FULL if args.full_elim else STAR
    env = GlobalEnv()
    failures = 0
    for path in args.files:
        try:
            text = Path(path).read_text()
        except OSError as err:
            print(f"{path}: error: {err}", file=sys.stderr)
            return 2
        try:
            source = parse_file(text)
        except ParseError as err:
            print(f"{path}:{err.line}:{err.col}: error: {err.message}",
                  file=sys.stderr)
            return 2
        for decl in source.decls:
            try:
                failures += _process(env, decl, args, mode)
            except ParseError as err:
                print(f"{path}:{err.line}:{err.col}: error: {err.message}",
                      file=sys.stderr)
                return 2
            except (TypeCheckError, DuplicateNameError, ValueError) as err:
                print(f"{path}:{decl.line}:{decl.col}: error: {err}",
                      file=sys.stderr)
                return 1
            except RecursionError:
                print(f"{path}:{decl.line}:{decl.col}: error: nesting too deep",
                      file=sys.stderr)
                return 1
    return 1 if failures else 0


def _process(env: GlobalEnv, decl, args, mode) -> int:
    """Handle one declaration; returns the number of abstraction failures."""
    command = args.command
    universes = getattr(args, "print_universes", False)
    only = getattr(args, "only", None)

    def show(name: str, ty) -> None:
        line = f"{name} : {print_term(ty, env)}"
        if universes:
            line += f" : {infer_sort(env, Context(), ty, mode)}"
        print(line)

    match decl:
        case DInductive(name):
            ind = declare(env, decl, mode)
            if command in ("check", "translate"):
                show(name, ind.arity)
                for cname, cty in ind.constructors:
                    show(cname, cty)
            if command == "translate" and only in (None, name):
                print(print_inductive(translate_inductive(env, ind).relation, env))
            return 0
        case DDef(name):
            defn = declare(env, decl, mode)
            if command in ("check", "translate"):
                show(name, defn.type)
            if command == "translate" and only in (None, name):
                print(print_definition(translate_definition(env, name), env))
            if command == "param-check":
                ok = abstraction_check(env, Context(), defn.body, defn.type)
                print(f"{'PASS' if ok else 'FAIL'} {name}")
                return 0 if ok else 1
            return 0
        case DCheck(raw_term):
            term = elaborate(env, raw_term)
            ty = infer(env, Context(), term, mode)
            if command in ("check", "translate"):
                show(print_term(term, env), ty)
            return 0
        case DParamCheck(name):
            if command == "param-check":
                return 0  # every definition is checked as it is declared
            defn = env.definition(name)
            if defn is None:
                raise TypeCheckError(ErrorKind.UNBOUND_VARIABLE,
                                     f"paramcheck needs a definition: {name}")
            ok = abstraction_check(env, Context(), defn.body, defn.type)
            print(f"{'PASS' if ok else 'FAIL'} {name}")
            return 0 if ok else 1
    raise TypeError(f"not a declaration: {decl!r}")


if __name__ == "__main__":
    sys.exit(main())
