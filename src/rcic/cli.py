"""Command line driver.

Three commands over .rcic files, sharing one growing global environment
across the files in argument order:

  check        type check every declaration and print `name : type` lines
  translate    additionally print the generated relation declarations
  param-check  declare the relation of every definition as `translate`
               does, printing PASS if it checks and FAIL if not; a
               declared relation is reused by every later reference

Exit status: 0 on success, 1 for type errors, abstraction failures and
declarations nested too deep to check, 2 for parse and I/O errors (a file
that is not UTF-8 is an I/O error).
Diagnostics go to stderr as path:line:col: error: ...  A type too deep
to print in a diagnostic is shown as `<too deep to print>`.

A run pauses the cyclic garbage collector and restores the caller's
setting when it returns or raises.  Everything a run builds (tokens,
terms, declarations, kernel values) lives until it ends, so the
collector's passes over that growing heap find nothing to free.  The only
reference cycles a run makes are argparse's, about 150 objects, which one
pass over the young objects frees right after the arguments are parsed,
and those of the exceptions of failed relations, which the environment
keeps anyway (`GlobalEnv.record_failure`).  The library itself keeps the
interpreter's default policy.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from .syntax import Context, DuplicateNameError, GlobalEnv
from .kernel import FULL, STAR, TypeCheckError, infer_sort
from .frontend import (DCheck, DDef, DInductive, DParamCheck, ParseError,
                       declare, parse_file)
from .param import translate_definition, translate_inductive
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
    """Run the command line `argv` with the cyclic garbage collector
    paused, and return the exit status.  The run is not a function of its
    own: one more Python frame under every declaration would lower each
    nesting depth the run can check."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_arg_parser().parse_args(argv)
        # The parser, its actions and the help formatters it made are
        # reference cycles; one pass over the young objects frees them
        # before the run's heap grows.
        gc.collect(0)
        mode = FULL if args.full_elim else STAR
        env = GlobalEnv()
        failures = 0
        for path in args.files:
            try:
                text = Path(path).read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as err:
                print(f"{path}: error: {err}", file=sys.stderr)
                return 2
            try:
                # Parsing the file and elaborating a declaration raise
                # ParseError.
                for decl in parse_file(text).decls:
                    try:
                        failures += _process(env, decl, args, mode)
                    except (TypeCheckError, DuplicateNameError,
                            ValueError) as err:
                        _report(env, f"{path}:{decl.line}:{decl.col}", err)
                        return 1
                    except RecursionError:
                        print(f"{path}:{decl.line}:{decl.col}: error: "
                              "nesting too deep", file=sys.stderr)
                        return 1
            except ParseError as err:
                print(f"{path}:{err.line}:{err.col}: error: {err.message}",
                      file=sys.stderr)
                return 2
        return 1 if failures else 0
    finally:
        if enabled:
            gc.enable()


def _report(env: GlobalEnv, where: str, err: Exception) -> None:
    """Print the error `err` at `where`, then the expected and actual types
    it compared, if any; a type too deep to print shows a placeholder."""
    print(f"{where}: error: {err}", file=sys.stderr)
    for label in ("expected", "actual"):
        term = getattr(err, label, None)
        if term is None:
            continue
        try:
            shown = print_term(term, env)
        except RecursionError:
            shown = "<too deep to print>"
        print(f"  {label}: {shown}", file=sys.stderr)


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

    result = declare(env, decl, mode)
    match decl:
        case DInductive(name):
            if command in ("check", "translate"):
                show(name, result.arity)
                for cname, cty in result.constructors:
                    show(cname, cty)
            if command == "translate" and only in (None, name):
                print(print_inductive(translate_inductive(env, result), env))
        case DDef(name):
            if command in ("check", "translate"):
                show(name, result.type)
            if command == "translate" and only in (None, name):
                print(print_definition(translate_definition(env, name), env))
            return _verdict(env, name) if command == "param-check" else 0
        case DCheck():
            if command in ("check", "translate"):
                term, ty = result
                show(print_term(term, env), ty)
        case DParamCheck(name):
            # param-check checks every definition as it is declared.
            return 0 if command == "param-check" else _verdict(env, name)
    return 0


def _verdict(env: GlobalEnv, name: str) -> int:
    """Declare the relation of the definition `name` as `translate` does,
    print `PASS name` if it checks and `FAIL name` if not, and return the
    number of failures.  A declared relation is reused by every later
    reference, so no body is checked twice."""
    try:
        translate_definition(env, name)
    except (TypeCheckError, ValueError):
        print(f"FAIL {name}")
        return 1
    print(f"PASS {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
