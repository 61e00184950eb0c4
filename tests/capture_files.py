"""Generated capture files: fixes under binders named like the names the
translation picks.

Each of the 11 files (seeds 0 to 10) holds 40 definitions over `Nat`.  A
definition binds one to three outer variables, drawn with repetition from
OUTER (x, x1, a, a1, f, i, k), so that they shadow one another and the
elaborator renames them; then a fix by structural recursion on its first
argument, whose match branches bind names from OUTER or `_` and whose
motives bind one of n, m, w, or a name from OUTER.  The recursive call
takes the constructor's field, directly or under a second match on it.

The translation renames the binders it makes whenever a source name, a
copy or a witness would capture another, so these files reach most of its
renaming paths.  Every definition passes `rcic param-check`.

    PYTHONPATH=src python tests/capture_files.py

prints one Markdown line per file: its seed and the PASS and FAIL counts
of `rcic param-check` on the prelude plus the file (30 of the PASSes are
the prelude's).  It exits with status 1 unless every file reads PASSES
PASS and 0 FAIL.

    PYTHONPATH=src python tests/capture_files.py --write DIR

writes the files to DIR as capture0.rcic ... capture10.rcic.
"""

import contextlib
import io
import random
import sys
import tempfile
from pathlib import Path

from rcic import prelude_path
from rcic.cli import main

OUTER = ("x", "x1", "a", "a1", "f", "i", "k")
MOTIVE = ("n", "m", "w")
SEEDS = range(11)
DEFINITIONS = 40
# The PASS count of a file: the prelude's 30 and each definition's.
PASSES = 30 + DEFINITIONS


def _nat(rng: random.Random, scope: list[str]) -> str:
    """A variable of `scope` (all of type Nat), or zero."""
    return rng.choice([*scope, "zero"])


def _call(rng: random.Random, fix: str, arg: str, rest: list[str],
          scope: list[str]) -> str:
    """A call of `fix` at `arg`, and at a term of `scope` for each of the
    fix's other arguments `rest`."""
    return " ".join([fix, arg, *(_nat(rng, scope) for _ in rest)])


def _succ_branch(rng: random.Random, fix: str, field: str, rest: list[str],
                 scope: list[str]) -> str:
    """The successor branch's body, with the field bound as `field` (`_`
    when it is unnamed): a recursive call of `fix` at the field, or at a
    field of the field under a second match on it, or, with no field, a
    term with no call."""
    if field == "_":
        return f"plus {_nat(rng, scope)} {_nat(rng, scope)}"
    shape = rng.randrange(4)
    call = _call(rng, fix, field, rest, scope)
    if shape == 0:
        return call
    if shape == 1:
        return f"succ ({call})"
    if shape == 2:
        return f"plus {_nat(rng, scope)} ({call})"
    inner = rng.choice([n for n in OUTER if n != fix])
    inner_scope = scope + [inner]
    motive = rng.choice(MOTIVE + OUTER)
    return (f"match {field} as {motive} in Nat return Nat with\n"
            f"          | zero => {_nat(rng, scope)}\n"
            f"          | succ => fun ({inner} : Nat) => "
            f"plus {_nat(rng, inner_scope)} "
            f"({_call(rng, fix, inner, rest, inner_scope)})\n"
            f"          end")


def definition(rng: random.Random, name: str) -> str:
    outer = [rng.choice(OUTER) for _ in range(rng.randint(1, 3))]
    fix = rng.choice(OUTER + ("go",))
    # The fix's arguments and fields never shadow the fix, and its second
    # argument never shadows the first, the one the fix decreases.  The
    # branches use neither the fix's first argument (whose relation the
    # translated match rebinds only in the motive, the `case_self` gap of
    # `translation_gaps.py`) nor an outer variable the fix shadows.
    inner = [n for n in OUTER + MOTIVE if n != fix]
    first = rng.choice(inner)
    rest = [rng.choice([n for n in inner if n != first])
            for _ in range(rng.randint(0, 1))]
    scope = [n for n in outer if n not in (fix, first)] + rest
    field = rng.choice([n for n in OUTER if n != fix] + ["_"])
    motive = rng.choice(MOTIVE + OUTER)
    arity = 1 + len(rest)
    body = _succ_branch(rng, fix, field, rest,
                        scope + [field] if field != "_" else scope)
    return (f"def {name} : {' -> '.join(['Nat'] * (len(outer) + arity + 1))}"
            f" :=\n"
            f"  fun {' '.join(f'({n} : Nat)' for n in outer)} =>\n"
            f"    fix {fix} {{struct 0}} : "
            f"{' -> '.join(['Nat'] * (arity + 1))} :=\n"
            f"      fun {' '.join(f'({n} : Nat)' for n in [first] + rest)} =>\n"
            f"        match {first} as {motive} in Nat return Nat with\n"
            f"        | zero => {_nat(rng, scope)}\n"
            f"        | succ => fun ({field} : Nat) => {body}\n"
            f"        end.\n")


def capture_file(seed: int) -> str:
    """The capture file of `seed`: DEFINITIONS fixes, c0, c1, ..."""
    rng = random.Random(f"capture:{seed}")
    return "\n".join(definition(rng, f"c{j}") for j in range(DEFINITIONS))


def verdicts(seed: int) -> tuple[int, int]:
    """The PASS and FAIL counts of `rcic param-check` on the prelude plus
    the capture file of `seed`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"capture{seed}.rcic"
        path.write_text(capture_file(seed))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["param-check", str(prelude_path()), str(path)])
    lines = out.getvalue().splitlines()
    return (sum(line.startswith("PASS ") for line in lines),
            sum(line.startswith("FAIL ") for line in lines))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--write"]:
        out_dir = Path(sys.argv[2])
        out_dir.mkdir(parents=True, exist_ok=True)
        for seed in SEEDS:
            (out_dir / f"capture{seed}.rcic").write_text(capture_file(seed))
    else:
        status = 0
        for seed in SEEDS:
            passed, failed = verdicts(seed)
            sys.stdout.write(f"Capture file {seed}: {passed} PASS, "
                             f"{failed} FAIL\n")
            if (passed, failed) != (PASSES, 0):
                status = 1
        sys.exit(status)
