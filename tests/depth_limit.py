"""The deepest b{n} that `rcic check`, `rcic param-check` and `rcic
translate` each pass.

b{n} is `fun (x0 ... x{n-1} : Nat) => plus x0 x{n-1}` at `Nat -> ... -> Nat`
(`walker_counts.binder_depth_source`); its translation nests a binder
triple per source binder, so the largest n that passes at the interpreter's
default recursion limit measures how many frames the walkers spend per
nesting level.  `check` parses, elaborates and checks b{n} and prints its
type; `translate` also prints the relation, so the printer's walks count
too.  Each search bisects n over [100, 5000] in steps of 5, one run of the
command on the prelude and b{n} per probe (at most ten), and assumes that
a b{n} that passes means every smaller one passes too.

    PYTHONPATH=src python tests/depth_limit.py

prints one Markdown line with the limit per command.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import rcic
from rcic import prelude_path

from walker_counts import binder_depth_source

DEPTHS = range(100, 5001, 5)


def passes(command: str, n: int, tmp: Path) -> bool:
    """Whether `rcic command` of the prelude and b{n} exits 0 and ends with
    b{n}'s line: its type for check, `PASS b{n}` for param-check, the
    relation `b{n}_R` for translate."""
    src = tmp / f"b{n}.rcic"
    src.write_text(binder_depth_source(n))
    env = dict(os.environ, PYTHONPATH=str(Path(rcic.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "rcic.cli", command,
         str(prelude_path()), str(src)],
        capture_output=True, text=True, env=env, timeout=300)
    last = (run.stdout.splitlines() or [""])[-1]
    if command == "check":
        return run.returncode == 0 and last.startswith(f"b{n} : ")
    if command == "param-check":
        return run.returncode == 0 and last == f"PASS b{n}"
    return run.returncode == 0 and last.startswith(f"def b{n}_R ")


def depth_limit(command: str) -> int | None:
    """The largest n in DEPTHS for which `rcic command` passes b{n}, or None
    if none does."""
    lo, hi = -1, len(DEPTHS)  # DEPTHS[lo] passes, DEPTHS[hi] does not
    with tempfile.TemporaryDirectory() as tmp:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if passes(command, DEPTHS[mid], Path(tmp)):
                lo = mid
            else:
                hi = mid
    return DEPTHS[lo] if lo >= 0 else None


if __name__ == "__main__":
    for command in ("check", "param-check", "translate"):
        limit = depth_limit(command)
        if limit is None:
            line = f"no b{{n}} passes for n in [{DEPTHS[0]}, {DEPTHS[-1]}]"
        elif limit == DEPTHS[-1]:
            line = f"b{limit} passes (the top of the searched range)"
        else:
            line = f"b{limit} passes, b{limit + DEPTHS.step} does not"
        sys.stdout.write(f"{command} binder depth limit: {line}\n")
