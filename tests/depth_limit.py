"""The deepest b{n} that `rcic param-check` passes.

b{n} is `fun (x0 ... x{n-1} : Nat) => plus x0 x{n-1}` at `Nat -> ... -> Nat`
(`walker_counts.binder_depth_source`); its translation nests a binder
triple per source binder, so the largest n that passes at the interpreter's
default recursion limit measures how many frames the walkers spend per
nesting level.  The search bisects n over [100, 500] in steps of 5, one
`rcic param-check` of the prelude and b{n} per probe (at most seven), and
assumes that a b{n} that passes means every smaller one passes too.

    PYTHONPATH=src python tests/depth_limit.py

prints one Markdown line with the limit.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import rcic
from rcic import prelude_path

from walker_counts import binder_depth_source

DEPTHS = range(100, 501, 5)


def passes(n: int, tmp: Path) -> bool:
    """Whether `rcic param-check` of the prelude and b{n} prints PASS b{n}
    and exits 0."""
    src = tmp / f"b{n}.rcic"
    src.write_text(binder_depth_source(n))
    env = dict(os.environ, PYTHONPATH=str(Path(rcic.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "rcic.cli", "param-check",
         str(prelude_path()), str(src)],
        capture_output=True, text=True, env=env, timeout=300)
    return run.returncode == 0 and run.stdout.splitlines()[-1:] == [f"PASS b{n}"]


def depth_limit() -> int | None:
    """The largest n in DEPTHS for which b{n} passes, or None if none does."""
    lo, hi = -1, len(DEPTHS)  # DEPTHS[lo] passes, DEPTHS[hi] does not
    with tempfile.TemporaryDirectory() as tmp:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if passes(DEPTHS[mid], Path(tmp)):
                lo = mid
            else:
                hi = mid
    return DEPTHS[lo] if lo >= 0 else None


if __name__ == "__main__":
    limit = depth_limit()
    if limit is None:
        line = f"no b{{n}} passes for n in [{DEPTHS[0]}, {DEPTHS[-1]}]"
    elif limit == DEPTHS[-1]:
        line = f"b{limit} passes (the top of the searched range)"
    else:
        line = f"b{limit} passes, b{limit + DEPTHS.step} does not"
    sys.stdout.write(f"param-check binder depth limit: {line}\n")
