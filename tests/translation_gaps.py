"""Well-typed fixes whose abstraction check fails, and one that passes.

The witness of a translated fix `f` is typed against `Nat_R (f n) (f n')`,
the fix applied to its decreasing variable and that variable's copy.  The
kernel unfolds a fix only at a constructor, so that type reduces only
inside a match on the decreasing argument, whose translated motive rebinds
the argument to each branch's constructor.  A branch that returns a field
of that constructor then checks (`case_pred`).  The other three need the
fix to unfold at a variable:

- `self_id` matches on nothing: `Nat_R (self_id n) (self_id n')` is stuck,
  and the body's witness has type `Nat_R n n'`;
- `case_other` matches on an argument that does not decrease, so the
  motive rebinds nothing the fix's type mentions;
- `case_self` matches on its decreasing argument, but its branch returns
  the argument `m` itself, which the motive has not rebound: the branch
  has type `Nat_R m m'`, and `Nat_R (succ p) (succ p')` is expected.

Each is well typed: `rcic check` accepts all four.

    PYTHONPATH=src python tests/translation_gaps.py

runs `rcic param-check` on the prelude and the four sources and prints
its `PASS name` or `FAIL name` line for each source, in order.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from rcic import prelude_path
from rcic.cli import main

GAPS = {
    "self_id": """
def self_id : Nat -> Nat :=
  fix self_id (n : Nat) {struct n} : Nat := n.
""",
    "case_other": """
def case_other : Nat -> Nat -> Nat :=
  fix case_other (n k : Nat) {struct n} : Nat :=
    match k as j in Nat return Nat with
    | zero => zero
    | succ p => p
    end.
""",
    "case_self": """
def case_self : Nat -> Nat :=
  fix case_self (m : Nat) {struct m} : Nat :=
    match m as j in Nat return Nat with
    | zero => zero
    | succ p => m
    end.
""",
    "case_pred": """
def case_pred : Nat -> Nat :=
  fix case_pred (m : Nat) {struct m} : Nat :=
    match m as j in Nat return Nat with
    | zero => zero
    | succ p => p
    end.
""",
}


def verdicts() -> list[str]:
    """`rcic param-check`'s line for each source of GAPS, in order."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "gaps.rcic"
        src.write_text("".join(GAPS.values()))
        with contextlib.redirect_stdout(out):
            main(["param-check", str(prelude_path()), str(src)])
    return out.getvalue().splitlines()[-len(GAPS):]


if __name__ == "__main__":
    sys.stdout.write("".join(f"{line}\n" for line in verdicts()))
