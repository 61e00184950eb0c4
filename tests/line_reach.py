"""The statements of `src/rcic` that tier-1 never runs.

Runs the tier-1 suite in this process under `sys.settrace` and prints, for
each module of the package, the statements that hold code and never ran,
each with its line number and text, then a count of statements run.
pytest's own report goes to stderr, so stdout is the reach report alone.

A statement is a line that starts a statement (by `ast`) and holds
bytecode; it ran if the tracer saw a line event on it, or a call event
for a `def` line.  Tests that shell out to `rcic` run in a child process,
which is not traced, so what only they reach is listed as never run.  A
RecursionError raised inside a trace function unsets it, and deep tests
raise one on purpose, so the tracer is armed again before each test.

Run from the repository root: `PYTHONPATH=src python tests/line_reach.py`.
It exits 0 whatever the tests report; it takes a few times tier-1's time.
"""

from __future__ import annotations

import ast
import contextlib
import sys
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rcic"


def _code_lines(code: CodeType) -> set[int]:
    """The lines that hold bytecode in `code` and the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> set[int]:
    """The first lines of the statements of `path` that hold bytecode."""
    source = path.read_text()
    starts = {node.lineno for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.stmt)}
    return starts & _code_lines(compile(source, str(path), "exec"))


class Reach:
    """A pytest plugin that records the lines run in the package's files."""

    def __init__(self) -> None:
        self.seen: dict[str, set[int]] = {}
        # Resolved once per code file name: its line set, or None.
        self._files: dict[str, set[int] | None] = {}

    def _lines_of(self, filename: str) -> set[int] | None:
        if filename not in self._files:
            path = Path(filename).resolve()
            self._files[filename] = (
                self.seen.setdefault(path.name, set())
                if path.parent == PACKAGE else None)
        return self._files[filename]

    def trace(self, frame, event, arg):
        lines = self._lines_of(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        sys.settrace(self.trace)
        yield


def main() -> int:
    reach = Reach()
    with contextlib.redirect_stdout(sys.stderr):
        # Armed before collection, so that importing the package is traced.
        sys.settrace(reach.trace)
        try:
            pytest.main(["-q", "-p", "no:cacheprovider",
                         "--continue-on-collection-errors", str(ROOT / "tests")],
                        plugins=[reach])
        finally:
            sys.settrace(None)
    total = ran = 0
    for path in sorted(PACKAGE.glob("*.py")):
        wanted = statements(path)
        missed = sorted(wanted - reach.seen.get(path.name, set()))
        total += len(wanted)
        ran += len(wanted) - len(missed)
        text = path.read_text().splitlines()
        print(f"{path.name}: {len(missed)} of {len(wanted)} statements "
              "never ran")
        for line in missed:
            print(f"  {line}: {text[line - 1].strip()}")
    print(f"{ran} of {total} statements ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
