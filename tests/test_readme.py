"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _announced(block: str) -> list[str]:
    """The output each `print(...)` line announces: its trailing comment,
    continued by the comment-only lines right below it, with runs of
    whitespace collapsed."""
    results: list[str] = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if code.strip().startswith("print("):
            results.append(comment)
        elif not code.strip() and comment and results:
            results[-1] += " " + comment
    return [" ".join(r.split()) for r in results]


def test_readme_library_example():
    match = re.search(r"## Library\n\n```python\n(.*?)```", README.read_text(),
                      re.S)
    assert match is not None
    block = match.group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = [" ".join(line.split()) for line in out.getvalue().splitlines()]
    assert printed == _announced(block)
    assert printed[:2] == ["List Bool", "True"]
    assert len(printed) == 3
