"""The bench tracer's table of traced functions names functions rcic has."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_name_is_a_function_of_its_module():
    # The table is read from the source, not imported, so that nothing is
    # written under bench/.
    traced = next(ast.literal_eval(node.value)
                  for node in ast.parse(SPANS.read_text()).body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "TRACED")
    assert traced
    for module, names in traced.items():
        mod = importlib.import_module(f"rcic.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"
