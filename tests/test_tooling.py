"""The benchmark's traced run (perfbench/tracing.py) wraps flosim
functions that it looks up by module and name, so a refactor that
moves or renames one of them crashes `perfbench/run.py --trace 1`.
This reads the tracer's TARGETS without importing or changing it."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def tracer_targets():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} assigns no TARGETS")


def test_every_traced_name_is_bound_in_its_module():
    targets = tracer_targets()
    assert targets
    missing = [
        f"flosim.{module}.{name}"
        for module, name in targets
        if not callable(getattr(importlib.import_module(f"flosim.{module}"), name, None))
    ]
    assert missing == []
