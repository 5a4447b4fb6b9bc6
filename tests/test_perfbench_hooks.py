"""The benchmark's tracing hooks still point at live ghostsim functions.

perfbench/child.py wraps each (module, attribute) pair in its _TRACED table
when run with --trace 1. A rename or a moved import in ghostsim would only
show up there as a failed benchmark run, so the table is checked here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def _traced_table():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child._TRACED


@pytest.mark.parametrize("module, attr", [row[:2] for row in _traced_table()])
def test_traced_hook_resolves_to_a_callable(module, attr):
    fn = getattr(importlib.import_module(f"ghostsim.{module}"), attr)
    assert callable(fn)
    inspect.signature(fn)  # the tracer reads argument names from it
