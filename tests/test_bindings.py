"""The benchmark's trace bindings name functions the program still has.

``perfbench/tracing.py`` replaces each bound name, for a traced pass, at the
module that calls it, and its coverage guard fails when a bound name is
never called.  This test reads that file (without importing it as a module
of its package) so that a change which deletes, or stops calling, a bound
name fails here rather than in the benchmark's traced pass.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _bindings() -> list[str]:
    namespace: dict = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return [binding for binding, *_ in namespace["BINDINGS"]]


def _called_names(module) -> set[str]:
    tree = ast.parse(Path(module.__file__).read_text())
    return {node.func.id for node in ast.walk(tree) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


@pytest.mark.parametrize("binding", _bindings())
def test_trace_binding_is_a_function_its_module_calls(binding):
    module_name, attr = binding.rsplit(".", 1)
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{binding} is not defined"
    assert attr in _called_names(module), f"{module_name} never calls {attr}"
