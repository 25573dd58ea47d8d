"""The benchmark's trace hooks still find what they wrap.

``bench/spans.py`` replaces module and class attributes by name; a
refactor that renames, unbinds or stops calling one of them would make a
traced benchmark run silently lose its spans.  The benchmark files are
only read here.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _wrapped_functions():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.WRAPPED_FUNCTIONS


def _called_names(module) -> set[str]:
    tree = ast.parse(inspect.getsource(module))
    return {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


@pytest.mark.parametrize(
    "module_name, attr", [(m, a) for m, a, _ in _wrapped_functions()]
)
def test_wrapped_function_is_bound_and_called(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(module.__dict__.get(attr))
    assert attr in _called_names(module)


@pytest.mark.parametrize(
    "module_name, owner, attr",
    [
        ("kdgraph.resolution", "MatchSet", "best"),
        ("kdgraph.resolution", "MatchSet", "report"),
        ("kdgraph.oracle", "RuleProgram", "evaluate"),
    ],
)
def test_wrapped_method_is_defined_on_its_class(module_name, owner, attr):
    cls = getattr(importlib.import_module(module_name), owner)
    assert callable(cls.__dict__.get(attr))
