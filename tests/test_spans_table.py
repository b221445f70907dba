"""The pipeline benchmark's tracer patches cloneval functions by name.

``pipebench/spans.py`` lists them as ``(module, attribute, span)`` rows; a
function renamed or deleted in the package would make ``--trace 1`` fail
with an ``AttributeError``, so every row must still resolve.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "pipebench" / "spans.py"


def _span_tables():
    spec = importlib.util.spec_from_file_location("pipebench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.RUN_LEVEL + spans.PAIR_LEVEL


@pytest.mark.parametrize("module_name, attr, span", _span_tables())
def test_traced_function_resolves(module_name, attr, span):
    module = importlib.import_module(f"cloneval.{module_name}")
    assert callable(getattr(module, attr, None)), f"{span}: cloneval.{module_name}.{attr}"
