"""The traced benchmark wraps package functions by name; keep them present."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize("span, target", sorted(_spans().items()))
def test_span_functions_exist(span, target):
    module_name, functions = target
    module = importlib.import_module(f"iss_parabolic.{module_name}")
    missing = [name for name in functions if not callable(getattr(module, name, None))]
    assert not missing, f"{span}: iss_parabolic.{module_name} lacks {missing}"
