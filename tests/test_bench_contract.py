"""The benchmark drives the package by name and checks it against stored
reference values; keep both the names and the values it relies on."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


@pytest.mark.parametrize("k_reaction", [8.0, 14.0, 20.0])
def test_closed_loop_plant_matches_reference(k_reaction, tmp_path, monkeypatch):
    # perfbench/run.py puts src/ and perfbench/ on the path the same way.
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    bench = workloads.ClosedLoopFine(ROOT, 3, "min", tmp_path, reference["closed_loop_fine"])
    label = workloads.DISTURBANCES[0]
    item = workloads.Item(bench.key(bench.grid.n_interior, k_reaction, label))
    bench.plant(item, k_reaction, workloads._disturbance(label, bench.grid.times()))
    bench.compare(item)
    assert not item.problems, item.problems
