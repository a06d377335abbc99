"""The benchmark drives the package by name and checks it against stored
reference values; keep both the names and the values it relies on."""

import ast
import importlib
import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

from conftest import PINNED_BLAS

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spans():
    return _tracing().SPANS


@pytest.mark.parametrize("span, target", sorted(_spans().items()))
def test_span_functions_exist(span, target):
    module_name, functions = target
    module = importlib.import_module(f"iss_parabolic.{module_name}")
    missing = [name for name in functions if not callable(getattr(module, name, None))]
    assert not missing, f"{span}: iss_parabolic.{module_name} lacks {missing}"


def test_digest_pin_runs_under_the_benchmarks_blas_settings():
    # Read from the source, since importing perfbench/run.py writes os.environ.
    body = ast.parse((PERFBENCH / "run.py").read_text()).body
    threads = next(ast.literal_eval(node.value) for node in body
                   if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "BLAS_THREADS")
    loop = next(node for node in body if isinstance(node, ast.For)
                and ast.unparse(node.body[0]) == f"os.environ[{node.target.id}] = str(BLAS_THREADS)")
    assert PINNED_BLAS == dict.fromkeys(ast.literal_eval(loop.iter), str(threads))


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


def test_scenario_batch_matches_reference(tmp_path, monkeypatch):
    # One minimal pass holds the open-loop heat and cubic stepping paths to
    # the reference values the benchmark compares with.
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    bench = workloads.ScenarioBatch(ROOT, 1, "min", tmp_path, reference["scenario_batch"])
    items = bench.run_pass(0).items
    assert [item.label for item in items] == ["heat0", "heat1", "heat2", "sandwich0", "sandwich1",
                                               "zero_input", "zero_state"]
    for item in items:
        bench.compare(item)
    assert not [(item.label, item.problems) for item in items if item.problems]


SMALL_SCENARIO = """
[scenario]
name = {kind}
kind = {kind}
seed = 3

[grid]
n_interior = 15
dt = 1e-3
t_final = 0.05

[problem]
a = 1.0
{problem}
"""

SMALL_PROBLEMS = {
    "simulate": "initial = sin_pi",
    "sandwich": "initial = sin_pi\nd0 = sinusoid(0.3, 5.0)",
    "iss_check": "initial = sin_pi\nd0 = step(0.3, 0.01)\n\n[check]\nestimate = l2",
    "kernel_synthesis": "k_reaction = 10.0",
    "lyapunov": "initial = sin_pi\n\n[check]\np = 3",
    "backstepping_loop": "k_reaction = 10.0\ninitial = sin_pi\nd0 = step(0.3, 0.01)",
}

# Traced writer span -> the (scenario kind, artifact) files it must write.
TRACED_ARTIFACTS = {
    "solver.write_csv": [
        ("simulate", "trajectory.npy"), ("sandwich", "trajectory.npy"), ("iss_check", "trajectory.npy"),
        ("lyapunov", "trajectory.npy"),
        ("backstepping_loop", "trajectory.npy"), ("backstepping_loop", "x_trajectory.npy"),
    ],
    "monotone.write_csv": [("sandwich", "report.csv")],
    "certify.write_csv": [
        ("iss_check", "report.csv"), ("iss_check", "summary.csv"), ("lyapunov", "report.csv"),
        ("backstepping_loop", "report.csv"), ("backstepping_loop", "summary.csv"),
    ],
    "backstepping.write_csv": [("kernel_synthesis", "kernel.csv")],
}


def test_traced_writers_record_every_artifact_byte(tmp_path):
    # The per-layer writer metrics read the bytes the traced writers report;
    # an artifact written around them would read as zero.
    tracing = _tracing()
    modules = {name: importlib.import_module(name) for name in tracing.NAMESPACES}
    kinds = list(SMALL_PROBLEMS)
    scenarios = []
    for kind in kinds:
        path = tmp_path / f"{kind}.scn"
        path.write_text(SMALL_SCENARIO.format(kind=kind, problem=SMALL_PROBLEMS[kind]))
        scenarios.append(modules["iss_parabolic.scenarios"].parse_scenario(path))
    tracer = tracing.Tracer()
    with tracer.installed(modules):
        for scn in scenarios:
            modules["iss_parabolic.runner"].run_scenario(scn, tmp_path / "out", no_plots=True)

    recorded = Counter()
    for name, _start, _end, _parent, item, extra in tracer.spans:
        if name in TRACED_ARTIFACTS:
            recorded[name, kinds[item]] += extra["bytes"]
    expected = Counter()
    for name, files in TRACED_ARTIFACTS.items():
        for kind, artifact in files:
            expected[name, kind] += (tmp_path / "out" / kind / artifact).stat().st_size
    assert recorded == expected
