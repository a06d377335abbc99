"""The claim and bound rules of ``tools/bench_pairs.py``, on made-up run results."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "pass_s", "better": "lower", "bound": 0.25}]
PARENT = [1.0 + 0.01 * i for i in range(10)]  # quartiles 1.0225, 1.045, 1.0675: IQR 0.045


def _summary(change):
    pairs = [({"metrics": {"pass_s": {"value": p}}}, {"metrics": {"pass_s": {"value": c}}})
             for p, c in zip(PARENT, change)]
    return bench_pairs.summarize(pairs, END_TO_END)["pass_s"]


def test_parent_quartiles_are_linear_between_order_statistics():
    assert _summary(PARENT)["parent"] == pytest.approx([1.0225, 1.045, 1.0675])


@pytest.mark.parametrize(
    "change, wins, holds",
    [([p - 0.06 for p in PARENT], 10, True),  # every pair, by more than the IQR
     ([p - 0.06 for p in PARENT[:9]] + [PARENT[9]], 9, True),  # a tie is not a win
     ([p - 0.06 for p in PARENT[:8]] + PARENT[8:], 8, False),
     ([p - 0.03 for p in PARENT], 10, False),  # every pair, by less than the IQR
     ([p + 0.06 for p in PARENT], 0, False)],
    ids=["all_wide", "nine_of_ten", "eight_of_ten", "narrow", "slower"],
)
def test_claim_needs_nine_tenths_of_the_pairs_and_a_gain_wider_than_the_parent_iqr(change, wins, holds):
    metric = _summary(change)
    assert metric["change_wins"] == wins
    assert bench_pairs.claim_holds(metric, len(PARENT)) is holds


def test_a_median_worse_by_more_than_the_bound_is_reported():
    assert _summary([1.3 * p for p in PARENT])["worse_by"] == pytest.approx(0.3)
    assert _summary([0.9 * p for p in PARENT])["worse_by"] == pytest.approx(-0.1)


def _stub_runs(monkeypatch, change, incorrect=()):
    """Stub the exports and the runs: pass_s is PARENT[i] on the parent side and change(PARENT[i]) on the change side
    of pair i, the other metrics PARENT[i] on both; the (seed, side) runs in ``incorrect`` read ``correct: false``."""
    monkeypatch.setattr(bench_pairs, "short_commit", lambda ref: "0000000")
    monkeypatch.setattr(bench_pairs, "export_parent", lambda ref, dest: None)
    monkeypatch.setattr(bench_pairs, "export_working_tree", lambda dest: None)

    def run_benchmark(checkout, workload, seed, seconds, trace):
        side, parent = checkout.name, PARENT[seed % len(PARENT)]
        metrics = {name: {"value": parent} for name in ("setup_s", "pass_s", "peak_rss_mb")}
        if side == "change":
            metrics["pass_s"]["value"] = change(parent)
        return {"correct": (seed, side) not in incorrect, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "run_benchmark", run_benchmark)


@pytest.mark.parametrize(
    "claim, change, incorrect, holds, code",
    [(["--claim", "pass_s"], lambda p: p - 0.06, (), True, 0),
     ([], lambda p: p, (), None, 0),
     ([], lambda p: p - 0.06, ((3, "parent"),), None, 1),
     (["--claim", "pass_s"], lambda p: p - 0.06, ((7, "change"),), True, 1),
     (["--claim", "pass_s"], lambda p: p - 0.03, (), False, 1),
     ([], lambda p: 1.3 * p, (), None, 1)],
    ids=["claim_holds", "no_claim", "incorrect_parent_run", "incorrect_change_run", "claim_does_not_hold",
         "worse_than_its_bound"],
)
def test_exit_status_is_1_on_an_incorrect_run_or_a_claim_that_does_not_hold(
        monkeypatch, tmp_path, capsys, claim, change, incorrect, holds, code):
    _stub_runs(monkeypatch, change, incorrect)
    saved = tmp_path / "bench.json"
    argv = ["HEAD", "suite_core", "--first-seed", "0", "--json", str(saved), *claim]
    assert bench_pairs.main(argv) == code
    record = json.loads(saved.read_text())
    assert record["all_correct"] == (not incorrect)
    assert record.get("claim", {}).get("holds") is holds


def test_a_failing_run_ends_the_session_and_keeps_the_runs_before_it(monkeypatch, tmp_path, capsys):
    # The third run is pair 1's first, the change side at seed 1.  Before, its RuntimeError ended the session in a
    # traceback with no --json and the two runs of pair 0 lost.
    _stub_runs(monkeypatch, lambda p: p - 0.06)
    stubbed, calls = bench_pairs.run_benchmark, []

    def run_benchmark(checkout, workload, seed, seconds, trace):
        calls.append(seed)
        if len(calls) == 3:
            raise bench_pairs.RunFailed(2, ["Traceback (most recent call last):", "MemoryError"])
        return stubbed(checkout, workload, seed, seconds, trace)

    monkeypatch.setattr(bench_pairs, "run_benchmark", run_benchmark)
    saved = tmp_path / "bench.json"
    argv = ["HEAD", "suite_core", "--first-seed", "0", "--claim", "pass_s", "--json", str(saved)]
    assert bench_pairs.main(argv) == 1
    assert calls == [0, 0, 1]
    record = json.loads(saved.read_text())
    assert [(run["seed"], run["side"]) for run in record["runs"]] == [(0, "parent"), (0, "change")]
    assert record["failed_run"] == {"workload": "suite_core", "seed": 1, "side": "change", "trace": 0,
                                    "exit_code": 2, "stderr_tail": ["Traceback (most recent call last):",
                                                                    "MemoryError"]}
    assert "summary" not in record and "claim" not in record
    err = capsys.readouterr().err
    assert "the change run at seed 1 (trace 0) exited 2 after 2 runs" in err
    assert err.rstrip().endswith("MemoryError")


def test_run_benchmark_raises_run_failed_with_the_stderr_tail(tmp_path):
    # A checkout whose perfbench/run.py writes 30 lines to stderr and exits 3.
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\nfor i in range(30):\n    print(f'line {i}', file=sys.stderr)\nsys.exit(3)\n")
    with pytest.raises(bench_pairs.RunFailed) as failed:
        bench_pairs.run_benchmark(tmp_path, "suite_core", 0, 1.0, 0)
    assert failed.value.code == 3
    assert failed.value.stderr_tail == [f"line {i}" for i in range(30 - bench_pairs.STDERR_TAIL_LINES, 30)]
