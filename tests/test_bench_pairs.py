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


def _stub_runs(monkeypatch, change_gain, incorrect=()):
    """Stub the exports and the runs: pass_s is PARENT[i] on the parent side and PARENT[i] - change_gain on the
    change side of pair i; the (seed, side) runs in ``incorrect`` read ``correct: false``."""
    monkeypatch.setattr(bench_pairs, "short_commit", lambda ref: "0000000")
    monkeypatch.setattr(bench_pairs, "export_parent", lambda ref, dest: None)
    monkeypatch.setattr(bench_pairs, "export_working_tree", lambda dest: None)

    def run_benchmark(checkout, workload, seed, seconds, trace):
        side, parent = checkout.name, PARENT[seed % len(PARENT)]
        value = parent - change_gain if side == "change" else parent
        return {"correct": (seed, side) not in incorrect, "failed": 0,
                "metrics": {name: {"value": value} for name in ("setup_s", "pass_s", "peak_rss_mb")}}

    monkeypatch.setattr(bench_pairs, "run_benchmark", run_benchmark)


@pytest.mark.parametrize(
    "claim, change_gain, incorrect, code",
    [(["--claim", "pass_s"], 0.06, (), 0),
     ([], 0.0, (), 0),
     ([], 0.06, ((3, "parent"),), 1),
     (["--claim", "pass_s"], 0.06, ((7, "change"),), 1),
     (["--claim", "pass_s"], 0.03, (), 1)],
    ids=["claim_holds", "no_claim", "incorrect_parent_run", "incorrect_change_run", "claim_does_not_hold"],
)
def test_exit_status_is_1_on_an_incorrect_run_or_a_claim_that_does_not_hold(
        monkeypatch, tmp_path, capsys, claim, change_gain, incorrect, code):
    _stub_runs(monkeypatch, change_gain, incorrect)
    saved = tmp_path / "bench.json"
    argv = ["HEAD", "suite_core", "--first-seed", "0", "--json", str(saved), *claim]
    assert bench_pairs.main(argv) == code
    record = json.loads(saved.read_text())
    assert record["all_correct"] == (not incorrect)
    if claim:
        assert record["claim"]["holds"] is (change_gain > 0.045)
