"""The claim and bound rules of ``tools/bench_pairs.py``, on made-up run results."""

import importlib.util
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
