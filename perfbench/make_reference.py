"""Write perfbench/reference.json: the key scalars of every workload item.

Run from the root of a checkout, on the commit whose values become the
reference::

    python3 perfbench/make_reference.py

- ``suite_core``: each scenario's summary margin, which does not depend on
  ``--seed`` (the script checks that on two seeds), except for the kernel
  scenario, whose oracle difference is recorded instead.
- ``scenario_batch``: the minimum margins of the L2 checks, the sandwich
  gaps and the fitted checks, which sit at the t = 0 equality for every
  generated problem, and the fitted rate of the deterministic zero-input run.
  The script checks the margins on two seeds.
- ``closed_loop_fine``: every plant of the (k_reaction, disturbance) grid,
  at full and at minimal size.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run

run.load_program()

import workloads  # noqa: E402

OUT = run.ROOT / ".perfbench_out" / "reference"


def single_pass(cls, seed: int, size: str):
    return cls(run.ROOT, seed, size, OUT, {}).run_pass(0)


def check_clean(items) -> None:
    bad = [f"{item.label}: {item.problems}" for item in items if item.problems]
    if bad:
        sys.exit(f"cannot take reference values from failing items: {bad}")


def agree(items, compare) -> None:
    for item in items:
        compare(item)
    check_clean(items)


def suite_reference() -> dict:
    first = single_pass(workloads.SuiteCore, 0, "full").items
    check_clean(first)
    reference = {item.label: dict(item.scalars) for item in first}
    # A kernel scenario's margin is set by the round-trip error on random
    # fields, a roundoff-level figure that changes with the seed; its
    # oracle difference is compared instead.
    for item in first:
        if "oracle_sup_diff" in item.scalars:
            del reference[item.label]["min_margin"]
    suite = workloads.SuiteCore(run.ROOT, 1, "full", OUT, reference)
    second = suite.run_pass(1).items
    agree(second, suite.compare)
    return reference


def batch_reference() -> dict:
    items = single_pass(workloads.ScenarioBatch, 0, "full").items
    check_clean(items)
    zero_input = next(item for item in items if item.label == "zero_input")
    reference = {
        "l2_margin": 0.0,
        "min_gap": 0.0,
        "fitted_margin_min": 0.0,
        "sigma": zero_input.scalars["sigma"],
        "m": zero_input.scalars["m"],
    }
    for seed, batch_items in ((0, items), (1, single_pass(workloads.ScenarioBatch, 1, "full").items)):
        batch = workloads.ScenarioBatch(run.ROOT, seed, "min", OUT, reference)
        agree(batch_items, batch.compare)
    return reference


def closed_loop_reference() -> dict:
    reference = {}
    for size in ("full", "min"):
        loop = workloads.ClosedLoopFine(run.ROOT, 0, size, OUT, {})
        times = loop.grid.times()
        for k_reaction in workloads.K_REACTIONS:
            for label in workloads.DISTURBANCES:
                item = workloads.Item(loop.key(loop.grid.n_interior, k_reaction, label))
                loop.plant(item, k_reaction, workloads._disturbance(label, times))
                check_clean([item])
                reference[item.label] = dict(item.scalars)
    return reference


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        reference = {
            "suite_core": suite_reference(),
            "scenario_batch": batch_reference(),
            "closed_loop_fine": closed_loop_reference(),
        }
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
        try:
            OUT.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    path = Path(run.HERE) / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
