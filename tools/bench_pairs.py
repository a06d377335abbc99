"""Benchmark a change against its parent commit in alternating pairs of runs.

Usage, from the root of a checkout::

    python3 tools/bench_pairs.py <parent-ref> <workload> [--pairs 10] [--first-seed 3700]
        [--seconds 30] [--claim pass_s] [--trace-seed <seed>] [--json <path>]

The parent is exported with ``git archive <parent-ref>`` and the working
tree (its tracked and untracked files that git does not ignore) is copied,
each into a fresh temporary directory, so editing the checkout during the
runs changes nothing measured.  Pair i runs ``perfbench/run.py --workload
<workload> --seed <first-seed + i> --trace 0`` once on each side, one run
at a time: the parent first when i is even, the change first when i is odd.

For each end-to-end metric of ``BENCHMARK.json`` it prints, per side, the
median and the quartiles over the runs, the number of pairs the change
wins (strictly better), and whether the change's median is worse than the
parent's by more than the metric's bound.  For the ``--claim`` metric it
prints whether the claim rule holds: the change wins at least nine tenths
of the pairs, and its median is better than the parent's by more than the
parent's interquartile range.  ``--trace-seed`` adds one ``--trace 1`` run
per side (parent first) and prints each per-layer metric side by side.
``--json`` saves the runs and the summary.  Nothing under the checkout is
written.  A run that exits non-zero ends the session: its side, seed, exit
code and the last lines of its stderr are printed and saved with every
run made before it under ``--json``, with no summary, and the exit status
is 1.  Otherwise the exit status is 1 when any run reads ``correct: false``
or counts a failed operation, when any end-to-end metric's median is worse
than the parent's by more than its bound, or when the ``--claim`` rule does
not hold, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLAIM_WIN_SHARE = 0.9
STDERR_TAIL_LINES = 20


class RunFailed(RuntimeError):
    """A ``perfbench/run.py`` run that exited non-zero: its exit code and the last lines of its stderr."""

    def __init__(self, code: int, stderr_tail: list[str]):
        super().__init__(f"exited {code}")
        self.code, self.stderr_tail = code, stderr_tail


def export_parent(ref: str, dest: Path) -> None:
    """Extract ``git archive <ref>`` of the checkout into ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, capture_output=True, check=True)
    with tempfile.TemporaryFile() as fh:
        fh.write(archive.stdout)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(dest, filter="data")


def export_working_tree(dest: Path) -> None:
    """Copy the checkout's tracked and untracked, not ignored, files into ``dest``."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"], cwd=ROOT,
                            capture_output=True, check=True, text=True).stdout
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree is not copied
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def short_commit(ref: str) -> str:
    """The abbreviated commit id ``ref`` names in the checkout."""
    return subprocess.run(["git", "rev-parse", "--short", ref], cwd=ROOT, capture_output=True, check=True,
                          text=True).stdout.strip()


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one ``perfbench/run.py`` run in ``checkout``; ``RunFailed`` on a non-zero exit."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RunFailed(done.returncode, done.stderr.splitlines()[-STDERR_TAIL_LINES:])
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    """[lower quartile, median, upper quartile], linear between order statistics."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric: each side's quartiles, the change's wins and whether its median breaks the bound.

    ``pairs`` holds (parent result, change result) per seed; ``end_to_end`` is ``BENCHMARK.json``'s list.
    """
    summary = {}
    for spec in end_to_end:
        name, sign = spec["name"], 1.0 if spec["better"] == "lower" else -1.0
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        p_q, c_q = quartiles(parent), quartiles(change)
        summary[name] = {
            "parent": p_q,
            "change": c_q,
            "change_wins": sum(sign * (c - p) < 0.0 for p, c in zip(parent, change)),
            "worse_by": sign * (c_q[1] - p_q[1]) / abs(p_q[1]),  # relative change of the median, > 0 when worse
            "bound": spec["bound"],
        }
    return summary


def claim_holds(metric: dict, n_pairs: int) -> bool:
    """The claim rule: at least nine tenths of the pairs won and a median gain wider than the parent's IQR."""
    parent_iqr = metric["parent"][2] - metric["parent"][0]
    gain = abs(metric["change"][1] - metric["parent"][1])
    return (metric["change_wins"] >= math.ceil(CLAIM_WIN_SHARE * n_pairs) and metric["worse_by"] < 0.0
            and gain > parent_iqr)


def _print_summary(workload: str, n_pairs: int, summary: dict, claim: str | None, correct: bool) -> None:
    print(f"{workload}: {n_pairs} pairs, every run correct with 0 failed: {correct}")
    for name, m in summary.items():
        p, c = m["parent"], m["change"]
        verdict = "WORSE than its bound" if m["worse_by"] > m["bound"] else "within its bound"
        print(f"  {name}: parent {p[1]:.4g} [{p[0]:.4g}, {p[2]:.4g}]  change {c[1]:.4g} [{c[0]:.4g}, {c[2]:.4g}]  "
              f"{m['worse_by']:+.1%}  change wins {m['change_wins']} of {n_pairs}; {verdict} ({m['bound']:.0%})")
    if claim is not None:
        print(f"  claim on {claim}: {'holds' if claim_holds(summary[claim], n_pairs) else 'does not hold'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_ref")
    parser.add_argument("workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=3700)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--claim", help="the end-to-end metric the change claims to improve")
    parser.add_argument("--trace-seed", type=int, help="add one traced run per side at this seed")
    parser.add_argument("--json", type=Path, help="save the runs and the summary here")
    args = parser.parse_args(argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if args.claim is not None and args.claim not in {spec["name"] for spec in end_to_end}:
        parser.error(f"--claim {args.claim} is not an end-to-end metric of BENCHMARK.json")
    saved = {
        "parent_ref": args.parent_ref, "parent_commit": short_commit(args.parent_ref), "workload": args.workload,
        "seconds": args.seconds, "seeds": [args.first_seed + i for i in range(args.pairs)],
        "order": "even pair indices (0-based) ran the parent first, odd ones the change first",
    }
    seeds = saved["seeds"]
    schedule = [(side, seed, 0) for i, seed in enumerate(seeds)
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent"))]
    if args.trace_seed is not None:
        schedule += [("parent", args.trace_seed, 1), ("change", args.trace_seed, 1)]
    runs, failed = [], None
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for side in sides.values():
            side.mkdir()
        export_parent(args.parent_ref, sides["parent"])
        export_working_tree(sides["change"])
        for side, seed, trace in schedule:
            run = {"workload": args.workload, "seed": seed, "side": side, "trace": trace}
            try:
                run["result"] = run_benchmark(sides[side], args.workload, seed, args.seconds, trace)
            except RunFailed as exc:
                failed = {**run, "exit_code": exc.code, "stderr_tail": exc.stderr_tail}
                break
            runs.append(run)
            if not trace:
                print(f"seed {seed} {side}: " + ", ".join(
                    f"{k} {v['value']:.4g}" for k, v in run["result"]["metrics"].items()), flush=True)
    if failed is not None:
        print(f"the {failed['side']} run at seed {failed['seed']} (trace {failed['trace']}) exited "
              f"{failed['exit_code']} after {len(runs)} runs; the last lines of its stderr:", file=sys.stderr)
        print("\n".join(failed["stderr_tail"]), file=sys.stderr)
        if args.json is not None:
            args.json.write_text(json.dumps({**saved, "failed_run": failed, "runs": runs}, indent=1) + "\n")
        return 1
    results = {(run["seed"], run["side"], run["trace"]): run["result"] for run in runs}
    pairs = [(results[seed, "parent", 0], results[seed, "change", 0]) for seed in seeds]
    traced = {side: {k: v["value"] for k, v in results[args.trace_seed, side, 1]["metrics"].items()}
              for side in ("parent", "change") if args.trace_seed is not None}
    summary = summarize(pairs, end_to_end)
    correct = all(run["result"]["correct"] and run["result"]["failed"] == 0 for run in runs)
    holds = args.claim is None or claim_holds(summary[args.claim], args.pairs)
    within = all(m["worse_by"] <= m["bound"] for m in summary.values())
    _print_summary(args.workload, args.pairs, summary, args.claim, correct)
    for name in traced.get("parent", {}):
        print(f"  traced {name}: parent {traced['parent'][name]:.6g}  change {traced['change'][name]:.6g}")
    if args.json is not None:
        saved.update(summary=summary, all_correct=correct, traced=traced, runs=runs)
        if args.claim is not None:
            saved["claim"] = {"metric": args.claim, "holds": holds}
        args.json.write_text(json.dumps(saved, indent=1) + "\n")
    return 0 if correct and holds and within else 1


if __name__ == "__main__":
    sys.exit(main())
