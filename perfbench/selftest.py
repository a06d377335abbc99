"""Self-test of the benchmark.  Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that:

1. each workload, run at minimal size, untraced and traced, prints a result
   line with every metric BENCHMARK.json names, each with its unit, and
   passes its checks;
2. an injected failing item (a check that fails, a call that raises) makes
   the run report ``failed > 0`` and ``correct: false``;
3. in a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits with a nonzero code and prints no result.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out" / "selftest"
SEED = 3


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--size", "min"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_metrics_emitted(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_benchmark(ROOT, workload, trace)
            assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}"
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, proc.stdout.splitlines()[-2]
            assert result["attempted"] >= 1
            declared = {m["name"]: m["unit"] for m in spec[group]}
            emitted = result["metrics"]
            assert set(emitted) == set(declared), set(emitted) ^ set(declared)
            for name, unit in declared.items():
                assert emitted[name]["unit"] == unit, (name, emitted[name])
                assert math.isfinite(emitted[name]["value"]), (name, emitted[name])
            print(f"ok: {workload} trace={trace} emits {len(declared)} metrics")


def check_injected_failure() -> None:
    sys.path[:0] = [str(HERE)]
    import run

    run.load_program()
    import iss_parabolic as ip

    real_check_l2 = ip.check_l2
    calls = {"n": 0}

    def faulty_check_l2(traj, tol=0.02):
        calls["n"] += 1
        if calls["n"] == 1:
            return dataclasses.replace(real_check_l2(traj, tol), passed=False)
        if calls["n"] == 2:
            raise ip.NumericalError("injected failure")
        return real_check_l2(traj, tol)

    ip.check_l2 = faulty_check_l2
    out_root = SCRATCH / "injected"
    out_root.mkdir(parents=True, exist_ok=True)
    try:
        args = run.parse_args(["--workload", "scenario_batch", "--seed", str(SEED), "--seconds", "1",
                               "--trace", "0", "--size", "min"])
        result, detail = run.measure(args, out_root)
    finally:
        ip.check_l2 = real_check_l2
    assert result["failed"] >= 2 and not result["correct"], result
    assert detail["fail_ratio"] > 0.0, detail
    print(f"ok: injected failures give fail_ratio {detail['fail_ratio']:.3f}")


def check_refuses_without_program() -> None:
    bare = SCRATCH / "bare"
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(bare, "suite_core", 0)
    assert proc.returncode != 0, proc.stdout
    assert not any(line.startswith("{") for line in proc.stdout.splitlines()), proc.stdout
    print(f"ok: without the program the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        check_refuses_without_program()
        check_injected_failure()
        check_metrics_emitted(spec)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            SCRATCH.parent.rmdir()
        except OSError:
            pass
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
