"""Benchmark of iss-parabolic: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload suite_core --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout.  The run measures
set-up time in fresh processes, then runs passes over the workload until
the next pass would end after ``--seconds`` (at least two passes), then the
``suites/negative`` control once.  Every item is checked, and its key
scalars are compared with ``perfbench/reference.json``.  Set-up times, and
the interpreter-bound parts of each pass, are rescaled to a fixed host
speed by the probe in ``speed.py``.

The last line of standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
passes alternate between untraced and traced, and the metrics are the
per-layer ones from the traced passes.  The line before it holds the
details: environment (with steal ticks before and after the passes), pass
times, failures and artifact digests.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy is imported: one caller, one thread.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedProbe, rescale  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("suite_core", "scenario_batch", "closed_loop_fine")
SETUP_PROBES = 3
MIN_PASSES = 2
PROBE_TIMEOUT_S = 120


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "min"), default="full",
                        help="min runs each workload at its smallest size (self-test)")
    parser.add_argument("--probe", action="store_true",
                        help="set up the workload, print 'ready' and exit (set-up timing)")
    return parser.parse_args(argv)


def load_program():
    """Import iss_parabolic from src/ of this checkout, or exit with 2."""
    needed = [ROOT / "src" / "iss_parabolic" / "__init__.py", ROOT / "suites" / "core",
              ROOT / "suites" / "negative" / "tampered_gain.scn"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"error: not a checkout of iss-parabolic, missing {missing}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import iss_parabolic

    if Path(iss_parabolic.__file__).resolve().parent != ROOT / "src" / "iss_parabolic":
        print(f"error: iss_parabolic imported from {iss_parabolic.__file__}, not src/", file=sys.stderr)
        sys.exit(2)


def steal_ticks():
    """Cumulative steal ticks of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except OSError:
        return None


def environment() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
    }


def make_workload(args, out_root: Path):
    from workloads import WORKLOADS

    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)[args.workload]
    return WORKLOADS[args.workload](ROOT, args.seed, args.size, out_root, reference)


def probe_setup(args) -> tuple[float, float]:
    """(rescaled, wall) seconds from process start to a workload ready for its first pass.

    The fresh process runs the speed probe from its first statement and
    prints the slice times with ``ready``; they are removed from the wall
    time and set the speed factor, as for a pass.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    word, _, slices = line.partition(" ")
    if word != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return rescale(elapsed, json.loads(slices))[0], elapsed


def rescaled_pass(p, speed: SpeedProbe) -> tuple[float, list]:
    """(seconds, speed factors) of an untraced pass.

    The probe's slices are taken out of the wall time, and the parts of the
    pass the workload ran under the probe are rescaled (see speed.py).
    """
    seconds = p.seconds - sum(speed.inside(p.start, p.seconds))
    factors = []
    for start, length in p.probed:
        slices = speed.inside(start, length)
        scaled, factor = rescale(length, slices)
        seconds += scaled - (length - sum(slices))
        factors.append(factor)
    return seconds, factors


def measure(args, out_root: Path) -> tuple[dict, dict]:
    from tracing import NAMESPACES, Tracer, summarize
    from workloads import negative_control

    setup_probes = [probe_setup(args) for _ in range(SETUP_PROBES)]
    workload = make_workload(args, out_root)
    modules = {name: sys.modules[name] for name in NAMESPACES}
    tracer = Tracer() if args.trace else None
    speed = SpeedProbe()
    untraced, traced = [], []

    steal_before = steal_ticks()
    start = time.perf_counter()
    index = 0
    while True:
        if tracer is None or index % 2 == 0:
            # Each untraced pass and the traced pass after it share inputs.
            untraced.append(workload.run_pass(index if tracer is None else index // 2, probe=speed.running))
        else:
            with tracer.installed(modules):
                traced.append(workload.run_pass(index // 2, tracer))
        index += 1
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.seconds for p in untraced + traced)
        if index >= MIN_PASSES and elapsed + typical > args.seconds:
            break
    steal_after = steal_ticks()

    items = [item for p in untraced + traced for item in p.items]
    for item in items:
        workload.compare(item)
    items.append(negative_control(ROOT, out_root))
    failures = [f"{item.label}: {'; '.join(item.problems)}" for item in items if item.problems]
    digests = sorted({p.digest for p in untraced + traced})
    if len(digests) > 1:
        failures.append(f"CSV artifacts differ between passes of one run: {digests}")

    rescaled = [rescaled_pass(p, speed) for p in untraced]
    item_times = [item.seconds for p in untraced for item in p.items]
    if args.trace:
        # Traced passes run without the speed probe, so that its slices
        # fall in no span: the overhead compares wall times, less the
        # slices in the untraced passes.
        traced_s = statistics.median(p.seconds for p in traced)
        untraced_s = statistics.median(p.seconds - sum(speed.inside(p.start, p.seconds)) for p in untraced)
        metrics = summarize(tracer.spans, tracer.repeat_calls, len(traced))
        metrics["trace.pass_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    else:
        metrics = {
            "setup_s": (statistics.median(s for s, _ in setup_probes), "s"),
            "pass_s": (statistics.median(s for s, _ in rescaled), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    n_failed = sum(1 for item in items if item.problems)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": {**environment(), "steal_ticks_before": steal_before, "steal_ticks_after": steal_after},
        "setup_rescaled_s": [s for s, _ in setup_probes],
        "setup_wall_s": [w for _, w in setup_probes],
        "untraced_pass_rescaled_s": [s for s, _ in rescaled],
        "untraced_pass_wall_s": [p.seconds for p in untraced],
        "speed_factors": [f for _, f in rescaled],
        "speed_slices": len(speed.samples),
        "traced_pass_s": [p.seconds for p in traced],
        "items_timed": len(item_times),
        "item_s.p50": statistics.median(item_times),
        # Reported only where at least ten items lie beyond it.
        "item_s.p90": statistics.quantiles(item_times, n=10)[-1] if len(item_times) >= 100 else None,
        "fail_ratio": n_failed / len(items),
        "failures": failures[:20],
        "csv_digests": digests,
    }
    result = {
        "correct": not failures,
        "attempted": len(items),
        "failed": n_failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    # A set-up probe runs the speed probe from its first statement on.
    speed = SpeedProbe()
    with speed.running() if args.probe else nullcontext():
        load_program()
        sys.path.insert(0, str(HERE))
        out_parent = ROOT / ".perfbench_out"
        out_root = out_parent / str(os.getpid())
        out_root.mkdir(parents=True, exist_ok=True)
        try:
            if args.probe:
                make_workload(args, out_root)
            else:
                result, detail = measure(args, out_root)
        finally:
            shutil.rmtree(out_root, ignore_errors=True)
            try:
                out_parent.rmdir()
            except OSError:
                pass  # another run still uses it
    if args.probe:
        print("ready", json.dumps([dt for _, dt in speed.samples]), flush=True)
        return 0
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)
    return 0

if __name__ == "__main__":
    sys.exit(main())
