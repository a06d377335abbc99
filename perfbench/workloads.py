"""The three benchmark workloads.

Each workload is a closed loop driven by one caller in one process: the
next item starts only after the previous one returns.  A workload object is
built once per process from the seed (this is the set-up the benchmark
times), and ``run_pass`` runs one pass over it.  A pass returns its wall
time, one :class:`Item` per scenario, batch case or closed-loop plant, for
``suite_core`` a digest of the CSV artifacts it wrote, and the intervals
it ran under the speed probe (``probe``, a context-manager factory; see
speed.py): the whole pass on the first two workloads, the steps after
kernel synthesis on ``closed_loop_fine``.

Why these three (the sentences below are also quoted in BENCHMARK.json):

- ``suite_core`` runs ``iss-parabolic suite suites/core`` in process, with
  plots on.  It is the command users run and the end-to-end figure of the
  roadmap.  ``write_trajectory_csv`` takes about 70% of a pass and
  simulation about 20%, so a writer change shows here and nowhere else.
- ``scenario_batch`` runs 100 random heat problems through ``simulate`` and
  ``check_l2`` (the generator of acceptance criterion 2), 20 cubic-reaction
  sandwich experiments, a zero-input and a zero-state run, then fits the
  exponential ISS constants and checks every run against them.  Per-step
  solver overhead at small n dominates, so it shows a prefactored or
  batched stepper; the sandwich items, with three simulations each, form
  its latency tail.  No files are written.
- ``closed_loop_fine`` synthesises and certifies one backstepping loop per
  item at n_interior=999.  Dense kernel synthesis is about 70% of an item,
  so it is the only workload that shows a kernel change; it also covers the
  solver at n=999 and the stepping path whose boundary value comes from the
  state at each step.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path

import numpy as np

import iss_parabolic as ip
from iss_parabolic import cli

from tracing import ITEM, PASS

# Absolute tolerances for comparing an item's key scalars with the
# reference values.  They admit the 1e-12 trajectory drift of a stepper
# that factorises differently (LDL^T instead of banded LU).  The commutation
# residual divides state differences by h^2 = 1e-6 at n=999, so a 1e-12
# drift can move it by ~4e-6.
TOLERANCE = {
    "margin": 1e-9,
    "rate": 1e-9,
    "constant": 1e-9,
    "oracle_err": 1e-10,
    "residual": 1e-5,
}
# The CLI summary prints margins with six significant digits.
SUMMARY_REL_TOL = 1e-5

# suite_core at minimal size runs these scenario files only.
MIN_SUITE = ("kernel_a1k10", "l2_random_a", "lyapunov_p8", "sandwich_heat")

# closed_loop_fine draws each plant from this grid of reaction coefficients
# and actuator disturbances, so that every plant has reference values.
# Synthesis (~70% of a plant) takes ~30% longer at k=20 than at k=8, so
# plant j draws k from stratum j % 3 (middle, low, high): the median over
# the first 3 to 7 plants, as many as a run holds, is then a k=14 plant (or
# the mean of two) whatever the seed and the pass count, and the seed's
# draw of k does not move pass_s.
K_STRATA = ((14.0,), (8.0, 10.0, 12.0), (16.0, 18.0, 20.0))
K_REACTIONS = tuple(sorted(k for stratum in K_STRATA for k in stratum))
MAX_PLANTS = 30
DISTURBANCES = ("step(0.5,0.05)", "step(-0.4,0.1)", "sinusoid(0.4,8)", "sinusoid(0.25,20)")
CLOSED_LOOP_SCALARS = (
    ("oracle_err", "oracle_err"), ("k1", "constant"), ("k2", "constant"), ("sigma", "rate"),
    ("m", "constant"), ("gamma", "constant"), ("margin", "margin"), ("residual", "residual"),
)


@dataclass
class Item:
    """One scenario, batch case or closed-loop plant."""

    label: str
    seconds: float = 0.0
    problems: list = field(default_factory=list)
    scalars: dict = field(default_factory=dict)

    def fail(self, reason: str) -> None:
        self.problems.append(reason)

    def expect(self, name: str, kind: str, reference: float, rel: float = 0.0) -> None:
        """Flag the item if scalar ``name`` is missing or off its reference."""
        value = self.scalars.get(name)
        if value is None:
            if not self.problems:
                self.fail(f"{name} was not computed")
            return
        tol = TOLERANCE[kind] + rel * abs(reference)
        if not abs(value - reference) <= tol:
            self.fail(f"{name}={value!r} differs from reference {reference!r} by more than {tol:.3g}")


@dataclass
class Pass:
    start: float  # perf_counter() when the timed pass began
    seconds: float
    items: list
    digest: str = ""
    # (start, seconds) of the parts of the pass that ran under the speed
    # probe: the interpreter-bound ones, whose time is rescaled.
    probed: list = field(default_factory=list)


def _span(tracer, name, new_item=False):
    return tracer.span(name, new_item=new_item) if tracer is not None else nullcontext()


def _run_item(item: Item, tracer, body) -> None:
    """Run ``body(item)`` as one timed item; an exception fails the item."""
    with _span(tracer, ITEM, new_item=True):
        start = time.perf_counter()
        try:
            body(item)
        except Exception as exc:  # noqa: BLE001 - an item that raises is a failed item
            item.fail(f"raised {type(exc).__name__}: {exc}")
        item.seconds += time.perf_counter() - start


def _heat(grid, initial, d0=None, d1=None):
    return ip.SemilinearProblem(
        a=1.0,
        initial=ip.Field(initial, grid),
        boundary_left=d0 or ip.BoundarySignal.zero(),
        boundary_right=d1 or ip.BoundarySignal.zero(),
    )


def _random_signal(rng, times, allow_zero: bool):
    """Boundary signal generator of acceptance criteria 2 and 5."""
    kinds = ["sinusoid", "step"] + (["zero"] if allow_zero else [])
    kind = rng.choice(kinds)
    if kind == "zero":
        return ip.BoundarySignal.zero()
    if kind == "sinusoid":
        amp, omega = rng.uniform(0.1, 1.0), rng.uniform(1.0, 20.0)
        return ip.BoundarySignal.sampled(times, amp * np.sin(omega * times))
    level, t_on = rng.uniform(-1.0, 1.0), rng.uniform(0.02, 0.15)
    return ip.BoundarySignal.sampled(times, np.where(times >= t_on, level, 0.0))


def _random_initial(rng, grid, left0, right0, amp=1.0, modes=6):
    """Initial-profile generator of acceptance criteria 2 and 5."""
    z = grid.nodes
    profile = left0 * (1.0 - z) + right0 * z
    for j in range(1, modes + 1):
        profile = profile + amp * rng.uniform(-1.0, 1.0) / j**2 * np.sin(j * np.pi * z)
    return profile


def _disturbance(label: str, times: np.ndarray):
    kind, args = label.rstrip(")").split("(")
    a, b = (float(v) for v in args.split(","))
    if kind == "step":
        return ip.BoundarySignal.sampled(times, np.where(times >= b, a, 0.0))
    return ip.BoundarySignal.sampled(times, a * np.sin(b * times))


def _run_cli(argv: list) -> tuple:
    """``cli.main(argv)`` with its output captured; an exception is exit code None."""
    stdout, stderr = StringIO(), StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - a crashing CLI fails its items
            code = None
            print(f"raised {type(exc).__name__}: {exc}", file=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


def csv_digest(directory: Path) -> str:
    """SHA-256 over the relative paths and bytes of every CSV artifact."""
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.csv")):
        digest.update(str(path.relative_to(directory)).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(hashlib.file_digest(fh, "sha256").digest())
    return digest.hexdigest()


class SuiteCore:
    """``iss-parabolic suite suites/core --seed <seed>`` in process, plots on."""

    name = "suite_core"

    def __init__(self, root: Path, seed: int, size: str, out_root: Path, reference: dict):
        files = sorted((root / "suites" / "core").glob("*.scn"))
        if size == "min":
            self.suite_dir = out_root / "mini_suite"
            self.suite_dir.mkdir(parents=True, exist_ok=True)
            files = [shutil.copy(f, self.suite_dir / f.name) for f in files if f.stem in MIN_SUITE]
        else:
            self.suite_dir = root / "suites" / "core"
        scenarios = [ip.scenarios.parse_scenario(f) for f in files]
        self.kinds = {scn.name: scn.kind for scn in scenarios}
        if not self.kinds:
            raise FileNotFoundError(f"no scenario files in {self.suite_dir}")
        self.seed = seed
        self.out_root = out_root
        self.reference = reference

    def run_pass(self, index: int, tracer=None, probe=nullcontext) -> Pass:
        out = self.out_root / f"pass{index}"
        argv = ["suite", str(self.suite_dir), "--out", str(out), "--seed", str(self.seed)]
        with _span(tracer, PASS), probe():
            start = time.perf_counter()
            code, stdout, stderr = _run_cli(argv)
            seconds = time.perf_counter() - start
        items = self._items(stdout, out)
        if code != 0 and all(not item.problems for item in items):
            for item in items:
                item.fail(f"suite exited with {code}: {stderr.strip()}")
        digest = csv_digest(out)
        shutil.rmtree(out, ignore_errors=True)
        return Pass(start, seconds, items, digest, probed=[(start, seconds)])

    def _items(self, summary: str, out: Path) -> list:
        rows = {}
        for line in summary.splitlines()[1:]:
            name, _kind, passed, margin, wall_ms = line.split(",")
            rows[name] = (passed == "true", float(margin), float(wall_ms) / 1e3)
        items = []
        for name, kind in self.kinds.items():
            item = Item(name)
            items.append(item)
            if name not in rows:
                item.fail("no summary row")
                continue
            passed, margin, item.seconds = rows[name]
            if not passed:
                item.fail(f"check failed with margin {margin}")
            item.scalars["min_margin"] = margin
            report = out / name / "report.csv"
            if kind == "kernel_synthesis" and report.exists():
                fields = (line.split(",") for line in report.read_text().splitlines()[1:])
                values = {f[0]: float(f[1]) for f in fields}
                if "oracle_sup_diff" in values:
                    item.scalars["oracle_sup_diff"] = values["oracle_sup_diff"]
        return items

    def compare(self, item: Item) -> None:
        ref = self.reference.get(item.label)
        if ref is None:
            item.fail("no reference values for this scenario")
            return
        if "min_margin" in ref:
            item.expect("min_margin", "margin", ref["min_margin"], rel=SUMMARY_REL_TOL)
        if "oracle_sup_diff" in ref:
            item.expect("oracle_sup_diff", "oracle_err", ref["oracle_sup_diff"])


class ScenarioBatch:
    """Seeded in-memory batch: heat L2 checks, cubic sandwiches, a fitted estimate."""

    name = "scenario_batch"

    def __init__(self, root: Path, seed: int, size: str, out_root: Path, reference: dict):
        n_heat, n_sandwich = (100, 20) if size == "full" else (3, 2)
        self.heat_grid = ip.Grid1D(n_interior=63, dt=2e-4, t_final=0.3)
        self.sandwich_grid = ip.Grid1D(n_interior=47, dt=2e-4, t_final=0.2)
        times = self.heat_grid.times()
        self.heat = []
        for i in range(n_heat):
            rng = np.random.default_rng([seed, i])
            d0 = _random_signal(rng, times, allow_zero=False)
            d1 = _random_signal(rng, times, allow_zero=True)
            x0 = _random_initial(rng, self.heat_grid, float(d0(0.0)), float(d1(0.0)))
            self.heat.append(_heat(self.heat_grid, x0, d0=d0, d1=d1))
        s_times = self.sandwich_grid.times()
        self.sandwich = []
        for j in range(n_sandwich):
            rng = np.random.default_rng([seed, 1000 + j])
            d0 = _random_signal(rng, s_times, allow_zero=True)
            d1 = _random_signal(rng, s_times, allow_zero=True)
            x0 = _random_initial(rng, self.sandwich_grid, float(d0(0.0)), float(d1(0.0)), amp=0.8, modes=4)
            self.sandwich.append(ip.SemilinearProblem(
                a=1.0, initial=ip.Field(x0, self.sandwich_grid), boundary_left=d0, boundary_right=d1,
                reaction=lambda z, w, g: w - w**3, lipschitz_k=1.0,
            ))
        self.zero_input = _heat(self.heat_grid, np.sin(np.pi * self.heat_grid.nodes))
        rng = np.random.default_rng([seed, 2000])
        level, t_on = rng.uniform(0.2, 1.0), rng.uniform(0.02, 0.15)
        step = ip.BoundarySignal.sampled(times, np.where(times >= t_on, level, 0.0))
        self.zero_state = _heat(self.heat_grid, np.zeros(self.heat_grid.n_nodes), d0=step)
        self.reference = reference

    def run_pass(self, index: int, tracer=None, probe=nullcontext) -> Pass:
        items, runs = [], []
        with _span(tracer, PASS), probe():
            start = time.perf_counter()
            for i, problem in enumerate(self.heat):
                item = Item(f"heat{i}")

                def heat_case(item, problem=problem):
                    traj = ip.simulate(problem, self.heat_grid)
                    report = ip.check_l2(traj, tol=0.02)
                    item.scalars["l2_margin"] = report.margin_rel
                    if not report.passed:
                        item.fail(f"L2 estimate failed with margin {report.margin_rel}")
                    runs.append((item, traj))

                _run_item(item, tracer, heat_case)
                items.append(item)
            for j, problem in enumerate(self.sandwich):
                item = Item(f"sandwich{j}")

                def sandwich_case(item, problem=problem):
                    report = ip.constant_reduction_experiment(problem, self.sandwich_grid, epsilon=0.1, tol=1e-10)
                    item.scalars["min_gap"] = float(min(report.min_gap_low.min(), report.min_gap_high.min()))
                    if not report.passed:
                        item.fail("constant-input sandwich lost its ordering")

                _run_item(item, tracer, sandwich_case)
                items.append(item)
            for label, problem in (("zero_input", self.zero_input), ("zero_state", self.zero_state)):
                item = Item(label)
                _run_item(item, tracer, lambda item, p=problem: runs.append((item, ip.simulate(p, self.heat_grid))))
                items.append(item)
            self._fitted_checks(runs, items, tracer)
            seconds = time.perf_counter() - start
        return Pass(start, seconds, items, probed=[(start, seconds)])

    def _fitted_checks(self, runs, items, tracer) -> None:
        owner = next(item for item in items if item.label == "zero_input")
        try:
            with _span(tracer, ITEM, new_item=True):
                constants = ip.estimate_exp_iss_constants([traj for _, traj in runs], 2.0)
        except Exception as exc:  # noqa: BLE001 - a failed fit fails every fitted check
            for item, _ in runs:
                item.fail(f"fit raised {type(exc).__name__}: {exc}")
            return
        owner.scalars.update(sigma=constants.sigma, m=constants.m)
        margins = []
        for item, traj in runs:

            def fitted_case(item, traj=traj):
                report = ip.check_fitted_lp(traj, constants)
                margins.append(report.margin_rel)
                if not report.passed:
                    item.fail(f"fitted L2 estimate failed with margin {report.margin_rel}")

            _run_item(item, tracer, fitted_case)
        if margins:
            owner.scalars["fitted_margin_min"] = min(margins)

    def compare(self, item: Item) -> None:
        ref = self.reference
        if item.label.startswith("heat"):
            item.expect("l2_margin", "margin", ref["l2_margin"])
        elif item.label.startswith("sandwich"):
            item.expect("min_gap", "margin", ref["min_gap"])
        elif item.label == "zero_input":
            item.expect("sigma", "rate", ref["sigma"])
            item.expect("m", "constant", ref["m"])
            item.expect("fitted_margin_min", "margin", ref["fitted_margin_min"])


class ClosedLoopFine:
    """Backstepping synthesis, simulation and certification at n_interior=999."""

    name = "closed_loop_fine"

    def __init__(self, root: Path, seed: int, size: str, out_root: Path, reference: dict):
        n = 999 if size == "full" else 99
        dt = 1e-4 if size == "full" else 2e-4
        self.grid = ip.Grid1D(n_interior=n, dt=dt, t_final=0.5)
        times = self.grid.times()
        rng = np.random.default_rng(seed)
        self.plants = []
        for j in range(MAX_PLANTS):
            k_reaction = float(rng.choice(K_STRATA[j % 3]))
            label = str(rng.choice(DISTURBANCES))
            self.plants.append((k_reaction, label, _disturbance(label, times)))
        self.base = ip.Field(np.sin(np.pi * self.grid.nodes), self.grid)
        self.reference = reference

    @staticmethod
    def key(n_interior: int, k_reaction: float, disturbance: str) -> str:
        return f"n{n_interior}/k{k_reaction:g}/{disturbance}"

    def run_pass(self, index: int, tracer=None, probe=nullcontext) -> Pass:
        k_reaction, label, d = self.plants[index % len(self.plants)]
        item = Item(self.key(self.grid.n_interior, k_reaction, label))
        probed = []
        with _span(tracer, PASS):
            start = time.perf_counter()
            _run_item(item, tracer, lambda item: self.plant(item, k_reaction, d, probe, probed))
            seconds = time.perf_counter() - start
        return Pass(start, seconds, [item], probed=probed)

    def compare(self, item: Item) -> None:
        ref = self.reference.get(item.label)
        if ref is None:
            item.fail("no reference values for this plant")
            return
        for name, kind in CLOSED_LOOP_SCALARS:
            item.expect(name, kind, ref[name])

    def plant(self, item: Item, k_reaction: float, d, probe=nullcontext, probed=None) -> None:
        """One closed-loop plant; the steps after synthesis run under ``probe``.

        Synthesis is array work on 2001 x 1001 and 1000 x 1000 arrays (~70%
        of a plant), which the host's speed swings barely touch; the steps
        after it step the solver at n=999, ~30% of a plant, and are
        interpreter-bound.  Their interval is appended to ``probed``.
        """
        grid, a = self.grid, 1.0
        kernel = ip.solve_kernel(a, k_reaction, grid)
        oracle = ip.kernel_series_reference(a, k_reaction, grid)
        oracle_err = float(np.max(np.abs(kernel.samples - oracle)))
        inverse = ip.solve_inverse_kernel(kernel)
        k1, k2 = ip.estimate_equivalence_constants(kernel, inverse, 2.0)
        with probe():
            start = time.perf_counter()
            y0 = ip.compatible_initial_state(kernel, self.base, float(d(0.0)))
            run = ip.simulate_closed_loop(a, k_reaction, y0, d, grid, kernel=kernel)
            decay = ip.simulate(_heat(grid, self.base.values), grid)
            forced = ip.simulate(_heat(grid, np.zeros(grid.n_nodes), d0=d), grid)
            iss = ip.estimate_exp_iss_constants([decay, forced], 2.0)
            constants = ip.ClosedLoopConstants(k1=k1, k2=k2, iss=iss)
            report = ip.certify_closed_loop(run.y_traj, constants, run.disturbance, tol=1e-6)
            residual = ip.transform_commutation_residual(run)
            if probed is not None:
                probed.append((start, time.perf_counter() - start))
        item.scalars.update(
            oracle_err=oracle_err, k1=k1, k2=k2, sigma=iss.sigma, m=iss.m, gamma=iss.gamma,
            margin=report.margin_rel, residual=residual,
        )
        if not oracle_err < 1e-6:
            item.fail(f"kernel differs from the series oracle by {oracle_err:.3e}")
        if not report.passed:
            item.fail(f"closed-loop certificate failed with margin {report.margin_rel}")
        if not math.isfinite(residual):
            item.fail("commutation residual is not finite")


WORKLOADS = {w.name: w for w in (SuiteCore, ScenarioBatch, ClosedLoopFine)}


def negative_control(root: Path, out_root: Path) -> Item:
    """``suites/negative`` must fail its check: the CLI has to exit with 1."""
    item = Item("negative/tampered_gain")
    out = out_root / "negative"
    argv = ["run", str(root / "suites" / "negative" / "tampered_gain.scn"), "--out", str(out), "--no-plots"]
    start = time.perf_counter()
    code, _stdout, stderr = _run_cli(argv)
    item.seconds = time.perf_counter() - start
    if code != 1:
        item.fail(f"negative control exited with {code}, expected 1: {stderr.strip()}")
    shutil.rmtree(out, ignore_errors=True)
    return item
