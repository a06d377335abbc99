"""Batch scenario runner: dispatch, artifact writing, exit-code contract.

Each kind computes its checks and writes only its kind-specific report
(``report.csv``, ``summary.csv`` for estimate checks, ``kernel.csv``) into
``<out_root>/<name>/``.  It returns an ``_Outcome``; ``run_scenario`` then
writes the outcome's trajectories (``trajectory.csv``, ``x_trajectory.csv``
for the closed loop) and, unless plots are disabled, one ``plot.svg`` whose
y axis follows the scenario's ``logy``.  A kind that raises writes no
trajectory.  A scenario passes iff every check it declares passes; no check
is ever skipped silently -- inapplicable configurations raise and the
scenario fails.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import backstepping as bs
from . import certify
from .errors import IssParabolicError, ScenarioError
from .grid import Field, Trajectory, format_floats, write_csv
from .monotone import DEFAULT_ORDERING_TOL, constant_reduction_experiment, write_sandwich_csv
from .norms import lp_norms
from .scenarios import (
    ZERO,
    Scenario,
    build_problem,
    make_initial,
    make_signal,
    nonnegative_int,
    parse_scenario,
    positive_float,
)
from .solver import BoundarySignal, SemilinearProblem, simulate, write_trajectory_csv
from .svgplot import write_line_plot

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2

# Fixed parameters of the kernel and open-loop checks.
GROWTH_MIN = 10.0
ROUNDTRIP_TOL = 1e-8
N_TEST_FIELDS = 20


@dataclass
class ScenarioResult:
    name: str
    kind: str
    passed: bool
    min_margin: float
    wall_ms: float
    message: str = ""

    def summary_row(self) -> str:
        return f"{self.name},{self.kind},{str(self.passed).lower()},{self.min_margin:.6g},{self.wall_ms:.1f}"


@dataclass(frozen=True)
class _Outcome:
    """A kind's verdict and margin, the trajectories to write and its plot."""

    passed: bool
    margin: float
    trajectories: dict[str, Trajectory]
    x: np.ndarray
    curves: dict[str, np.ndarray]
    ylabel: str
    xlabel: str = "t"


def _tol(scn: Scenario, default: float) -> float:
    return default if scn.tol is None else scn.tol


def _rate_check(scn: Scenario, times, norms, target: float, default_tol: float, t_start: float = 0.0):
    """Fitted decay rate against ``target``: (passed, margin, target envelope)."""
    rate_tol = _tol(scn, default_tol)
    rel_err = abs(certify.fit_decay_rate(times, norms, t_start) - target) / target
    return rel_err <= rate_tol, rate_tol - rel_err, norms[0] * np.exp(-target * times)


def _estimate_outcome(report: certify.ISSReport, out_dir: Path, trajectories: dict, ylabel: str) -> _Outcome:
    """Write an estimate check's report and summary; plot lhs against rhs."""
    certify.write_report_csv(report, out_dir / "report.csv")
    certify.write_summary_csv(report, out_dir / "summary.csv")
    curves = {"lhs": report.lhs, "rhs": report.rhs}
    return _Outcome(report.passed, report.margin_rel, trajectories, report.times, curves, ylabel)


def _run_simulate(scn: Scenario, out_dir: Path, rng: np.random.Generator) -> _Outcome:
    traj = simulate(build_problem(scn, rng), scn.grid)
    norms = lp_norms(traj.data, scn.grid.h, scn.p)
    if scn.decay_rate is not None:
        passed, margin, rhs = _rate_check(scn, traj.times, norms, scn.decay_rate, certify.DEFAULT_REL_TOL)
        curves = {"norm": norms, "target": rhs}
    else:
        passed, margin, rhs = True, math.inf, norms
        curves = {"norm": norms}
    certify.write_margin_csv(out_dir / "report.csv", traj.times, norms, rhs)
    return _Outcome(passed, margin, {"trajectory.csv": traj}, traj.times, curves, f"L{scn.p:g} norm")


def _run_sandwich(scn: Scenario, out_dir: Path, rng: np.random.Generator) -> _Outcome:
    problem = build_problem(scn, rng)
    report = constant_reduction_experiment(problem, scn.grid, scn.epsilon, _tol(scn, DEFAULT_ORDERING_TOL))
    write_sandwich_csv(report, out_dir / "report.csv")
    margin = float(min(report.min_gap_low.min(), report.min_gap_high.min()))
    curves = {"gap_low": report.min_gap_low, "gap_high": report.min_gap_high}
    return _Outcome(report.passed, margin, {"trajectory.csv": report.traj}, report.times, curves, "envelope gap")


def _run_iss_check(scn: Scenario, out_dir: Path, rng: np.random.Generator) -> _Outcome:
    traj = simulate(build_problem(scn, rng), scn.grid)
    rel_tol = _tol(scn, certify.DEFAULT_REL_TOL)
    if scn.estimate == "weighted_l1":
        report = certify.check_weighted_l1(traj, rel_tol, gain_override=scn.gain_override)
    elif scn.estimate == "l2":
        report = certify.check_l2(traj, rel_tol)
    else:
        report = certify.check_weighted_sup(traj, scn.sigma, scn.theta, rel_tol)
    return _estimate_outcome(report, out_dir, {"trajectory.csv": traj}, scn.estimate)


def _run_lyapunov(scn: Scenario, out_dir: Path, rng: np.random.Generator) -> _Outcome:
    problem = build_problem(scn, rng)
    report = certify.lyapunov_decay_certificate(problem, scn.grid, scn.p, _tol(scn, certify.DEFAULT_REL_TOL))
    certify.write_decay_csv(report, out_dir / "report.csv")
    return _Outcome(
        report.passed, min(report.margin_v_rel, report.margin_norm_rel), {"trajectory.csv": report.traj},
        report.times, {"lhs": report.norm_lhs, "rhs": report.norm_rhs}, f"L{scn.p:g} norm",
    )


def _run_kernel_synthesis(scn: Scenario, out_dir: Path, rng: np.random.Generator) -> _Outcome:
    kernel = bs.solve_kernel(scn.a, scn.k_reaction, scn.grid)
    inverse = bs.solve_inverse_kernel(kernel)
    bs.write_kernel_csv(kernel, out_dir / "kernel.csv")

    oracle = bs.kernel_series_reference(scn.a, scn.k_reaction, scn.grid)
    oracle_err = float(np.max(np.abs(kernel.samples - oracle)))

    fields = bs._random_smooth_fields(scn.grid, N_TEST_FIELDS, rng)
    transformed = fields + fields @ kernel.matrix.T
    back = transformed + transformed @ inverse.matrix.T
    roundtrip_err = float(np.max(np.abs(back - fields)))

    checks = [
        ("oracle_sup_diff", oracle_err, _tol(scn, 1e-6)),
        ("roundtrip_sup_err", roundtrip_err, ROUNDTRIP_TOL),
    ]
    _write_check_csv(out_dir / "report.csv", checks)
    passed = all(value <= threshold for _, value, threshold in checks)
    margin = min((threshold - value) / threshold for _, value, threshold in checks)
    return _Outcome(passed, margin, {}, scn.grid.nodes, {"k(0,s)": kernel.samples[0]}, "feedback kernel", "s")


def _write_check_csv(path, checks) -> None:
    """Export named threshold checks: check,value,threshold,pass."""
    names, values, thresholds = zip(*checks)
    passes = [str(value <= threshold).lower() for value, threshold in zip(values, thresholds)]
    write_csv(path, "check,value,threshold,pass", [(names, format_floats(values), format_floats(thresholds), passes)])


def _fit_loop_constants(scn: Scenario, d_signal: BoundarySignal, rng: np.random.Generator) -> certify.ExpIssConstants:
    """Fit target-system constants from two auxiliary heat runs."""
    grid = scn.grid
    times = grid.times()
    decay_problem = build_problem(replace(scn, reaction=ZERO, initial=("sin_pi", ()), d0=ZERO, d1=ZERO), rng)
    forced_problem = SemilinearProblem(
        a=scn.a,
        initial=Field.zeros(grid),
        # Zero-state run: d with d(0) set to 0, admissible even when d(0) != 0.
        boundary_left=BoundarySignal.sampled(times, np.where(times > 0, d_signal(times), 0.0)),
        boundary_right=BoundarySignal.zero(),
    )
    runs = [simulate(decay_problem, grid), simulate(forced_problem, grid)]
    return certify.estimate_exp_iss_constants(runs, scn.p)


def _run_backstepping(scn: Scenario, out_dir: Path, rng: np.random.Generator) -> _Outcome:
    grid = scn.grid
    if scn.mode == "open":
        plant = replace(scn, reaction=("linear", (scn.k_reaction,)), initial=("sin_pi", ()), d0=ZERO, d1=ZERO)
        traj = simulate(build_problem(plant, rng), grid)
        norms = lp_norms(traj.data, grid.h, scn.p)
        growth = float(norms.max() / norms[0])
        threshold = np.full_like(norms, norms[0] * GROWTH_MIN)
        certify.write_margin_csv(out_dir / "report.csv", traj.times, norms, threshold)
        curves = {"norm": norms, "growth_cut": threshold}
        margin = growth / GROWTH_MIN - 1.0
        return _Outcome(growth >= GROWTH_MIN, margin, {"trajectory.csv": traj}, traj.times, curves, "open-loop norm")

    kernel = bs.solve_kernel(scn.a, scn.k_reaction, grid)
    d_signal = make_signal(scn.d0, grid, scn.base_dir)
    base = make_initial(scn.initial, grid, rng, 0.0, 0.0)
    y0 = bs.compatible_initial_state(kernel, base, float(d_signal(0.0)))
    run = bs.simulate_closed_loop(scn.a, scn.k_reaction, y0, d_signal, grid, kernel=kernel)
    trajectories = {"trajectory.csv": run.y_traj, "x_trajectory.csv": run.x_traj}

    if d_signal.sup_norm == 0.0:
        times = run.y_traj.times
        norms = lp_norms(run.y_traj.data, grid.h, scn.p)
        passed, margin, rhs = _rate_check(scn, times, norms, scn.a * math.pi**2, 0.05, 0.2 * grid.t_final)
        certify.write_margin_csv(out_dir / "report.csv", times, norms, rhs)
        return _Outcome(passed, margin, trajectories, times, {"closed_loop": norms, "target_rate": rhs}, "norm")

    inverse = bs.solve_inverse_kernel(kernel)
    k1, k2 = bs.estimate_equivalence_constants(kernel, inverse, scn.p)
    constants = bs.ClosedLoopConstants(k1=k1, k2=k2, iss=_fit_loop_constants(scn, d_signal, rng))
    report = bs.certify_closed_loop(run.y_traj, constants, run.disturbance, tol=_tol(scn, 1e-6))
    return _estimate_outcome(report, out_dir, trajectories, "closed-loop norm")


_DISPATCH = {
    "simulate": _run_simulate,
    "sandwich": _run_sandwich,
    "iss_check": _run_iss_check,
    "lyapunov": _run_lyapunov,
    "kernel_synthesis": _run_kernel_synthesis,
    "backstepping_loop": _run_backstepping,
}


def _overrides(tol, seed_override) -> dict:
    """The given overrides as Scenario fields, parsed as the keys ``tol`` and ``seed`` are."""
    given = (("tol", positive_float, tol), ("seed", nonnegative_int, seed_override))
    try:
        return {key: parse(str(value)) for key, parse, value in given if value is not None}
    except ValueError as exc:
        raise ScenarioError(f"bad override: {exc}") from exc


def run_scenario(
    scenario: Scenario,
    out_root,
    tol: Optional[float] = None,
    no_plots: bool = False,
    seed_override: Optional[int] = None,
) -> ScenarioResult:
    """Execute one scenario; artifacts land in out_root/<name>/.

    ``tol`` and ``seed_override`` replace the scenario's own values; an
    out-of-domain override, or an output directory that cannot be created,
    raises ``ScenarioError``.
    """
    start = time.perf_counter()
    scenario = replace(scenario, **_overrides(tol, seed_override))
    out_dir = Path(out_root) / scenario.name
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"cannot use output directory {out_dir}: {exc}") from exc
    try:
        outcome = _DISPATCH[scenario.kind](scenario, out_dir, np.random.default_rng(scenario.seed))
    except IssParabolicError as exc:
        passed, margin, message = False, -math.inf, str(exc)
    else:
        for file_name, traj in outcome.trajectories.items():
            write_trajectory_csv(traj, out_dir / file_name)
        if not no_plots:
            write_line_plot(
                out_dir / "plot.svg", outcome.x, outcome.curves, title=scenario.name,
                xlabel=outcome.xlabel, ylabel=outcome.ylabel, logy=scenario.logy,
            )
        passed, margin, message = outcome.passed, outcome.margin, ""
    wall_ms = (time.perf_counter() - start) * 1e3
    return ScenarioResult(scenario.name, scenario.kind, passed, margin, wall_ms, message)


def run_suite(directory, out_root, tol=None, no_plots=False, seed_override=None) -> tuple[list[ScenarioResult], int]:
    """Run every scenario file in a directory; no fail-fast.

    Returns the per-scenario results and the suite exit code (0 all pass,
    1 any failure, 2 empty or unreadable directory).  A file that does not
    parse, reuses an earlier file's name or whose output directory cannot
    be created fails without running.
    Out-of-domain overrides raise ``ScenarioError`` before any scenario runs.
    """
    _overrides(tol, seed_override)
    directory = Path(directory)
    if not directory.is_dir():
        return [], EXIT_CONFIG_ERROR
    files = sorted(directory.glob("*.scn"))
    if not files:
        return [], EXIT_CONFIG_ERROR
    results, first_file = [], {}
    for f in files:
        try:
            scn = parse_scenario(f)
            if scn.name in first_file:
                raise ScenarioError(f"{f}: scenario name {scn.name!r} is already used by {first_file[scn.name]}")
            first_file[scn.name] = f
            results.append(run_scenario(scn, out_root, tol=tol, no_plots=no_plots, seed_override=seed_override))
        except ScenarioError as exc:
            results.append(ScenarioResult(f.stem, "?", False, -math.inf, 0.0, str(exc)))
    code = EXIT_PASS if all(r.passed for r in results) else EXIT_CHECK_FAILED
    return results, code
