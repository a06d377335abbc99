"""Batch scenario runner: dispatch, artifact writing, exit-code contract.

A kind is ``(scenario, rng) -> _Outcome`` and writes nothing: the outcome
declares every artifact as ``files = {file name: (writer, what it writes)}``
(``trajectory.npy``, ``x_trajectory.npy`` for the closed loop, both saved
by ``solver.write_trajectory``; ``report.csv``, ``summary.csv`` for
estimate checks, ``kernel.csv``).  ``run_scenario``
writes each as ``writer(obj, <out_root>/<name>/<file name>)`` and, unless
plots are disabled, one ``plot.svg`` whose y axis follows ``logy``.  A kind
that raises writes no artifact.  A scenario passes iff every check it
declares passes; no check is ever skipped silently.  Rules the file alone
decides are refused when it is read; what raises here needs a run and fails.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import backstepping as bs
from . import certify
from .errors import IssParabolicError, ScenarioError
from .grid import Field, write_csv
from .monotone import DEFAULT_ORDERING_TOL, constant_reduction_experiment, write_sandwich_csv
from .scenarios import (
    ZERO,
    Scenario,
    build_problem,
    check_name,
    make_initial,
    make_signal,
    parse_scenario,
)
from .solver import BoundarySignal, SemilinearProblem, simulate, write_trajectory
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
        name = '"%s"' % self.name.replace('"', '""') if any(c in self.name for c in ',"\r\n') else self.name
        return f"{name},{self.kind},{str(self.passed).lower()},{self.min_margin:.6g},{self.wall_ms:.1f}"


@dataclass(frozen=True)
class _Outcome:
    """A kind's verdict and margin, its artifacts as {file name: (writer, what it writes)} and its plot."""

    passed: bool
    margin: float
    files: dict[str, tuple]
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


def _estimate_outcome(report: certify.ISSReport, files: dict, ylabel: str) -> _Outcome:
    """An estimate check's outcome: ``files`` plus its report and summary; plot lhs against rhs."""
    files = {**files, "report.csv": (certify.write_report_csv, report),
             "summary.csv": (certify.write_summary_csv, report)}
    return _Outcome(report.passed, report.margin_rel, files, report.times, {"lhs": report.lhs, "rhs": report.rhs}, ylabel)


def _run_simulate(scn: Scenario, rng: np.random.Generator) -> _Outcome:
    traj = simulate(build_problem(scn, rng), scn.grid)
    norms = traj.lp_norms(scn.p)
    if scn.decay_rate is not None:
        passed, margin, rhs = _rate_check(scn, traj.times, norms, scn.decay_rate, certify.DEFAULT_REL_TOL)
        curves = {"norm": norms, "target": rhs}
    else:
        passed, margin, rhs = True, math.inf, norms
        curves = {"norm": norms}
    files = {"trajectory.npy": (write_trajectory, traj),
             "report.csv": (certify.write_margin_csv, (traj.times, norms, rhs))}
    return _Outcome(passed, margin, files, traj.times, curves, f"L{scn.p:g} norm")


def _run_sandwich(scn: Scenario, rng: np.random.Generator) -> _Outcome:
    problem = build_problem(scn, rng)
    report = constant_reduction_experiment(problem, scn.grid, scn.epsilon, _tol(scn, DEFAULT_ORDERING_TOL))
    files = {"trajectory.npy": (write_trajectory, report.traj), "report.csv": (write_sandwich_csv, report)}
    margin = float(min(report.min_gap_low.min(), report.min_gap_high.min()))
    curves = {"gap_low": report.min_gap_low, "gap_high": report.min_gap_high}
    return _Outcome(report.passed, margin, files, report.traj.times, curves, "envelope gap")


def _run_iss_check(scn: Scenario, rng: np.random.Generator) -> _Outcome:
    traj = simulate(build_problem(scn, rng), scn.grid)
    rel_tol = _tol(scn, certify.DEFAULT_REL_TOL)
    if scn.estimate == "weighted_l1":
        report = certify.check_weighted_l1(traj, rel_tol, gain_override=scn.gain_override)
    elif scn.estimate == "l2":
        report = certify.check_l2(traj, rel_tol)
    else:
        report = certify.check_weighted_sup(traj, scn.sigma, scn.theta, rel_tol)
    return _estimate_outcome(report, {"trajectory.npy": (write_trajectory, traj)}, scn.estimate)


def _run_lyapunov(scn: Scenario, rng: np.random.Generator) -> _Outcome:
    problem = build_problem(scn, rng)
    report = certify.lyapunov_decay_certificate(problem, scn.grid, scn.p, _tol(scn, certify.DEFAULT_REL_TOL))
    files = {"trajectory.npy": (write_trajectory, report.traj), "report.csv": (certify.write_decay_csv, report)}
    return _Outcome(
        report.passed, min(report.margin_v_rel, report.margin_norm_rel), files,
        report.times, {"lhs": report.norm_lhs, "rhs": report.norm_rhs}, f"L{scn.p:g} norm",
    )


def _run_kernel_synthesis(scn: Scenario, rng: np.random.Generator) -> _Outcome:
    kernel = bs.solve_kernel(scn.a, scn.k_reaction, scn.grid)
    inverse = bs.solve_inverse_kernel(kernel)

    oracle = bs.kernel_series_reference(scn.a, scn.k_reaction, scn.grid)
    oracle_err = float(np.max(np.abs(kernel.samples - oracle)))

    fields = bs._random_smooth_fields(scn.grid, N_TEST_FIELDS, rng)
    back = bs._image(inverse.matrix, bs._image(kernel.matrix, fields))
    roundtrip_err = float(np.max(np.abs(back - fields)))

    checks = [("oracle_sup_diff", oracle_err, _tol(scn, 1e-6)), ("roundtrip_sup_err", roundtrip_err, ROUNDTRIP_TOL)]
    files = {"kernel.csv": (bs.write_kernel_csv, kernel), "report.csv": (_write_check_csv, checks)}
    passed = all(value <= threshold for _, value, threshold in checks)
    margin = min((threshold - value) / threshold for _, value, threshold in checks)
    return _Outcome(passed, margin, files, scn.grid.nodes, {"k(0,s)": kernel.samples[0]}, "feedback kernel", "s")


def _write_check_csv(checks, path) -> None:
    """Export named threshold checks: check,value,threshold,pass."""
    names, values, thresholds = zip(*checks)
    passes = [str(value <= threshold).lower() for value, threshold in zip(values, thresholds)]
    write_csv(path, "check,value,threshold,pass", [(names, values, thresholds, passes)])


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


def _run_backstepping(scn: Scenario, rng: np.random.Generator) -> _Outcome:
    grid = scn.grid
    if scn.mode == "open":
        plant = replace(scn, reaction=("linear", (scn.k_reaction,)), initial=("sin_pi", ()), d0=ZERO, d1=ZERO)
        traj = simulate(build_problem(plant, rng), grid)
        norms = traj.lp_norms(scn.p)
        growth = float(norms.max() / norms[0])
        threshold = np.full_like(norms, norms[0] * GROWTH_MIN)
        files = {"trajectory.npy": (write_trajectory, traj),
                 "report.csv": (certify.write_margin_csv, (traj.times, norms, threshold))}
        curves = {"norm": norms, "growth_cut": threshold}
        margin = growth / GROWTH_MIN - 1.0
        return _Outcome(growth >= GROWTH_MIN, margin, files, traj.times, curves, "open-loop norm")

    kernel = bs.solve_kernel(scn.a, scn.k_reaction, grid)
    d_signal = make_signal(scn.d0, grid, scn.base_dir)
    base = make_initial(scn.initial, grid, rng, 0.0, 0.0)
    y0 = bs.compatible_initial_state(kernel, base, float(d_signal(0.0)))
    run = bs.simulate_closed_loop(scn.a, scn.k_reaction, y0, d_signal, grid, kernel=kernel)
    # The image is formed when it is written, so the auxiliary runs below never hold it.
    files = {"trajectory.npy": (write_trajectory, run.y_traj),
             "x_trajectory.npy": (lambda run, path: write_trajectory(run.x_traj, path), run)}

    if d_signal.sup_norm == 0.0:
        times = run.y_traj.times
        norms = run.y_traj.lp_norms(scn.p)
        passed, margin, rhs = _rate_check(scn, times, norms, scn.a * math.pi**2, 0.05, 0.2 * grid.t_final)
        files["report.csv"] = (certify.write_margin_csv, (times, norms, rhs))
        return _Outcome(passed, margin, files, times, {"closed_loop": norms, "target_rate": rhs}, "norm")

    inverse = bs.solve_inverse_kernel(kernel)
    k1, k2 = bs.estimate_equivalence_constants(kernel, inverse, scn.p)
    constants = bs.ClosedLoopConstants(k1=k1, k2=k2, iss=_fit_loop_constants(scn, d_signal, rng))
    report = bs.certify_closed_loop(run.y_traj, constants, run.disturbance, tol=_tol(scn, 1e-6))
    return _estimate_outcome(report, files, "closed-loop norm")


_DISPATCH = {
    "simulate": _run_simulate,
    "sandwich": _run_sandwich,
    "iss_check": _run_iss_check,
    "lyapunov": _run_lyapunov,
    "kernel_synthesis": _run_kernel_synthesis,
    "backstepping_loop": _run_backstepping,
}


def make_directory(path: Path, what: str) -> Path:
    """Create ``path`` and its parents; one that cannot be made raises ``ScenarioError`` naming ``what``."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"cannot use {what} {path}: {exc}") from exc
    return path


def run_scenario(scenario: Scenario, out_root, no_plots: bool = False) -> ScenarioResult:
    """Execute the scenario as given; artifacts land in out_root/<name>/.

    Overrides are ``parse_scenario``'s to apply.  A name that is not
    filesystem-safe (``scenarios.check_name``, for a ``Scenario`` built in
    code) or an output directory that cannot be created raises
    ``ScenarioError`` before anything is written.
    """
    start = time.perf_counter()
    check_name(scenario.name)
    out_dir = make_directory(Path(out_root) / scenario.name, "output directory")
    try:
        outcome = _DISPATCH[scenario.kind](scenario, np.random.default_rng(scenario.seed))
    except IssParabolicError as exc:
        passed, margin, message = False, -math.inf, str(exc)
    else:
        for file_name, (write, obj) in outcome.files.items():
            write(obj, out_dir / file_name)
        if not no_plots:
            write_line_plot(
                out_dir / "plot.svg", outcome.x, outcome.curves, title=scenario.name,
                xlabel=outcome.xlabel, ylabel=outcome.ylabel, logy=scenario.logy,
            )
        passed, margin, message = outcome.passed, outcome.margin, ""
    wall_ms = (time.perf_counter() - start) * 1e3
    return ScenarioResult(scenario.name, scenario.kind, passed, margin, wall_ms, message)


def run_suite(directory, out_root, no_plots=False, tol=None, seed=None) -> tuple[list[ScenarioResult], int]:
    """Run every scenario file in a directory, each parsed with the overrides ``tol`` and ``seed``; no fail-fast.

    Returns the per-scenario results and the suite exit code (0 all pass,
    1 any failure).  A path that is not a directory, or holds no ``*.scn``,
    raises ``ScenarioError``.  A file that does not parse (a bad override
    fails every file), reuses an earlier file's name or whose output
    directory cannot be created fails without running.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ScenarioError(f"{directory} is not a directory")
    files = sorted(directory.glob("*.scn"))
    if not files:
        raise ScenarioError(f"no scenario files (*.scn) found in {directory}")
    results, first_file = [], {}
    for f in files:
        try:
            scn = parse_scenario(f, tol, seed)
            if scn.name in first_file:
                raise ScenarioError(f"{f}: scenario name {scn.name!r} is already used by {first_file[scn.name]}")
            first_file[scn.name] = f
            results.append(run_scenario(scn, out_root, no_plots))
        except ScenarioError as exc:
            results.append(ScenarioResult(f.stem, "?", False, -math.inf, 0.0, str(exc)))
    code = EXIT_PASS if all(r.passed for r in results) else EXIT_CHECK_FAILED
    return results, code
