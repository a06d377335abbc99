"""Evaluate stability estimates against recorded trajectories.

For the heat equation with Dirichlet boundary disturbances d0, d1 the
following explicit bounds hold for classical solutions and are checked here
at every recorded time (W(x) denotes the sine-weighted L^1 integral,
``aw2 = a pi^2`` the principal decay rate):

  weighted_l1 : W(x[t]) <= exp(-aw2 t) W(x0)
                + (1/pi) max|d0| + (1/pi) max|d1|
  l2          : ||x[t]||_2 <= sqrt(exp(-aw2 t) / (2 - exp(-aw2 t))) ||x0||_2
                + (1/sqrt(3)) max|d0| + (1/sqrt(3)) max|d1|
  weighted_sup: with phi = sqrt(sigma/a), sigma in (0, aw2),
                max_z w(z)|x[t,z]| <= max(exp(-sigma t) max_z w(z)|x0|,
                (sin(theta+phi)/sin(theta)) max|d0|, max|d1|)

where the running maxima are taken over the recorded boundary samples up to
time t.  Every check goes through ``evaluate_bound``, which evaluates
rhs = join(beta(||x0||, t), gain(drive)) (join a sum, or a max for the
weighted sup) and stores that very ``beta`` and ``gain`` on the report.
Checks use a relative tolerance in [0, 1) (default 2%) that absorbs the
O(h^2 + dt) discretization error of the solver and quadrature.

The module also certifies the L^p Lyapunov decay of the zero-input problem
(rate a (p-1) 4 pi^2 / p^2 on the norm, driven by the Wirtinger inequality
||f'||_2^2 >= pi^2 ||f||_2^2 for f vanishing at both ends) and fits the
constants of the generic exponential estimate from scenario batches; fitted
constants are empirical, never quoted values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .comparison import ExpLinearKL, LinearGain
from .errors import EstimationError, InapplicableEstimateError, InvalidParameterError
from .grid import Grid1D, Trajectory, write_csv
from .norms import sup_weight, weighted_sin_norms, weighted_sup_norms
from .solver import BoundarySignal, SemilinearProblem, simulate

DEFAULT_REL_TOL = 0.02


@dataclass(frozen=True)
class ISSReport:
    """Per-time evaluation of one estimate; ``beta`` and ``gain`` produced ``rhs``."""

    estimate_id: str
    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    margin: float
    margin_rel: float
    tol: float
    passed: bool
    beta: Callable
    gain: LinearGain


def _check_tolerance(tol: float) -> None:
    """Raise ``InvalidParameterError`` unless 0 <= tol < 1: a relative slack of 1 passes any nonnegative bound."""
    if not 0.0 <= tol < 1.0:
        raise InvalidParameterError(f"need a relative tolerance 0 <= tol < 1, got {tol}")


def evaluate_bound(estimate_id, times, lhs, beta, gain, drive, tol, join=np.add) -> ISSReport:
    """Check the norm history ``lhs`` against ``join(beta(lhs[0], times), gain(drive))``.

    ``drive`` is the running input sup the gain acts on.
    """
    _check_tolerance(tol)
    rhs = join(beta(lhs[0], times), gain(drive))
    diff = rhs - lhs
    scale = np.maximum(np.maximum(np.abs(rhs), np.abs(lhs)), 1e-30)
    margin_rel = float((diff / scale).min())
    return ISSReport(
        estimate_id=estimate_id,
        times=times,
        lhs=lhs,
        rhs=rhs,
        margin=float(diff.min()),
        margin_rel=margin_rel,
        tol=tol,
        passed=margin_rel >= -tol,
        beta=beta,
        gain=gain,
    )


def _heat_coefficient(traj: Trajectory, estimate_id: str) -> float:
    problem = traj.problem
    if not isinstance(problem, SemilinearProblem) or not problem.is_heat:
        raise InapplicableEstimateError(
            f"estimate {estimate_id!r} applies to heat-equation trajectories only"
        )
    return problem.a


def _running_sups(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    # Maxima over recorded boundary samples; linear interpolation between
    # samples cannot exceed the sample extremes.
    return (
        np.maximum.accumulate(np.abs(traj.boundary_left)),
        np.maximum.accumulate(np.abs(traj.boundary_right)),
    )


def check_weighted_l1(traj: Trajectory, tol: float = DEFAULT_REL_TOL, gain_override: Optional[float] = None) -> ISSReport:
    """Check the sine-weighted L^1 estimate at every recorded time.

    ``gain_override`` replaces the 1/pi disturbance gain and exists solely
    as a negative-control fixture for the test harness.
    """
    a = _heat_coefficient(traj, "weighted_l1")
    return evaluate_bound(
        "weighted_l1", traj.times, weighted_sin_norms(traj.data, traj.grid.h),
        ExpLinearKL(1.0, a * math.pi**2),
        LinearGain((1.0 / math.pi) if gain_override is None else float(gain_override)),
        sum(_running_sups(traj)), tol,
    )


def check_l2(traj: Trajectory, tol: float = DEFAULT_REL_TOL) -> ISSReport:
    """Check the L^2 estimate with its sharp transient factor."""
    a = _heat_coefficient(traj, "l2")

    def transient(r, t):
        decay = np.exp(-a * math.pi**2 * t)
        return np.sqrt(decay / (2.0 - decay)) * r

    return evaluate_bound(
        "l2", traj.times, traj.lp_norms(2.0), transient,
        LinearGain(1.0 / math.sqrt(3.0)), sum(_running_sups(traj)), tol,
    )


def weighted_sup_parameters(a: float, sigma: Optional[float] = None, theta: Optional[float] = None):
    """(sigma, theta, phi, weight at z = 0) of the weighted sup estimate, defaults applied, or raise.

    phi = sqrt(sigma / a); an omitted sigma is a pi^2 / 2, an omitted theta
    (pi - phi) / 2, and the weight must be defined (``norms.sup_weight``).
    """
    if sigma is None:
        sigma = 0.5 * a * math.pi**2
    if not (0.0 < sigma < a * math.pi**2):
        raise InvalidParameterError(f"need 0 < sigma < a pi^2, got sigma={sigma}")
    phi = math.sqrt(sigma / a)
    if theta is None:
        theta = 0.5 * (math.pi - phi)
    return sigma, theta, phi, float(sup_weight(np.array([0.0]), theta, phi)[0])


def check_weighted_sup(
    traj: Trajectory, sigma: Optional[float] = None, theta: Optional[float] = None, tol: float = DEFAULT_REL_TOL
) -> ISSReport:
    """Check the weighted sup estimate for a decay rate sigma in (0, a pi^2).

    The boundary gains are the weight sin(theta + phi)/sin(theta + z phi) at
    the two ends, so the unit gain acts on the weighted running sup of the inputs.
    """
    sigma, theta, phi, left_gain = weighted_sup_parameters(_heat_coefficient(traj, "weighted_sup"), sigma, theta)
    run0, run1 = _running_sups(traj)
    return evaluate_bound(
        "weighted_sup", traj.times, weighted_sup_norms(traj.data, traj.grid.nodes, theta, phi),
        ExpLinearKL(1.0, sigma), LinearGain(1.0), np.maximum(left_gain * run0, run1), tol,
        join=np.maximum,
    )


@dataclass(frozen=True)
class DecayReport:
    """L^p Lyapunov decay certificate for the zero-input heat equation."""

    norm_rate: float
    times: np.ndarray
    norm_lhs: np.ndarray
    norm_rhs: np.ndarray
    margin_v_rel: float
    margin_norm_rel: float
    passed: bool
    traj: Trajectory


def lyapunov_rates(a: float, p: float) -> tuple[float, float]:
    """The certified decay rates of V_p and of the L^p norm, for p in (2, inf) only."""
    if not (p > 2.0 and math.isfinite(p)):
        raise InvalidParameterError(f"the Lyapunov certificate needs p in (2, inf), got {p}")
    return a * (p - 1.0) * 4.0 * math.pi**2 / p, a * (p - 1.0) * 4.0 * math.pi**2 / p**2


def lyapunov_preconditions(is_heat: bool, *boundary: BoundarySignal) -> None:
    """Raise ``InapplicableEstimateError`` unless the certificate applies: the heat equation, these signals zero."""
    if not is_heat:
        raise InapplicableEstimateError("the Lyapunov certificate applies to the heat equation")
    if any(signal.sup_norm != 0.0 for signal in boundary):
        raise InapplicableEstimateError("the Lyapunov certificate needs zero boundary data")


def lyapunov_decay_certificate(problem: SemilinearProblem, grid: Grid1D, p: float, tol: float = DEFAULT_REL_TOL) -> DecayReport:
    """Certify d/dt V_p <= -a (p-1) (4 pi^2 / p) V_p and the norm envelope.

    V_p is the integral of |x|^p; the induced norm decay rate is
    a (p-1) 4 pi^2 / p^2 (equal to pi^2 in the limit p -> 2).  Applies to
    the zero-boundary heat problem with p in (2, inf) only.
    """
    v_rate, norm_rate = lyapunov_rates(problem.a, p)
    _check_tolerance(tol)
    lyapunov_preconditions(problem.is_heat, problem.boundary_left, problem.boundary_right)
    traj = simulate(problem, grid)
    norms = traj.lp_norms(p)
    v = norms**p
    dv = np.gradient(v, grid.dt)

    dv_rhs = -v_rate * (1.0 - tol) * v
    interior = slice(1, -1)
    dv_gap = dv_rhs[interior] - dv[interior]  # need dv <= dv_rhs
    dv_scale = np.maximum(np.abs(dv_rhs[interior]), 1e-30)
    margin_v = float((dv_gap / dv_scale).min())

    norm_rhs = np.exp(-norm_rate * traj.times) * norms[0] * (1.0 + tol)
    norm_gap = norm_rhs - norms
    norm_scale = np.maximum(np.maximum(norm_rhs, norms), 1e-30)
    margin_norm = float((norm_gap / norm_scale).min())

    return DecayReport(
        norm_rate=norm_rate,
        times=traj.times,
        norm_lhs=norms,
        norm_rhs=norm_rhs,
        margin_v_rel=margin_v,
        margin_norm_rel=margin_norm,
        passed=(margin_v >= 0.0) and (margin_norm >= 0.0),
        traj=traj,
    )


@dataclass(frozen=True)
class ExpIssConstants:
    """Empirically fitted constants of the exponential L^p estimate.

    The bound certified is
        ||x[t]||_p <= m exp(-sigma t) ||x0||_p + gamma (max|d0| + max|d1|).
    Constants are fits to the provided scenarios, with no tightness claim.
    """

    m: float
    sigma: float
    gamma: float
    p: float


def fit_decay_rate(times: np.ndarray, norms: np.ndarray, t_start: float = 0.0) -> float:
    """Minus the least-squares slope of log ||x[t]|| over t >= t_start.

    Samples below 1e-12 of the largest norm are unresolvable and dropped.
    """
    keep = (times >= t_start) & (norms > norms.max() * 1e-12)
    if keep.sum() < 3:
        raise EstimationError("trajectory too short or degenerate for a decay fit")
    return -float(np.polyfit(times[keep], np.log(norms[keep]), 1)[0])


def estimate_exp_iss_constants(scenarios: Sequence[Trajectory], p: float) -> ExpIssConstants:
    """Fit (m, sigma, gamma) so the exponential estimate holds on all inputs.

    Needs at least one zero-disturbance run with nonzero initial data (for
    m and sigma: sigma is the most conservative fitted log-norm slope, m the
    worst transient ratio) and one zero-initial disturbed run (for gamma:
    the worst ratio of response norm to accumulated disturbance).  A final
    sweep inflates gamma until the estimate holds with margin >= 0 on every
    provided scenario.
    """
    if not scenarios:
        raise EstimationError("no scenarios provided")
    histories = [traj.lp_norms(p) for traj in scenarios]
    zero_input, zero_state = [], []
    for traj, norms in zip(scenarios, histories):
        d_sup = max(np.abs(traj.boundary_left).max(), np.abs(traj.boundary_right).max())
        if d_sup < 1e-14 and norms[0] > 1e-14:
            zero_input.append((traj, norms))
        if norms[0] < 1e-14 and d_sup > 1e-14:
            zero_state.append(traj)
    if not zero_input:
        raise EstimationError("need a zero-disturbance scenario with nonzero initial data")
    if not zero_state:
        raise EstimationError("need a zero-initial scenario with nonzero disturbance")

    sigma = min(fit_decay_rate(traj.times, norms) for traj, norms in zero_input)
    if sigma <= 0.0:
        raise EstimationError(f"fitted decay rate is not positive: {sigma}")
    m = 1.0
    for traj, norms in zero_input:
        ratio = norms / (np.exp(-sigma * traj.times) * norms[0])
        m = max(m, float(ratio.max()))
    m *= 1.0 + 1e-12

    gamma = 0.0
    for traj, norms in zip(scenarios, histories):
        denom = sum(_running_sups(traj))
        excess = norms - m * np.exp(-sigma * traj.times) * norms[0]
        active = denom > 1e-14
        if np.any(active):
            gamma = max(gamma, float((excess[active] / denom[active]).max()))
    gamma = max(gamma, 1e-14) * (1.0 + 1e-12)
    return ExpIssConstants(m=m, sigma=sigma, gamma=gamma, p=p)


def check_fitted_lp(traj: Trajectory, constants: ExpIssConstants, tol: float = 1e-9) -> ISSReport:
    """Evaluate the fitted exponential L^p estimate on one trajectory."""
    return evaluate_bound(
        "lp_fitted", traj.times, traj.lp_norms(constants.p),
        ExpLinearKL(constants.m, constants.sigma), LinearGain(constants.gamma), sum(_running_sups(traj)), tol,
    )


def write_margin_csv(columns: tuple, path) -> None:
    """Export a per-time bound evaluation from its columns (times, lhs, rhs): t,lhs,rhs,margin (margin = rhs - lhs)."""
    times, lhs, rhs = columns
    write_csv(path, "t,lhs,rhs,margin", [(times, lhs, rhs, rhs - lhs)])


def write_report_csv(report: ISSReport, path) -> None:
    """Export the per-time estimate evaluation: t,lhs,rhs,margin."""
    write_margin_csv((report.times, report.lhs, report.rhs), path)


def write_summary_csv(report: ISSReport, path) -> None:
    """One-line summary: estimate_id,pass,min_margin."""
    write_csv(path, "estimate_id,pass,min_margin", [(report.estimate_id, str(report.passed).lower(), report.margin)])


def write_decay_csv(report: DecayReport, path) -> None:
    """Export the norm-envelope form of a decay certificate: t,lhs,rhs,margin."""
    write_margin_csv((report.times, report.norm_lhs, report.norm_rhs), path)
