"""Order machinery: trajectory ordering, bracketing, constant-input reduction.

The solver's M-matrix structure makes it order preserving, so comparison
statements about the continuous problem become executable: two simulations
with ordered data must stay nodewise ordered at every time.  On top of that
oracle sits the bracketing construction -- replace an arbitrary bounded
boundary signal by the constant signals +-(sup + eps) and deform the initial
state near the boundary with a cutoff hat so the new data are admissible --
and the sandwich experiment checking that the bracketed constant-input runs
envelop the original trajectory.  That sandwich is the executable content of
"constant disturbances are the worst case".  ``check_ordering`` is the one
ordering oracle: it computes each envelope gap once, and the sandwich both
decides and reports from the per-time gaps it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketingError, IncompatibleTrajectoryError, InvalidParameterError
from .grid import Field, Grid1D, Trajectory, write_csv
from .solver import BoundarySignal, SemilinearProblem, simulate

DEFAULT_ORDERING_TOL = 1e-10


@dataclass(frozen=True)
class OrderingReport:
    """Outcome of a nodewise trajectory-ordering check.

    ``min_gap[k]`` is the smallest nodewise gap high - low at time k.
    """

    passed: bool
    worst_violation: float
    worst_time: float
    worst_node: float
    min_gap: np.ndarray


@dataclass(frozen=True)
class Bracket:
    """Constant-input envelope of an admissible pair.

    ``x_minus <= x <= x_plus`` nodewise, the envelope states agree with the
    constant signals ``u_minus = -(u_sup + epsilon)`` and
    ``u_plus = +(u_sup + epsilon)`` at the boundary nodes, and both satisfy
    ||x_pm||_p <= ||x||_p + (u_sup + epsilon) for every p (unit measure).
    """

    x_minus: Field
    x_plus: Field
    u_minus: float
    u_plus: float


@dataclass(frozen=True)
class SandwichReport:
    """Three-run envelope experiment: the original trajectory and its
    per-time gaps to the lower and upper constant-input runs.
    """

    passed: bool
    traj: Trajectory
    times: np.ndarray
    min_gap_low: np.ndarray
    min_gap_high: np.ndarray


def check_ordering(traj_low: Trajectory, traj_high: Trajectory, tol: float = DEFAULT_ORDERING_TOL) -> OrderingReport:
    """Report whether traj_high - traj_low >= -tol nodewise at all times."""
    if traj_low.grid != traj_high.grid or not np.array_equal(traj_low.times, traj_high.times):
        raise IncompatibleTrajectoryError("trajectories do not share grid and time points")
    if not tol >= 0.0:
        raise InvalidParameterError(f"ordering tolerance must be nonnegative, got {tol}")
    gap = traj_high.data - traj_low.data  # negative entries are violations
    k, i = np.unravel_index(int(gap.argmin()), gap.shape)
    worst = -float(gap[k, i])
    return OrderingReport(
        passed=worst <= tol,
        worst_violation=max(0.0, worst),
        worst_time=float(traj_low.times[k]),
        worst_node=float(traj_low.grid.nodes[i]),
        min_gap=gap.min(axis=1),
    )


def cutoff_hat(nodes: np.ndarray, delta: float) -> np.ndarray:
    """Piecewise-linear cutoff: 1 on the boundary, 0 at distance >= delta."""
    if not (0.0 < delta <= 0.5):
        raise InvalidParameterError(f"cutoff width must lie in (0, 1/2], got {delta}")
    return np.maximum(0.0, 1.0 - nodes / delta) + np.maximum(0.0, 1.0 - (1.0 - nodes) / delta)


def _bracket_level(u_sup: float, epsilon: float) -> float:
    """The envelope's input level u_sup + epsilon, for finite u_sup >= 0 and epsilon > 0."""
    if not (0.0 <= u_sup < math.inf and 0.0 < epsilon < math.inf):
        raise InvalidParameterError(f"need finite u_sup >= 0 and epsilon > 0, got u_sup={u_sup}, epsilon={epsilon}")
    return u_sup + epsilon


def _layer_feasible(x: Field, level: float, delta: float) -> bool:
    active = cutoff_hat(x.grid.nodes, delta) > 0.0
    return bool(np.all(np.abs(x.values[active]) <= level))


def find_cutoff_delta(x: Field, u_sup: float, epsilon: float) -> float:
    """Largest dyadic layer width in (0, 1/4] admitting the bracket.

    The bracket needs |x(z)| <= u_sup + epsilon wherever the cutoff is
    active.  Scans delta = 1/4, 1/8, ... down to the mesh scale and fails if
    even the thinnest layer is infeasible, which means the state exceeds the
    claimed input bound at the boundary itself.
    """
    level = _bracket_level(u_sup, epsilon)
    delta = 0.25
    while delta >= 0.5 * x.grid.h:
        if _layer_feasible(x, level, delta):
            return delta
        delta *= 0.5
    raise BracketingError(
        "no admissible cutoff width: the state exceeds the input bound near the boundary"
    )


def build_bracket(x: Field, u_sup: float, epsilon: float, delta: float) -> Bracket:
    """Build the constant-input envelope of (x, u) with slack epsilon.

    The envelope states are
        x_minus = (1 - k) x - (u_sup + epsilon) k,
        x_plus  = (1 - k) x + (u_sup + epsilon) k,
    with k the piecewise-linear cutoff hat of width ``delta``.
    """
    level = _bracket_level(u_sup, epsilon)
    if not _layer_feasible(x, level, delta):
        raise BracketingError(
            f"cutoff width {delta} is infeasible: |x| exceeds u_sup + epsilon inside the layer"
        )
    k = cutoff_hat(x.grid.nodes, delta)
    base = (1.0 - k) * x.values
    return Bracket(
        x_minus=Field(base - level * k, x.grid),
        x_plus=Field(base + level * k, x.grid),
        u_minus=-level,
        u_plus=level,
    )


def constant_reduction_experiment(
    problem: SemilinearProblem,
    grid: Grid1D,
    epsilon: float,
    tol: float = DEFAULT_ORDERING_TOL,
) -> SandwichReport:
    """Sandwich the trajectory between two constant-input simulations.

    Builds the bracket of the initial state against the sup of both boundary
    signals, simulates (x_minus, u_minus), the original pair, and
    (x_plus, u_plus), and checks the two-sided nodewise ordering at every
    recorded time.
    """
    u_sup = max(problem.boundary_left.sup_norm, problem.boundary_right.sup_norm)
    bracket = build_bracket(problem.initial, u_sup, epsilon, find_cutoff_delta(problem.initial, u_sup, epsilon))

    low = problem.with_data(
        bracket.x_minus, BoundarySignal.constant(bracket.u_minus), BoundarySignal.constant(bracket.u_minus)
    )
    high = problem.with_data(
        bracket.x_plus, BoundarySignal.constant(bracket.u_plus), BoundarySignal.constant(bracket.u_plus)
    )
    traj_low = simulate(low, grid)
    traj = simulate(problem, grid)
    traj_high = simulate(high, grid)

    ordering_low = check_ordering(traj_low, traj, tol)
    ordering_high = check_ordering(traj, traj_high, tol)
    return SandwichReport(
        passed=ordering_low.passed and ordering_high.passed,
        traj=traj,
        times=traj.times,
        min_gap_low=ordering_low.min_gap,
        min_gap_high=ordering_high.min_gap,
    )


def write_sandwich_csv(report: SandwichReport, path) -> None:
    """Export per-time envelope gaps: t,min_gap_low,min_gap_high."""
    write_csv(path, "t,min_gap_low,min_gap_high", [(report.times, report.min_gap_low, report.min_gap_high)])
