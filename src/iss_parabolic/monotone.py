"""Order machinery: trajectory ordering, bracketing, constant-input reduction.

The solver's M-matrix structure makes it order preserving, so comparison
statements about the continuous problem become executable: two simulations
with ordered data must stay nodewise ordered at every time.  On top of that
oracle sits the bracketing construction, one step ``build_bracket``: it
replaces an arbitrary bounded boundary signal by the constant signals
+-level, level = sup + eps, deforms the initial state near the boundary with
a cutoff hat of the widest admissible dyadic width, and returns the triple
``(x_minus, x_plus, level)``.  The sandwich experiment checks that the
bracketed constant-input runs envelop the original trajectory.  That
sandwich is the executable content of "constant disturbances are the worst
case".  ``check_ordering`` is the one ordering oracle: it computes each
envelope gap once, and the sandwich both decides and reports from the
per-time gaps it returns.
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
class SandwichReport:
    """Three-run envelope experiment: the original trajectory and its
    per-time gaps to the lower and upper constant-input runs.
    """

    passed: bool
    traj: Trajectory
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


def build_bracket(x: Field, u_sup: float, epsilon: float) -> tuple[Field, Field, float]:
    """Constant-input envelope ``(x_minus, x_plus, level)`` of (x, u) with slack epsilon.

    With level = u_sup + epsilon, the envelope states are
        x_minus = (1 - k) x - level k,
        x_plus  = (1 - k) x + level k,
    where k is the piecewise-linear cutoff hat, 1 on the boundary and 0 at
    distance >= delta.  The width delta is the first of 1/4, 1/8, ... down to
    the mesh scale h/2 with |x| <= level wherever k > 0; if even the thinnest
    fails, the state exceeds the claimed input bound at the boundary itself.
    Then x_minus <= x <= x_plus nodewise, x_pm = +-level at the boundary
    nodes, and ||x_pm||_p <= ||x||_p + level for every p (unit measure).
    """
    if not (0.0 <= u_sup < math.inf and 0.0 < epsilon < math.inf):
        raise InvalidParameterError(f"need finite u_sup >= 0 and epsilon > 0, got u_sup={u_sup}, epsilon={epsilon}")
    level = u_sup + epsilon
    nodes = x.grid.nodes
    delta = 0.25
    while delta >= 0.5 * x.grid.h:
        k = np.maximum(0.0, 1.0 - nodes / delta) + np.maximum(0.0, 1.0 - (1.0 - nodes) / delta)
        if np.all(np.abs(x.values[k > 0.0]) <= level):
            base = (1.0 - k) * x.values
            return Field(base - level * k, x.grid), Field(base + level * k, x.grid), level
        delta *= 0.5
    raise BracketingError("no admissible cutoff width: the state exceeds the input bound near the boundary")


def constant_reduction_experiment(
    problem: SemilinearProblem,
    grid: Grid1D,
    epsilon: float,
    tol: float = DEFAULT_ORDERING_TOL,
) -> SandwichReport:
    """Sandwich the trajectory between two constant-input simulations.

    Builds the bracket of the initial state against the sup of both boundary
    signals, simulates (x_minus, -level), the original pair, and
    (x_plus, +level), and checks the two-sided nodewise ordering at every
    recorded time.
    """
    u_sup = max(problem.boundary_left.sup_norm, problem.boundary_right.sup_norm)
    x_minus, x_plus, level = build_bracket(problem.initial, u_sup, epsilon)
    low = problem.with_data(x_minus, BoundarySignal.constant(-level), BoundarySignal.constant(-level))
    high = problem.with_data(x_plus, BoundarySignal.constant(level), BoundarySignal.constant(level))
    traj_low = simulate(low, grid)
    traj = simulate(problem, grid)
    traj_high = simulate(high, grid)

    ordering_low = check_ordering(traj_low, traj, tol)
    ordering_high = check_ordering(traj, traj_high, tol)
    return SandwichReport(
        passed=ordering_low.passed and ordering_high.passed,
        traj=traj,
        min_gap_low=ordering_low.min_gap,
        min_gap_high=ordering_high.min_gap,
    )


def write_sandwich_csv(report: SandwichReport, path) -> None:
    """Export per-time envelope gaps: t,min_gap_low,min_gap_high."""
    write_csv(path, "t,min_gap_low,min_gap_high", [(report.traj.times, report.min_gap_low, report.min_gap_high)])
