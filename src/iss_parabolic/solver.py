"""IMEX finite-difference solver for 1-D semilinear parabolic problems.

The problem class is

    x_t = a x_zz + f(z, x, x_z)   on (0, 1),
    x(t, 0) = d0(t),  x(t, 1) = d1(t),   x(0, z) = x0(z),

stepped with backward-Euler diffusion (tridiagonal elimination) and an
explicit reaction term.  The implicit matrix I + (a dt / h^2) T is an
M-matrix, so each step is order preserving provided the explicit reaction
map w -> w + dt f(z, w, .) is monotone in w; the stepper's restriction
dt * lipschitz_k < 1 guards that.  Order preservation is what turns the
comparison principle into an executable oracle downstream.

``simulate`` and the closed loop in ``backstepping`` both run the one
stepping loop ``_march`` on a grid and an operator: one factorization per
run; state feedback enters through the boundary callback.  Each level is
built and solved in place in its history row, and one scalar finiteness
test per step is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import (
    IncompatibleDataError,
    InvalidParameterError,
    MonotonicityLossError,
    NumericalError,
)
from .grid import Field, Grid1D, Trajectory, format_floats, write_csv

# Vectorized reaction term f(z, w, w_z) evaluated at interior nodes.
Reaction = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

COMPATIBILITY_TOL = 1e-9
# Rounding slack, as a fraction of the table's span, that a sampled signal
# allows beyond either end of its table.
TABLE_SLACK = 1e-9


@dataclass(frozen=True)
class BoundarySignal:
    """A scalar Dirichlet boundary signal on [0, t_final].

    ``constant`` signals evaluate to a fixed finite value; ``sampled``
    signals interpolate a finite table linearly and refuse times outside it.
    """

    kind: str
    value: float = 0.0
    sample_times: Optional[np.ndarray] = None
    sample_values: Optional[np.ndarray] = None
    sup_norm: float = field(init=False)

    def __post_init__(self) -> None:
        if self.kind == "constant":
            if not math.isfinite(self.value):
                raise InvalidParameterError(f"constant signal must be finite, got {self.value}")
            object.__setattr__(self, "sup_norm", abs(float(self.value)))
        elif self.kind == "sampled":
            ts = np.array(self.sample_times, dtype=float, copy=True)
            vs = np.array(self.sample_values, dtype=float, copy=True)
            if ts.ndim != 1 or ts.shape != vs.shape or ts.shape[0] < 2:
                raise InvalidParameterError("sampled signal needs matching time/value tables")
            if np.any(np.diff(ts) <= 0.0):
                raise InvalidParameterError("sample times must increase strictly")
            if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(vs))):
                raise InvalidParameterError("sampled signal contains non-finite entries")
            ts.setflags(write=False)
            vs.setflags(write=False)
            object.__setattr__(self, "sample_times", ts)
            object.__setattr__(self, "sample_values", vs)
            object.__setattr__(self, "sup_norm", float(np.max(np.abs(vs))))
        else:
            raise InvalidParameterError(f"unknown boundary signal kind {self.kind!r}")

    @classmethod
    def constant(cls, value: float) -> "BoundarySignal":
        return cls(kind="constant", value=float(value))

    @classmethod
    def zero(cls) -> "BoundarySignal":
        return cls.constant(0.0)

    @classmethod
    def sampled(cls, times: np.ndarray, values: np.ndarray) -> "BoundarySignal":
        return cls(kind="sampled", sample_times=times, sample_values=values)

    def __call__(self, t) -> float:
        if self.kind == "constant":
            return self.value if np.ndim(t) == 0 else np.full(np.shape(t), self.value)
        ts = self.sample_times
        slack = TABLE_SLACK * (ts[-1] - ts[0])
        if np.min(t) < ts[0] - slack or np.max(t) > ts[-1] + slack:
            raise InvalidParameterError(
                f"signal evaluated at t in [{np.min(t)}, {np.max(t)}], outside its table [{ts[0]}, {ts[-1]}]"
            )
        return np.interp(t, ts, self.sample_values)

    def shifted(self, tau: float) -> "BoundarySignal":
        """The signal s -> self(tau + s), for restarting a simulation."""
        if self.kind == "constant":
            return self
        return BoundarySignal.sampled(self.sample_times - tau, self.sample_values)


@dataclass(frozen=True)
class SemilinearProblem:
    """Diffusion coefficient, reaction term, and initial/boundary data.

    ``reaction is None`` means the pure heat equation.  ``lipschitz_k``
    bounds the reaction's slope in the state over the working range; the
    solver steps only if ``check_step_restriction`` accepts it.
    """

    a: float
    initial: Field
    boundary_left: BoundarySignal
    boundary_right: BoundarySignal
    reaction: Optional[Reaction] = None
    lipschitz_k: float = 0.0

    def __post_init__(self) -> None:
        if not self.a > 0.0:
            raise InvalidParameterError(f"diffusion coefficient must be positive, got {self.a}")
        if self.lipschitz_k < 0.0:
            raise InvalidParameterError("lipschitz_k must be nonnegative")
        for side, sig in (("left", self.boundary_left), ("right", self.boundary_right)):
            node = self.initial.values[0 if side == "left" else -1]
            if abs(node - sig(0.0)) > COMPATIBILITY_TOL:
                raise IncompatibleDataError(
                    f"initial state and {side} boundary signal disagree at t=0: "
                    f"{node} vs {sig(0.0)}"
                )

    @property
    def is_heat(self) -> bool:
        return self.reaction is None

    def with_data(self, initial: Field, left: BoundarySignal, right: BoundarySignal) -> "SemilinearProblem":
        """Same operator, different admissible pair."""
        return replace(self, initial=initial, boundary_left=left, boundary_right=right)


def check_step_restriction(dt: float, lipschitz_k: float) -> None:
    """Raise ``MonotonicityLossError`` unless dt * lipschitz_k < 1, which keeps the reaction update order preserving."""
    if dt * lipschitz_k >= 1.0:
        raise MonotonicityLossError(f"time step dt={dt} violates dt * lipschitz_k < 1 (k={lipschitz_k}); "
                                    "refusing to step because order preservation would be lost")


def _march(
    grid: Grid1D,
    a: float,
    reaction: Optional[Reaction],
    lipschitz_k: float,
    x0: np.ndarray,
    boundary: Callable[[int, np.ndarray], tuple[float, float]],
) -> np.ndarray:
    """Take grid.n_steps IMEX steps of x_t = a x_zz + reaction from x0 and
    return every level, row m = level m.

    Refuses to step unless ``check_step_restriction`` accepts dt and
    lipschitz_k.  Each step applies the explicit reaction, then solves the
    implicit diffusion with I + r tridiag(-1, 2, -1), r = a dt / h^2,
    factored once (LAPACK dgttrf) and reused for every step (dgttrs).
    ``boundary(m, x)`` returns the Dirichlet values (left, right) of level
    m + 1 given the state x at level m.  The reaction gradient is the
    central difference; at nodes next to the boundary it uses the known
    Dirichlet neighbor.  Level m + 1 is built and solved in place in its
    history row; testing only its first interior value is exact, because
    back substitution multiplies each unknown into the one above it by
    du = -r != 0, so a NaN or inf anywhere in the solve or the boundary
    values reaches that value.
    """
    dt, n_steps = grid.dt, grid.n_steps
    check_step_restriction(dt, lipschitz_k)
    h = grid.h
    n = grid.n_interior
    r = a * dt / h**2
    off = np.full(n - 1, -r)
    # Strictly diagonally dominant, so the factorization cannot break down.
    dl, d, du, du2, ipiv, _ = dgttrf(off, np.full(n, 1.0 + 2.0 * r), off)
    nodes = grid.nodes[1:-1]
    data = np.empty((n_steps + 1, grid.n_nodes))
    data[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness test below owns this verdict
        for m in range(n_steps):
            x = data[m]
            left, right = boundary(m, x)
            rhs = data[m + 1, 1:-1]
            rhs[:] = x[1:-1]
            if reaction is not None:
                rhs += dt * reaction(nodes, x[1:-1], (x[2:] - x[:-2]) / (2.0 * h))
            rhs[0] += r * left
            rhs[-1] += r * right
            out, info = dgttrs(dl, d, du, du2, ipiv, rhs, overwrite_b=1)
            if out is not rhs:
                rhs[:] = out
            if info != 0 or not math.isfinite(rhs[0]):
                raise NumericalError(f"step {m + 1} of {n_steps} produced non-finite values")
            data[m + 1, 0] = left
            data[m + 1, -1] = right
    data.setflags(write=False)
    return data


def simulate(problem: SemilinearProblem, grid: Grid1D) -> Trajectory:
    """Run the IMEX scheme over the grid horizon and record every state."""
    if problem.initial.grid != grid:
        raise InvalidParameterError("problem initial data lives on a different grid")
    times = grid.times()
    left = problem.boundary_left(times)
    right = problem.boundary_right(times)
    data = _march(
        grid, problem.a, problem.reaction, problem.lipschitz_k, problem.initial.values,
        lambda m, x: (left[m + 1], right[m + 1]),
    )
    return Trajectory(grid=grid, times=times, data=data, problem=problem)


def pde_residual_field(data: np.ndarray, times: np.ndarray, nodes: np.ndarray, a: float) -> np.ndarray:
    """|x_t - a x_zz| at interior nodes and interior times.

    Central differences in both variables; rows index the interior time
    levels times[1:-1].
    """
    dt = times[1] - times[0]
    h = nodes[1] - nodes[0]
    x_t = (data[2:] - data[:-2]) / (2.0 * dt)
    x_zz = (data[1:-1, :-2] - 2.0 * data[1:-1, 1:-1] + data[1:-1, 2:]) / h**2
    return np.abs(x_t[:, 1:-1] - a * x_zz)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Export as CSV with header t,z,value, row-major by time."""
    cells = [f",{z},%.17g\n" for z in format_floats(traj.grid.nodes)]
    levels = zip(format_floats(traj.times), traj.data)
    write_csv(path, "t,z,value", ((t + t.join(cells), row) for t, row in levels))
