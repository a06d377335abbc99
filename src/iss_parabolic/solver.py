"""IMEX finite-difference solver for 1-D semilinear parabolic problems.

The problem class is

    x_t = a x_zz + f(z, x, x_z)   on (0, 1),
    x(t, 0) = d0(t),  x(t, 1) = d1(t),   x(0, z) = x0(z),

stepped with backward-Euler diffusion (tridiagonal elimination) and an
explicit reaction term.  The implicit matrix I + (a dt / h^2) T is an
M-matrix, so each step is order preserving provided the explicit reaction
map w -> w + dt f(z, w, .) is monotone in w.  Order preservation is what
turns the comparison principle into an executable oracle downstream.

A ``Reaction`` owns what a reaction declares: its callable, the slope bound
``lipschitz_k`` and whether it reads x_z.  The stepper enforces
dt * lipschitz_k < 1 for that bound and nothing more: it does not check the
slope at the states a run reaches, nor a reaction that reads x_z, so an
accepted input can leave the monotone regime with no error raised
(ROADMAP item 1).  Only a reaction that declares ``uses_gradient`` (every
bare callable does) is handed the central difference x_z; the catalog's
reactions and the closed-loop plant declare that they do not read it and
are handed ``None``.

``simulate`` and the closed loop in ``backstepping`` both run the one
stepping loop ``_march`` on a grid and an operator: one factorization per
run.  The Dirichlet data come in as tables over the time levels; state
feedback at z = 0 comes in as a row whose dot product with the current
level is subtracted from the left table.  Each level is built by whole-row
ufuncs and solved in place in its history row by one LDL^T solve (LAPACK
``dpttrf`` once, ``dpttrs`` per step, from scipy's compiled ``_flapack``
through ``_lapack``); one finiteness test per step is exact, as inf or NaN
times any multiplier, even 0, is not finite.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from itertools import repeat
from typing import Callable, Optional, Union

import numpy as np

from ._lapack import dpttrf, dpttrs
from .errors import (
    IncompatibleDataError,
    InvalidParameterError,
    MonotonicityLossError,
    NumericalError,
)
from .grid import Field, Grid1D, Trajectory, _block_rows

# Vectorized reaction term f(z, w, w_z) evaluated at interior nodes; w_z is None for a reaction that does
# not use its gradient.
ReactionFunction = Callable[[np.ndarray, np.ndarray, Optional[np.ndarray]], np.ndarray]

COMPATIBILITY_TOL = 1e-9
# Rounding slack, as a fraction of the table's span, that a sampled signal
# allows beyond either end of its table.
TABLE_SLACK = 1e-9


@dataclass(frozen=True)
class BoundarySignal:
    """A scalar Dirichlet boundary signal on [0, t_final].

    ``constant`` signals evaluate to a fixed finite value; ``sampled``
    signals interpolate a finite table linearly and refuse an empty time
    array, NaN and times outside the table.
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
        if np.size(t) == 0:
            raise InvalidParameterError("signal evaluated at no time")
        slack = TABLE_SLACK * (ts[-1] - ts[0])
        if not (ts[0] - slack <= np.min(t) and np.max(t) <= ts[-1] + slack):  # NaN fails too
            raise InvalidParameterError(
                f"signal evaluated at t in [{np.min(t)}, {np.max(t)}], outside its table [{ts[0]}, {ts[-1]}]"
            )
        return np.interp(t, ts, self.sample_values)

    def shifted(self, tau: float) -> "BoundarySignal":
        """The signal s -> self(tau + s), for restarting a simulation."""
        if self.kind == "constant":
            return self
        return BoundarySignal.sampled(self.sample_times - tau, self.sample_values)


def check_slope_bound(lipschitz_k: float) -> None:
    """Raise ``InvalidParameterError`` unless the slope bound is nonnegative (NaN is refused)."""
    if not lipschitz_k >= 0.0:  # NaN fails too
        raise InvalidParameterError("lipschitz_k must be nonnegative")


@dataclass(frozen=True)
class Reaction:
    """A reaction term and the facts it declares, the one place they live.

    ``function(z, w, w_z)`` is evaluated at the interior nodes z on the
    interior state w; it must keep neither array.  ``lipschitz_k`` bounds
    its slope in the state from above over the working range; the solver
    steps only if ``check_step_restriction`` accepts it.  ``uses_gradient``
    says whether the function reads w_z: if so it gets the central
    difference, else ``None``.  Calling a ``Reaction`` calls its function.
    """

    function: ReactionFunction
    lipschitz_k: float
    uses_gradient: bool = True

    def __post_init__(self) -> None:
        check_slope_bound(self.lipschitz_k)

    def __call__(self, z: np.ndarray, w: np.ndarray, w_z: Optional[np.ndarray]) -> np.ndarray:
        return self.function(z, w, w_z)


def linear_reaction(c: float) -> Reaction:
    """The reaction c w with slope bound |c|; it reads no gradient.  c is held as a 0-d float64 array, so no
    call converts a Python float (the same double, so the same bits for float64 states)."""
    c_array = np.array(float(c))
    return Reaction(lambda z, w, grad: c_array * w, abs(c), uses_gradient=False)


@dataclass(frozen=True)
class SemilinearProblem:
    """Diffusion coefficient, reaction term, and initial/boundary data.

    ``reaction is None`` means the pure heat equation.  A bare callable
    ``reaction`` with the init-only slope bound ``lipschitz_k`` is stored as
    ``Reaction(reaction, lipschitz_k)``, which may read its gradient; after
    construction the bound is ``reaction.lipschitz_k`` and the problem has
    no ``lipschitz_k`` attribute, so ``dataclasses.replace`` does not apply
    (``with_data`` does).  A nonzero ``lipschitz_k`` without a reaction, or
    beside a ``Reaction`` (which holds its own), is refused.
    """

    a: float
    initial: Field
    boundary_left: BoundarySignal
    boundary_right: BoundarySignal
    reaction: Union[Reaction, ReactionFunction, None] = None
    lipschitz_k: InitVar[float] = 0.0

    def __post_init__(self, lipschitz_k: float) -> None:
        check_diffusion(self.a)
        if self.reaction is not None and not isinstance(self.reaction, Reaction):
            object.__setattr__(self, "reaction", Reaction(self.reaction, lipschitz_k))
        elif lipschitz_k != 0.0:  # NaN too
            check_slope_bound(lipschitz_k)  # a negative or NaN bound is refused as such
            owner = "no reaction" if self.reaction is None else "a Reaction, which holds its own bound"
            raise InvalidParameterError(f"lipschitz_k={lipschitz_k} given with {owner}")
        for side, sig in (("left", self.boundary_left), ("right", self.boundary_right)):
            node = self.initial.values[0 if side == "left" else -1]
            if abs(node - sig(0.0)) > COMPATIBILITY_TOL:
                raise IncompatibleDataError(f"initial state and {side} boundary signal disagree at t=0: "
                                            f"{node} vs {sig(0.0)}")

    @property
    def is_heat(self) -> bool:
        return self.reaction is None

    def with_data(self, initial: Field, left: BoundarySignal, right: BoundarySignal) -> "SemilinearProblem":
        """Same operator, different admissible pair."""
        return SemilinearProblem(self.a, initial, left, right, self.reaction)


# The dataclass leaves the init-only default 0.0 on the class, where reading problem.lipschitz_k would find
# it whatever the bound; without it the read raises AttributeError (the bound is reaction.lipschitz_k).
del SemilinearProblem.lipschitz_k


def check_diffusion(a: float) -> None:
    """Raise ``InvalidParameterError`` unless the diffusion coefficient a is finite and > 0."""
    if not 0.0 < a < math.inf:  # NaN fails too
        raise InvalidParameterError(f"diffusion coefficient must be positive and finite, got {a}")


def check_step_restriction(dt: float, lipschitz_k: float) -> None:
    """Raise ``MonotonicityLossError`` unless dt * lipschitz_k < 1, which keeps the reaction update order
    preserving wherever the reaction's slope in the state lies within lipschitz_k; that slope is not checked."""
    if not dt * lipschitz_k < 1.0:  # NaN fails too
        raise MonotonicityLossError(f"time step dt={dt} violates dt * lipschitz_k < 1 (k={lipschitz_k}); "
                                    "refusing to step because order preservation would be lost")


def _march(
    grid: Grid1D,
    a: float,
    reaction: Optional[Reaction],
    x0: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    left_row: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Take grid.n_steps IMEX steps of x_t = a x_zz + reaction from x0 and
    return every level, row m = level m.

    Refuses to step unless ``check_step_restriction`` accepts dt and the
    reaction's ``lipschitz_k`` (0 for heat).  Each step applies the explicit
    reaction, then solves the implicit diffusion with
    I + r tridiag(-1, 2, -1), r = a dt / h^2, factored once as LDL^T (LAPACK
    dpttrf) and reused for every step (dpttrs).

    ``left`` and ``right`` are the Dirichlet tables over ``grid.times()``:
    level m + 1 takes ``left[m + 1]`` and ``right[m + 1]``, written into the
    history's end columns before the first step.  The one feedback row is
    at z = 0: with ``left_row`` the left value of level m + 1 is
    ``left[m + 1] - float(left_row.dot(x))``, x the whole level m, computed
    as step m begins and written into the history then, never before
    (on these contiguous float64 rows ``dot`` and ``@`` make the same BLAS
    ``ddot`` call; ``dot`` is bound once and skips ``matmul``'s dispatch).

    The reaction's function gets the interior nodes, the interior of level m
    (a view of the history) and, if it declares ``uses_gradient``, its
    gradient, the central difference with the known Dirichlet neighbor next
    to the boundary, in a buffer reused every step; it must keep neither.  A
    reaction that does not declare it gets ``None`` and no gradient is
    formed.  Its result is scaled into a buffer of its own, never in place.
    Level m + 1 is built and solved in place in its history row.  A heat
    step is one add of x and an edge vector that holds r left and r right at
    its ends and -0.0 elsewhere; x + (-0.0) is x for every double (signed
    zeros, infinities and NaN included), so this is bit for bit the scheme
    that adds r left and r right to the two end entries alone.  A reaction
    step is x + dt f, then exactly that: r left and r right added to its two
    end entries as Python floats, the same IEEE additions.  Testing only the
    first interior value of the solution is exact: each sweep of dpttrs
    forms b_i - e b_(i-+1), e = -r / d_i, d_i >= 1, and inf or NaN times any
    e, 0 included, is not finite, so a NaN or inf anywhere in the solve or
    the boundary values reaches that value.

    The loop does only the step's arithmetic; only a feedback step indexes
    the history, and no step slices it.  It zips four per-level tables
    built once: the interior views of the history, the same views one level
    ahead (each step's right-hand side and solution) and r left and r right
    as Python floats; with ``left_row`` there is no r left table: r left is
    r times the fed-back value, formed in the step.  For a reaction that
    uses its gradient it also zips two row iterators over ``data[:-1, 2:]``
    and ``data[:-1, :-2]``, each level's right and left neighbours of the
    interior nodes, the operands of the gradient; they make one row view a
    step and are never listed.  dt and 2h are 0-d arrays, so no ufunc call
    turns a Python float into an array: the same double, so the same bits
    for a reaction that returns doubles (a float32 result is scaled by dt
    in double precision).  The ufuncs, the reaction's function, ``dpttrs``
    and ``math.isfinite`` are bound to locals once per march, every call
    takes its arguments and outputs by position (f2py and the ufuncs parse
    keywords on every call), and the finiteness test reads ``rhs.item(0)``,
    a Python float.
    """
    dt, n_steps = grid.dt, grid.n_steps
    check_step_restriction(dt, 0.0 if reaction is None else reaction.lipschitz_k)
    h = grid.h
    n = grid.n_interior
    r = a * dt / h**2
    # Symmetric and strictly diagonally dominant: LDL^T cannot break down.
    d, e, _ = dpttrf(np.full(n, 1.0 + 2.0 * r), np.full(n - 1, -r))
    nodes = grid.nodes[1:-1]
    data = np.empty((n_steps + 1, grid.n_nodes))
    data[0] = x0
    data[1:, -1] = right[1:]
    r_right = (r * data[1:, -1]).tolist()
    if left_row is None:
        data[1:, 0] = left[1:]
        r_left, left_table = (r * data[1:, 0]).tolist(), None
    else:  # each left value, and r times it, is formed in its step
        r_left, left_table = repeat(None), left.tolist()
    inner = list(data[:, 1:-1])
    f = None if reaction is None else reaction.function
    if f is None or not reaction.uses_gradient:
        ahead = behind = repeat(None)
        x_z = None
    else:  # iterated, never listed: a list of views costs memory
        ahead, behind = iter(data[:-1, 2:]), iter(data[:-1, :-2])
        x_z = np.empty(n)
    edge = np.full(n, -0.0)
    f_dt = np.empty(n)
    dt, two_h = np.array(dt), np.array(2.0 * h)  # 0-d: a ufunc converts a Python float on every call
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    solve, isfinite = dpttrs, math.isfinite
    feedback = None if left_row is None else left_row.dot
    steps = zip(range(n_steps), inner, inner[1:], r_left, r_right, ahead, behind)
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness test below owns this verdict
        for m, level, rhs, r_lo, r_hi, x_ahead, x_behind in steps:
            if left_table is not None:
                value = left_table[m + 1] - float(feedback(data[m]))
                data[m + 1, 0] = value
                r_lo = r * value
            if f is None:
                edge[0] = r_lo
                edge[-1] = r_hi
                add(level, edge, rhs)
            else:
                if x_ahead is not None:
                    subtract(x_ahead, x_behind, x_z)
                    divide(x_z, two_h, x_z)
                multiply(f(nodes, level, x_z), dt, f_dt)
                add(level, f_dt, rhs)
                rhs[0] = rhs.item(0) + r_lo
                rhs[-1] = rhs.item(-1) + r_hi
            out, info = solve(d, e, rhs, 1)  # 1: overwrite_b
            if out is not rhs:
                rhs[:] = out
            if info != 0 or not isfinite(rhs.item(0)):
                raise NumericalError(f"step {m + 1} of {n_steps} produced non-finite values")
    data.setflags(write=False)
    return data


def simulate(problem: SemilinearProblem, grid: Grid1D) -> Trajectory:
    """Run the IMEX scheme over the grid horizon and record every state."""
    if problem.initial.grid != grid:
        raise InvalidParameterError("problem initial data lives on a different grid")
    times = grid.times()
    data = _march(
        grid, problem.a, problem.reaction, problem.initial.values,
        problem.boundary_left(times), problem.boundary_right(times),
    )
    return Trajectory(grid=grid, times=times, data=data, problem=problem)


def pde_residual_sup(data: np.ndarray, dt: float, h: float, a: float) -> float:
    """max |x_t - a x_zz| over interior nodes and interior times of ``data``.

    Central differences in both variables on the given steps dt and h, so a
    caller passes the grid's own ``grid.dt`` and ``grid.h``.  The residual is
    formed a block of time levels at a time in buffers of about
    ``grid.BLOCK_BYTES``; each entry gets the roundings of the whole-array
    formula and a max is exact in any order, so the result is, bit for bit,
    the whole-array formula's.  A history of fewer than three time levels or
    three nodes has no central difference and raises ``InvalidParameterError``.
    """
    if data.shape[0] < 3 or data.shape[1] < 3:
        raise InvalidParameterError(f"the heat residual needs at least three time levels and three nodes for its "
                                    f"central differences; the history is {data.shape[0]} x {data.shape[1]}")
    n = data.shape[0] - 2
    rows = _block_rows(data[0].nbytes, n)
    x_t, x_zz = np.empty((2, rows, data.shape[1] - 2))
    peaks = []
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        mid = data[r0 + 1 : r1 + 1]
        t, zz = x_t[: r1 - r0], x_zz[: r1 - r0]
        np.subtract(data[r0 + 2 : r1 + 2, 1:-1], data[r0:r1, 1:-1], out=t)
        t /= 2.0 * dt
        np.multiply(mid[:, 1:-1], 2.0, out=zz)
        np.subtract(mid[:, :-2], zz, out=zz)
        zz += mid[:, 2:]
        zz /= h**2
        zz *= a
        t -= zz
        peaks.append(np.abs(t, out=t).max())
    return float(np.max(peaks))


def write_trajectory(traj: Trajectory, path) -> None:
    """Save the state history at exactly ``path`` (no suffix is added) as
    one ``.npy`` array: ``traj.data``, float64 in C order, a row per time of
    ``traj.times`` and a column per node of ``traj.grid.nodes``.
    ``np.load(path)`` returns it bit for bit.
    """
    with open(path, "wb") as fh:
        np.save(fh, np.ascontiguousarray(traj.data))


write_trajectory_csv = write_trajectory  # the name perfbench/tracing.py wraps
