"""Uniform 1-D grids, grid functions, trajectories, and the one CSV writer.

The spatial domain is always [0, 1], discretized with ``n_interior`` interior
nodes plus both boundary nodes, so fields have ``n_interior + 2`` samples and
the mesh width is ``h = 1 / (n_interior + 1)`` exactly.  All types here are
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidFieldError, InvalidParameterError


@dataclass(frozen=True)
class Grid1D:
    """Uniform discretization of the unit interval with a fixed time step.

    Parameters
    ----------
    n_interior : int
        Number of interior nodes; at least 3.
    dt : float
        Time step, strictly positive.
    t_final : float
        Simulation horizon; a whole number of steps, at least one.
    """

    n_interior: int
    dt: float
    t_final: float

    def __post_init__(self) -> None:
        if self.n_interior < 3:
            raise InvalidParameterError(f"n_interior must be >= 3, got {self.n_interior}")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise InvalidParameterError(f"dt must be positive, got {self.dt}")
        if not (self.t_final >= self.dt and math.isfinite(self.t_final)):
            raise InvalidParameterError(
                f"t_final must be >= dt, got t_final={self.t_final}, dt={self.dt}"
            )
        steps = self.t_final / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise InvalidParameterError(
                f"t_final must be a whole number of steps, got t_final/dt={steps!r}"
            )

    @property
    def h(self) -> float:
        """Mesh width, exactly 1/(n_interior + 1) in working precision."""
        return 1.0 / (self.n_interior + 1)

    @property
    def n_nodes(self) -> int:
        """Total node count including both boundary nodes."""
        return self.n_interior + 2

    @property
    def n_steps(self) -> int:
        """Number of time steps from 0 to t_final."""
        return round(self.t_final / self.dt)

    @cached_property
    def nodes(self) -> np.ndarray:
        """All node coordinates 0 = z_0 < z_1 < ... < z_{n+1} = 1."""
        z = np.linspace(0.0, 1.0, self.n_nodes)
        z.setflags(write=False)
        return z

    def times(self) -> np.ndarray:
        """Recorded time levels 0, dt, 2 dt, ..., n_steps * dt."""
        return np.arange(self.n_steps + 1) * self.dt


def _frozen(values) -> np.ndarray:
    """``values`` as a read-only float array, copied only if it could still change:
    kept as is when neither it nor any array it views is writeable.
    """
    arr = np.asarray(values, dtype=float)
    owner = arr
    while isinstance(owner, np.ndarray) and not owner.flags.writeable:
        owner = owner.base
    if owner is not None:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Field:
    """A grid function: one sample per node, boundary nodes included."""

    values: np.ndarray
    grid: Grid1D

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)  # always a copy: never a view of a history
        if vals.ndim != 1 or vals.shape[0] != self.grid.n_nodes:
            raise InvalidFieldError(
                f"field length {vals.shape} does not match grid with "
                f"{self.grid.n_nodes} nodes"
            )
        if not np.all(np.isfinite(vals)):
            raise InvalidFieldError("field contains non-finite entries")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, grid: Grid1D) -> "Field":
        return cls(np.zeros(grid.n_nodes), grid)

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed states of one simulation plus the applied boundary data.

    ``data[k]`` is the state at ``times[k]``; columns 0 and -1 hold the
    Dirichlet boundary values actually applied, read back through
    ``boundary_left`` / ``boundary_right``.  ``problem`` optionally records
    the problem that produced the trajectory so stability checks can recover
    the diffusion coefficient and reaction term.
    """

    grid: Grid1D
    times: np.ndarray
    data: np.ndarray
    problem: object = field(default=None, repr=False)

    def __post_init__(self) -> None:
        times = _frozen(self.times)
        data = _frozen(self.data)
        if data.ndim != 2 or data.shape != (times.shape[0], self.grid.n_nodes):
            raise InvalidFieldError(
                f"trajectory data shape {data.shape} does not match "
                f"{times.shape[0]} times x {self.grid.n_nodes} nodes"
            )
        if times[0] != 0.0 or np.any(np.diff(times) <= 0.0):
            raise InvalidParameterError("times must increase strictly from 0")
        if not np.all(np.isfinite(data)):
            raise InvalidFieldError("trajectory contains non-finite entries")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "data", data)

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def boundary_left(self) -> np.ndarray:
        """Dirichlet values applied at z = 0, one per recorded time."""
        return self.data[:, 0]

    @property
    def boundary_right(self) -> np.ndarray:
        """Dirichlet values applied at z = 1, one per recorded time."""
        return self.data[:, -1]

    def state(self, k: int) -> Field:
        return Field(self.data[k], self.grid)

    @property
    def final_state(self) -> Field:
        return self.state(len(self) - 1)


def format_floats(values) -> list[str]:
    """Each value as ``%.17g``, which round-trips every double exactly."""
    return list(map("{:.17g}".format, np.asarray(values, dtype=float).tolist()))


def literal(text: str) -> str:
    """``text`` as template text that ``%`` leaves unchanged: each ``%`` doubled."""
    return text.replace("%", "%%")


def float_block(*columns) -> tuple[str, np.ndarray]:
    """A block of equal-length float columns: one ``%.17g`` slot per cell."""
    rows = np.column_stack(columns)
    return (",".join(["%.17g"] * rows.shape[1]) + "\n") * rows.shape[0], rows


def write_csv(path, header: str, blocks) -> None:
    """Write ``header``, then each block ``(template, values)`` as
    ``template % tuple(values)``.

    A template is the block's rows as text: every float cell is a ``%.17g``
    slot, and every other cell is a literal (already formatted floats such as
    a trajectory's ``t`` and ``z``, or text passed through :func:`literal`).
    ``values`` fills the slots in row-major order; it is converted to doubles
    once, so each cell is formatted by the same C routine as
    ``"{:.17g}".format`` and the bytes match :func:`format_floats`.  Only one
    block is held at a time, so a generator of blocks streams.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for template, values in blocks:
            fh.write(template % tuple(np.asarray(values, dtype=float).ravel().tolist()))
