"""Uniform 1-D grids, grid functions, trajectories, and the one CSV writer.

The spatial domain is always [0, 1], discretized with ``n_interior`` interior
nodes plus both boundary nodes, so fields have ``n_interior + 2`` samples and
the mesh width is ``h = 1 / (n_interior + 1)`` exactly.  All types here are
immutable after construction and safe to share between threads.

The CSV writer prints every float as ``"%.17g" % v``, a row at a time; it
writes the report, summary and kernel tables.  State histories are saved
as ``.npy`` arrays instead (``solver.write_trajectory``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidFieldError, InvalidParameterError

# Byte budget of one row-block buffer in the blocked array passes (kernel
# synthesis, the residual sup and the norms): small enough to stay in a
# core's cache.
BLOCK_BYTES = 1 << 17


def _block_rows(row_bytes: int, n_rows: int) -> int:
    """Rows per block of a blocked pass: about ``BLOCK_BYTES`` of ``row_bytes`` rows, at least one, at most ``n_rows``."""
    return max(1, min(BLOCK_BYTES // row_bytes, n_rows))


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

    A history of every time level, (n_steps + 1) x n_nodes doubles, must fit
    numpy's largest array.
    """

    n_interior: int
    dt: float
    t_final: float

    def __post_init__(self) -> None:
        if not (isinstance(self.n_interior, numbers.Integral) and self.n_interior >= 3):
            raise InvalidParameterError(f"n_interior must be an integer >= 3, got {self.n_interior}")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise InvalidParameterError(f"dt must be positive, got {self.dt}")
        if not (self.t_final >= self.dt and math.isfinite(self.t_final)):
            raise InvalidParameterError(
                f"t_final must be >= dt, got t_final={self.t_final}, dt={self.dt}"
            )
        steps = self.t_final / self.dt
        if not math.isfinite(steps):
            raise InvalidParameterError(f"t_final/dt must be finite, got t_final={self.t_final}, dt={self.dt}")
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise InvalidParameterError(
                f"t_final must be a whole number of steps, got t_final/dt={steps!r}"
            )
        if 8 * (self.n_steps + 1) * (int(self.n_interior) + 2) > np.iinfo(np.intp).max:
            raise InvalidParameterError(
                f"a history of (n_steps + 1) x n_nodes doubles exceeds numpy's largest array, got "
                f"t_final/dt={steps!r}, n_interior={self.n_interior}"
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


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed states of one simulation plus the applied boundary data.

    ``data[k]`` is the state at ``times[k]``; columns 0 and -1 hold the
    Dirichlet boundary values actually applied, read back through
    ``boundary_left`` / ``boundary_right``.  ``problem`` optionally records
    the problem that produced the trajectory so stability checks can recover
    the diffusion coefficient and reaction term.

    A trajectory is immutable.  It owns its L^p norm histories:
    ``lp_norms(p)`` computes the one for p on its first read and keeps it,
    read-only, in a private cache.  Filling the cache is idempotent: every
    later read, and a racing first read in another thread, returns the
    history stored first.
    """

    grid: Grid1D
    times: np.ndarray
    data: np.ndarray
    problem: object = field(default=None, repr=False)
    _lp_norms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        times = _frozen(self.times)
        data = _frozen(self.data)
        # NaN fails every comparison, and a finite last time bounds the rest
        if not (times.ndim == 1 and times.size and times[0] == 0.0 and (np.diff(times) > 0.0).all()
                and math.isfinite(times[-1])):
            raise InvalidParameterError("times must be finite and increase strictly from 0")
        if data.ndim != 2 or data.shape != (times.shape[0], self.grid.n_nodes):
            raise InvalidFieldError(
                f"trajectory data shape {data.shape} does not match "
                f"{times.shape[0]} times x {self.grid.n_nodes} nodes"
            )
        # NaN propagates through max and min and an infinity reaches one of them; neither needs a temporary
        if not (math.isfinite(data.max()) and math.isfinite(data.min())):
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

    def lp_norms(self, p: float) -> np.ndarray:
        """The L^p norm of every recorded state (``norms.lp_norms``), read-only, computed once per p."""
        history = self._lp_norms.get(p)
        if history is None:
            from .norms import lp_norms  # norms builds on this module

            history = lp_norms(self.data, self.grid.h, p)
            history.setflags(write=False)
            history = self._lp_norms.setdefault(p, history)
        return history

    def state(self, k: int) -> Field:
        return Field(self.data[k], self.grid)

    @property
    def final_state(self) -> Field:
        return self.state(len(self) - 1)


def _column(cells) -> tuple[str, list]:
    """A column's ``%``-template and its cells as Python objects: ``str``
    cells as they are, any other cells as doubles.
    """
    cells = np.asarray(cells).reshape(-1)
    if cells.dtype.kind == "U":
        return "%s", cells.tolist()
    return "%.17g", cells.astype(float, copy=False).tolist()


def write_csv(path, header: str, blocks) -> None:
    """Write ``header``, then the rows of each block, as UTF-8.

    A block is a sequence of equal-length 1-D columns, or of scalars for a
    single row.  A ``str`` cell is written as it is; any other cell is
    converted to a double and written as ``"%.17g" % v``, which round-trips
    it exactly.  Each block is written through one ``%``-template, a row at
    a time, so a generator of blocks holds one block at a time.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for block in blocks:
            templates, columns = zip(*map(_column, block))
            template = ",".join(templates) + "\n"
            fh.writelines(template % row for row in zip(*columns, strict=True))
