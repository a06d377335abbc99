"""Uniform 1-D grids, grid functions, trajectories, and the one CSV writer.

The spatial domain is always [0, 1], discretized with ``n_interior`` interior
nodes plus both boundary nodes, so fields have ``n_interior + 2`` samples and
the mesh width is ``h = 1 / (n_interior + 1)`` exactly.  All types here are
immutable after construction and safe to share between threads.

The writer prints every float as ``%.17g``, formatting a piece of rows at a
time with integer arithmetic: a value whose decimal exponent lies in
[-11, 15] gets its 17 digits from an exact 128-bit product of its
significand with a power of five, rounded half to even; exact zeros are laid
out directly; any other value (non-finite, subnormal or outside the window)
is formatted alone by ``"%.17g" % v`` itself.
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


# %.17g by integer arithmetic.  A finite |x| = m 2^(e - 64), m an integer in
# [2^63, 2^64), whose decimal exponent X lies in _WINDOW has its 17 digits
# D = round(|x| 10^(16 - X)) computed exactly: the 128-bit product of m with
# 5^(16 - X) 2^g (normalised to [2^63, 2^64)) is shifted right by
# g - (16 - X) - e bits and rounded half to even on the exact remainder.
# 5^27 < 2^63 bounds the window below.
_WINDOW = (-11, 15)
_POW5 = [5**s << (64 - (5**s).bit_length()) for s in range(17 - _WINDOW[0])]
_POW5_HALVES = np.array([[f >> 32 for f in _POW5], [f & 0xFFFFFFFF for f in _POW5]], dtype=np.uint64)
_POW5_SHIFT = np.array([64 - (5**s).bit_length() - s for s in range(len(_POW5))])
_HALVES = np.array([[32], [0]], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
_ORD = np.arange(18, dtype=np.int8)[:, None]
# The lead "0.000" of a fixed value below one: each byte, and the largest
# decimal exponent that writes it.
_LEAD = np.array([ord(c) for c in "0.000"], dtype=np.uint8)[:, None]
_LEAD_AT = np.array([1, 1, 2, 3, 4], dtype=np.int8)[:, None]
_ZERO, _DOT, _MINUS, _E, _COMMA, _NEWLINE = (np.uint8(ord(c)) for c in "0.-e,\n")
# Text of one piece of a CSV block, counting each cell at the width of the
# widest %.17g cell (-2.2250738585072014e-308) and its separator.  A piece's
# buffers peak at about three times this.
PIECE_BYTES = 1 << 19
_CELL_BYTES = 25


def _scaled(m: np.ndarray, e: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(|x| 10^(16 - X)) for |x| = m 2^(e - 64), and whether the exact
    value rounds up from it, half to even.
    """
    s = 16 - X
    # m and the scaled power of five in 32-bit halves, high half first
    products = ((m >> _HALVES) & _LOW32)[:, None] * np.take(_POW5_HALVES, s, axis=1)
    mid = (products[1, 1] >> 32) + (products[0, 1] & _LOW32) + (products[1, 0] & _LOW32)
    hi = products[0, 0] + (products[0, 1] >> 32) + (products[1, 0] >> 32) + (mid >> 32)
    t = (_POW5_SHIFT[s] - e).astype(np.uint64)  # |x| 10^(16 - X) = (hi + lo 2^-64) 2^-t
    q = hi >> t
    rest = hi - (q << t)
    half = np.uint64(1) << (t - np.uint64(1))
    up = rest > half
    tie = rest == half  # a tie only if lo = (mid mod 2^32) 2^32 + products[1, 1] mod 2^32 is zero too
    if tie.any():
        lo = (mid[tie] & _LOW32) | (products[1, 1][tie] & _LOW32)
        up[tie] = (lo != 0) | ((q[tie] & 1) == 1)
    return q, up


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 digits D and decimal exponent X of each value of ``x`` as
    ``%.17g`` rounds it, and whether it has them: the values in the window.

    X is estimated by ``log10`` and corrected from the truncated digits, so
    a value just below a power of ten keeps its 17 nines.  Other values get
    D = 0 and X = 0, the digits of zero.
    """
    low, high = _WINDOW
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        X = np.floor(np.log10(a))
    fast = (X >= low) & (X <= high)
    X = np.where(fast, X, 0.0).astype(np.int64)
    bits = np.where(fast, a, 1.0).view(np.uint64)  # |x| = (2^52 + fraction) 2^(exponent - 1075)
    e = (bits >> 52).astype(np.int64) - 1022
    m = (bits << 11) | np.uint64(1 << 63)
    q, up = _scaled(m, e, X)
    off = np.flatnonzero((q >= 10**17) | (q < 10**16))
    if off.size:
        X[off] += np.where(q[off] >= 10**17, 1, -1)
        inside = (X[off] >= low) & (X[off] <= high)
        fast[off[~inside]] = False
        off = off[inside]
        q[off], up[off] = _scaled(m[off], e[off], X[off])
        fast[off[(q[off] >= 10**17) | (q[off] < 10**16)]] = False
    D = np.where(fast, q + up, 0)
    X = np.where(fast, X, 0).astype(np.int8)
    carry = D == 10**17
    D[carry] = 10**16
    X += carry
    return D, X, fast


def _float_cells(values: np.ndarray) -> np.ndarray:
    """``%.17g`` of each value as ASCII, one NUL-padded cell per column of a
    (width, values.size) uint8 array.

    Values in the window get their digits from :func:`_decimal` and exact
    zeros are laid out directly; every other value (non-finite, or outside
    the window) is formatted alone by ``"%.17g" % v``.  Rows hold the sign,
    the lead "0.000" of a fixed value below one, the digits with a possible
    point before each, and the exponent of an ``e`` form; rows no value
    writes are left out.
    """
    x = values.ravel()
    n = x.size
    D, X, fast = _decimal(x)
    # D = d0 10^16 + four groups of four digits, each group split at once
    dig = np.empty((17, n), np.uint8)
    groups = np.empty((4, n), np.uint32)
    for g in range(3, -1, -1):
        high = D // 10**4
        np.subtract(D, high * 10**4, out=groups[g], casting="unsafe")
        D = high
    dig[0] = D
    by_group = dig[1:].reshape(4, 4, n)
    for j in range(3, -1, -1):
        tens = groups // 10
        np.subtract(groups, tens * 10, out=by_group[:, j], casting="unsafe")
        groups = tens
    keep = ((dig != 0) * _ORD[1:18]).max(axis=0)  # digits up to the last nonzero one
    dig += _ZERO
    p = np.maximum(X, 0)  # the point follows digit p ...
    kept = np.maximum(keep, p + 1)
    exp_form = X < -4
    lead = (X < 0) & ~exp_form  # ... or "0." and -X - 1 zeros precede digit 0
    point = np.where(lead | (keep <= p + 1), -1, p)

    neg = np.signbit(x) & (fast | (x == 0.0))
    signed = int(neg.any())
    n_lead = 1 - int(np.min(X, where=lead, initial=1))
    n_digits = int(kept.max(initial=1))
    n_points = min(n_digits - 1, int(point.max(initial=-1)) + 1)  # digits 1..n_points may follow the point
    n_exp = 4 * int(exp_form.any())
    slow = np.flatnonzero(~fast & (x != 0.0))
    texts = np.array([b"%.17g" % v for v in x[slow].tolist()], dtype=bytes)
    cells = np.zeros((max(signed + n_lead + n_digits + n_points + n_exp, texts.itemsize), n), np.uint8)
    np.multiply(neg, _MINUS, out=cells[:signed])
    r = signed + n_lead
    np.multiply(lead & (X <= -_LEAD_AT[:n_lead]), _LEAD[:n_lead], out=cells[signed:r])
    cells[r] = dig[0]
    c = n_points
    np.multiply(point == _ORD[:c], _DOT, out=cells[r + 1 : r + 2 * c + 1 : 2])
    np.multiply(_ORD[1 : c + 1] < kept, dig[1 : c + 1], out=cells[r + 2 : r + 2 * c + 2 : 2])
    r += 2 * c + 1
    np.multiply(_ORD[c + 1 : n_digits] < kept, dig[c + 1 : n_digits], out=cells[r : r + n_digits - c - 1])
    r += n_digits - c - 1
    if n_exp:
        tens, ones = np.divmod(np.negative(X), 10)
        for row, byte in enumerate((_E, _MINUS, tens + _ZERO, ones + _ZERO), r):
            np.multiply(exp_form, byte, out=cells[row], casting="unsafe")
    if slow.size:
        cells[:, slow] = 0
        cells[: texts.itemsize, slow] = texts.view(np.uint8).reshape(slow.size, -1).T
    return cells


def format_floats(values) -> np.ndarray:
    """Each value as its ``%.17g`` bytes, which round-trip every double
    exactly: a bytes array of the shape of ``values``.
    """
    x = np.asarray(values, dtype=float)
    return np.array(b"".join(_pieces([x.ravel()])).split(b"\n")[:-1], dtype=bytes).reshape(x.shape)


def _text_cells(column: np.ndarray) -> np.ndarray:
    """A text column as UTF-8, one NUL-padded cell per column of the result."""
    text = np.char.encode(column, "utf-8") if column.dtype.kind == "U" else column
    flat = np.frombuffer(np.ascontiguousarray(text).tobytes(), np.uint8)
    return np.moveaxis(flat.reshape(text.shape + (text.itemsize,)), -1, 0)


def _rows(columns: list[np.ndarray]) -> bytes:
    """The CSV rows of columns broadcast against each other, one row per
    element, row-major: each cell laid out in its own rows of one (width,
    *shape) uint8 array, read back row by row without its NUL padding.
    """
    shape = np.broadcast_shapes(*(c.shape for c in columns))
    cells = []
    for column in columns:
        cell = _text_cells(column) if column.dtype.kind in "US" else _float_cells(column)
        cells.append(cell.reshape(cell.shape[:1] + (1,) * (len(shape) - column.ndim) + column.shape))
    out = np.empty((sum(len(cell) + 1 for cell in cells),) + shape, np.uint8)
    r = 0
    for cell in cells:
        out[r : r + len(cell)] = cell
        out[r + len(cell)] = _COMMA
        r += len(cell) + 1
    out[-1] = _NEWLINE
    del cells  # hold at most the layout and its text at once
    text = np.moveaxis(out, 0, -1).tobytes()
    del out
    return text.translate(None, b"\0")


def _pieces(block):
    """The CSV rows of one block, in pieces along its first axis of about
    ``PIECE_BYTES`` of text each.
    """
    columns = [np.atleast_1d(np.asarray(c)) for c in block]
    columns = [c if c.dtype.kind in "US" else c.astype(float, copy=False) for c in columns]
    shape = np.broadcast_shapes(*(c.shape for c in columns))
    step = max(1, PIECE_BYTES // (_CELL_BYTES * len(columns) * math.prod(shape[1:])))
    for i in range(0, shape[0], step):
        yield _rows([c[i : i + step] if c.ndim == len(shape) and c.shape[0] > 1 else c for c in columns])


def write_csv(path, header: str, blocks) -> None:
    """Write ``header``, then the rows of each block.

    A block is a sequence of columns broadcast against each other, one row
    per element of the result, row-major.  A column of ``str`` or ``bytes``
    is text, written as UTF-8 as it is (it must hold no NUL); any other
    column is converted to doubles, and each cell is written as ``%.17g``,
    byte for byte as ``"%.17g" % v``.  The cells of a piece are formatted
    together with integer arithmetic: values with a decimal exponent in
    [-11, 15] get their 17 digits from an exact 128-bit product, rounded
    half to even; exact zeros are laid out directly; every other value
    (non-finite, subnormal, or outside the window) is formatted alone by
    ``"%.17g" % v`` itself.  A block is written in pieces of about
    ``PIECE_BYTES`` of text, one piece in memory at a time, so a generator
    of blocks streams.
    """
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for block in blocks:
            fh.writelines(_pieces(block))  # drops each piece before the next is made
