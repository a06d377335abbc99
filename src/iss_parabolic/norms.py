"""Norms of grid functions: L^p, sine-weighted L^1, and weighted sup.

All integral norms use the composite trapezoid rule on the uniform grid
(second order, matching the solver), and the p = inf norm is the nodal
maximum over the closed interval including both boundary nodes.

The history functions here compute and return; a ``grid.Trajectory`` owns
its own L^p histories (``Trajectory.lp_norms``), each computed once by
:func:`lp_norms` and kept, so the checks that read one trajectory's history
share it.  At p = 2 the powers are x * x, formed straight from the states:
the same bits as |x| squared, one pass over each block fewer.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError
from .grid import Field, _block_rows


# A history at n_interior=999 is 5001 x 1001 doubles (40 MB); a whole-array
# |x| copy of it would set a closed-loop plant's peak memory and stream it
# through memory twice.  So a norm reduces one block of rows of about
# ``grid.BLOCK_BYTES`` at a time in one reused buffer that stays in cache.
# Each row still gets the same elementwise steps and the same
# ``sum(axis=-1)`` or ``max(axis=-1)``, so every norm keeps the bits of the
# whole-array formula.


def _absolute(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.abs(rows, out=out, dtype=float)


def _square(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.multiply(rows, rows, out=out, dtype=float)


def _row_reductions(data: np.ndarray, reduce, elementwise=_absolute) -> np.ndarray:
    """``reduce`` of ``elementwise(data)``, |data| unless given, one value per row: a scalar for a field,
    an array for a history.

    ``reduce(block)`` gets ``elementwise`` of a block of rows in a reused
    float buffer, may overwrite it, and returns one value per row.
    """
    rows2d = data.reshape(-1, data.shape[-1])
    n = len(rows2d)
    out = np.empty(n)
    rows = _block_rows(rows2d.shape[1] * out.itemsize, n)
    buffer = np.empty((rows, rows2d.shape[1]))
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        out[r0:r1] = reduce(elementwise(rows2d[r0:r1], buffer[: r1 - r0]))
    return out.reshape(data.shape[:-1])[()]


def _trapz_sums(values: np.ndarray) -> np.ndarray:
    """Composite trapezoid along the last axis of ``values``, before the factor h."""
    return values.sum(axis=-1) - 0.5 * (values[..., 0] + values[..., -1])


def check_exponent(p: float) -> None:
    """Raise ``InvalidParameterError`` unless p >= 1 (math.inf included): an L^p norm needs it."""
    if not p >= 1.0:  # NaN fails too
        raise InvalidParameterError(f"p must be >= 1 or inf, got {p}")


def lp_norms(data: np.ndarray, h: float, p: float) -> np.ndarray:
    """L^p norm of each row of a (time x node) array for p >= 1; p may be math.inf."""
    check_exponent(p)
    if p == math.inf:
        return _row_reductions(data, lambda block: block.max(axis=-1))
    if p == 2.0:  # x * x is |x| ** 2 bit for bit
        return (h * _row_reductions(data, _trapz_sums, _square)) ** (1.0 / p)

    def trapz_of_powers(block):
        block **= p
        return _trapz_sums(block)

    return (h * _row_reductions(data, trapz_of_powers)) ** (1.0 / p)


def weighted_sin_norms(data: np.ndarray, h: float) -> np.ndarray:
    """Row-wise integral of sin(pi z) |x(z)| over [0, 1]."""
    weight = np.sin(np.pi * np.linspace(0.0, 1.0, data.shape[-1]))

    def trapz_of_weighted(block):
        block *= weight
        return _trapz_sums(block)

    return h * _row_reductions(data, trapz_of_weighted)


def sup_weight(nodes: np.ndarray, theta: float, phi: float) -> np.ndarray:
    """The weight sin(theta + phi) / sin(theta + z phi), positive on [0, 1]."""
    if not (theta > 0.0 and phi > 0.0 and theta + phi < np.pi):
        raise InvalidParameterError(
            f"need 0 < theta, 0 < phi and theta + phi < pi, got theta={theta}, phi={phi}"
        )
    return np.sin(theta + phi) / np.sin(theta + nodes * phi)


def weighted_sup_norms(data: np.ndarray, nodes: np.ndarray, theta: float, phi: float) -> np.ndarray:
    """Row-wise max of the weighted absolute value with :func:`sup_weight`."""
    weight = sup_weight(nodes, theta, phi)

    def max_of_weighted(block):
        block *= weight
        return block.max(axis=-1)

    return _row_reductions(data, max_of_weighted)


def norm_lp(x: Field, p: float) -> float:
    """L^p norm of a field for p in [1, inf].

    For finite p this is the trapezoid quadrature of (integral |x|^p)^(1/p);
    for p = inf it is the maximum of |x| over all nodes.
    """
    return float(lp_norms(x.values[np.newaxis, :], x.grid.h, p)[0])


def norm_weighted_sin(x: Field) -> float:
    """Integral of sin(pi z) |x(z)| dz over [0, 1] by trapezoid quadrature."""
    return float(weighted_sin_norms(x.values[np.newaxis, :], x.grid.h)[0])


def norm_weighted_sup(x: Field, theta: float, phi: float) -> float:
    """Max over nodes of sin(theta + phi) |x(z)| / sin(theta + z phi).

    The weight equals 1 at z = 1 and sin(theta + phi)/sin(theta) at z = 0;
    parameters must satisfy 0 < theta, 0 < phi, theta + phi < pi so the
    denominator stays positive on the whole interval.
    """
    return float(weighted_sup_norms(x.values[np.newaxis, :], x.grid.nodes, theta, phi)[0])
