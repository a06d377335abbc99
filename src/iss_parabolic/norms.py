"""Norms of grid functions: L^p, sine-weighted L^1, and weighted sup.

All integral norms use the composite trapezoid rule on the uniform grid
(second order, matching the solver), and the p = inf norm is the nodal
maximum over the closed interval including both boundary nodes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError
from .grid import Field


# Norms of a history work in one buffer of its size, updated in place: a
# second one is trimmed off the heap after each call and faulted back next.


def _trapz(values: np.ndarray, h: float) -> np.ndarray:
    """Composite trapezoid along the last axis of ``values``."""
    return h * (values.sum(axis=-1) - 0.5 * (values[..., 0] + values[..., -1]))


def lp_norms(data: np.ndarray, h: float, p: float) -> np.ndarray:
    """L^p norm of each row of a (time x node) array; p may be math.inf."""
    if p == math.inf:
        return np.abs(data).max(axis=-1)
    powers = np.abs(data, dtype=float)
    powers **= p
    return _trapz(powers, h) ** (1.0 / p)


def weighted_sin_norms(data: np.ndarray, h: float) -> np.ndarray:
    """Row-wise integral of sin(pi z) |x(z)| over [0, 1]."""
    weighted = np.abs(data, dtype=float)
    weighted *= np.sin(np.pi * np.linspace(0.0, 1.0, data.shape[-1]))
    return _trapz(weighted, h)


def sup_weight(nodes: np.ndarray, theta: float, phi: float) -> np.ndarray:
    """The weight sin(theta + phi) / sin(theta + z phi), positive on [0, 1]."""
    if not (theta > 0.0 and phi > 0.0 and theta + phi < np.pi):
        raise InvalidParameterError(
            f"need 0 < theta, 0 < phi and theta + phi < pi, got theta={theta}, phi={phi}"
        )
    return np.sin(theta + phi) / np.sin(theta + nodes * phi)


def weighted_sup_norms(data: np.ndarray, nodes: np.ndarray, theta: float, phi: float) -> np.ndarray:
    """Row-wise max of the weighted absolute value with :func:`sup_weight`."""
    weighted = np.abs(data, dtype=float)
    weighted *= sup_weight(nodes, theta, phi)
    return weighted.max(axis=-1)


def norm_lp(x: Field, p: float) -> float:
    """L^p norm of a field for p in [1, inf].

    For finite p this is the trapezoid quadrature of (integral |x|^p)^(1/p);
    for p = inf it is the maximum of |x| over all nodes.
    """
    if not (p >= 1.0):
        raise InvalidParameterError(f"p must lie in [1, inf], got {p}")
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
