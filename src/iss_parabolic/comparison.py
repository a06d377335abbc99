"""Exponential decay bounds, linear gains and the combination of ISS bounds.

Stability estimates are stated with a decay bound ``beta(r, t)`` (increasing
in r, decreasing to 0 in t) plus a gain ``gamma(r)`` (strictly increasing,
unbounded, gamma(0) = 0).  Every bound the certification modules produce is
exponential with a linear shape, ``beta(r, t) = m exp(-sigma t) r``, with a
linear gain ``gamma(r) = c r``; this module provides that family and
``combine_bounds``, which turns a constant-input bound into one valid for
all inputs.  All objects are immutable and evaluate vectorized over numpy
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidParameterError

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class LinearGain:
    """gamma(r) = c * r with c > 0."""

    c: float

    def __post_init__(self) -> None:
        if not self.c > 0.0:
            raise InvalidParameterError(f"linear gain needs c > 0, got {self.c}")

    def __call__(self, r: ArrayLike) -> ArrayLike:
        return self.c * np.asarray(r, dtype=float) if np.ndim(r) else self.c * float(r)


@dataclass(frozen=True)
class ExpLinearKL:
    """beta(r, t) = m * exp(-sigma t) * r.

    ``m`` is the overshoot factor (>= 1 for every bound produced by the
    estimates in this package, > 0 admitted so combined bounds stay
    representable) and ``sigma`` the decay rate.
    """

    m: float
    sigma: float

    def __post_init__(self) -> None:
        if not (self.m > 0.0 and self.sigma > 0.0):
            raise InvalidParameterError(f"need m > 0 and sigma > 0, got m={self.m}, sigma={self.sigma}")

    def __call__(self, r: ArrayLike, t: ArrayLike) -> ArrayLike:
        return self.m * np.exp(-self.sigma * np.asarray(t, dtype=float)) * r


def combine_bounds(
    beta: ExpLinearKL,
    gamma: LinearGain,
    rho: LinearGain,
    eta: LinearGain,
    xi: LinearGain,
) -> tuple[ExpLinearKL, LinearGain]:
    """Combine a constant-input stability bound into one valid for all inputs.

    Given a decay bound ``beta`` and gain ``gamma`` that certify stability
    against constant inputs, together with the bracketing moduli ``rho``
    (norm recovery from a two-sided envelope), ``eta`` (input envelope) and
    ``xi`` (state envelope), the pair

        beta_hat(r, t) = rho(4 beta(2 xi(2 r), t))
        gamma_hat(r)   = rho(4 beta(2 xi(2 r), 0) + 4 gamma(eta(r)))

    is valid for arbitrary bounded inputs.  With exponential-linear ``beta``
    and linear moduli it stays in that family: beta_hat has overshoot
    16 rho xi m and the same rate, gamma_hat is linear with slope
    rho (16 xi m + 4 gamma eta).
    """
    beta_hat = ExpLinearKL(m=16.0 * rho.c * xi.c * beta.m, sigma=beta.sigma)
    gamma_hat = LinearGain(rho.c * (16.0 * xi.c * beta.m + 4.0 * gamma.c * eta.c))
    return beta_hat, gamma_hat
