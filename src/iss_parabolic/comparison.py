"""Parametric comparison-function algebra: class-K gains and KL decay bounds.

Stability estimates are stated with a decay bound ``beta(r, t)`` (increasing
in r, decreasing to 0 in t) plus a gain ``gamma(r)`` (strictly increasing,
unbounded, gamma(0) = 0).  Rather than admitting arbitrary functions, this
module provides a small closed algebra -- linear and power gains plus sums
and compositions, and exponentially decaying KL shapes -- which covers every
bound the certification modules produce.  All objects are immutable and
evaluate vectorized over numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .errors import InvalidParameterError

ArrayLike = Union[float, np.ndarray]


class GainFn:
    """A candidate class-K-infinity function; subclasses implement __call__."""

    def __call__(self, r: ArrayLike) -> ArrayLike:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def is_linear(self) -> bool:
        return False

    @property
    def shape(self) -> str:
        return "generic"


@dataclass(frozen=True)
class LinearGain(GainFn):
    """gamma(r) = c * r with c > 0."""

    c: float

    def __post_init__(self) -> None:
        if not self.c > 0.0:
            raise InvalidParameterError(f"linear gain needs c > 0, got {self.c}")

    def __call__(self, r: ArrayLike) -> ArrayLike:
        return self.c * np.asarray(r, dtype=float) if np.ndim(r) else self.c * float(r)

    @property
    def is_linear(self) -> bool:
        return True

    @property
    def shape(self) -> str:
        return "linear"


@dataclass(frozen=True)
class PowerGain(GainFn):
    """gamma(r) = c * r**q with c > 0, q > 0."""

    c: float
    q: float

    def __post_init__(self) -> None:
        if not (self.c > 0.0 and self.q > 0.0):
            raise InvalidParameterError(f"power gain needs c, q > 0, got c={self.c}, q={self.q}")

    def __call__(self, r: ArrayLike) -> ArrayLike:
        return self.c * np.asarray(r, dtype=float) ** self.q

    @property
    def shape(self) -> str:
        return "power"


@dataclass(frozen=True)
class SumGain(GainFn):
    """Pointwise sum of gains; class K-infinity is closed under addition."""

    terms: Tuple[GainFn, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise InvalidParameterError("sum gain needs at least one term")

    def __call__(self, r: ArrayLike) -> ArrayLike:
        out = self.terms[0](r)
        for g in self.terms[1:]:
            out = out + g(r)
        return out

    @property
    def shape(self) -> str:
        return "sum"


@dataclass(frozen=True)
class ComposeGain(GainFn):
    """Composition stages[0](stages[1](...(r))); closed in K-infinity."""

    stages: Tuple[GainFn, ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise InvalidParameterError("composition needs at least one stage")

    def __call__(self, r: ArrayLike) -> ArrayLike:
        out = self.stages[-1](r)
        for g in self.stages[-2::-1]:
            out = g(out)
        return out

    @property
    def shape(self) -> str:
        return "composition"


def compose(*gains: GainFn) -> GainFn:
    """Compose gains left-to-right (first applied last), flattening nests."""
    flat: list[GainFn] = []
    for g in gains:
        if isinstance(g, ComposeGain):
            flat.extend(g.stages)
        else:
            flat.append(g)
    if len(flat) == 1:
        return flat[0]
    return ComposeGain(tuple(flat))


class KLBound:
    """A candidate KL bound; subclasses implement __call__(r, t)."""

    def __call__(self, r: ArrayLike, t: ArrayLike) -> ArrayLike:  # pragma: no cover
        raise NotImplementedError

    @property
    def shape(self) -> str:  # pragma: no cover - overridden
        return "generic"


@dataclass(frozen=True)
class ExpLinearKL(KLBound):
    """beta(r, t) = m * exp(-sigma t) * r.

    ``m`` is the overshoot factor (>= 1 for every bound produced by the
    estimates in this package, > 0 admitted so composed bounds stay
    representable) and ``sigma`` the decay rate.
    """

    m: float
    sigma: float

    def __post_init__(self) -> None:
        if not (self.m > 0.0 and self.sigma > 0.0):
            raise InvalidParameterError(f"need m > 0 and sigma > 0, got m={self.m}, sigma={self.sigma}")

    def __call__(self, r: ArrayLike, t: ArrayLike) -> ArrayLike:
        return self.m * np.exp(-self.sigma * np.asarray(t, dtype=float)) * r

    @property
    def shape(self) -> str:
        return "exponential-linear"


@dataclass(frozen=True)
class ExpShapedKL(KLBound):
    """beta(r, t) = m * exp(-sigma t) * kappa(r) with kappa a gain."""

    m: float
    sigma: float
    kappa: GainFn

    def __post_init__(self) -> None:
        if not (self.m > 0.0 and self.sigma > 0.0):
            raise InvalidParameterError(f"need m > 0 and sigma > 0, got m={self.m}, sigma={self.sigma}")

    def __call__(self, r: ArrayLike, t: ArrayLike) -> ArrayLike:
        return self.m * np.exp(-self.sigma * np.asarray(t, dtype=float)) * self.kappa(r)

    @property
    def shape(self) -> str:
        return "exponential-nonlinear"


@dataclass(frozen=True)
class ComposedKL(KLBound):
    """beta(r, t) = outer(inner_bound(inner_gain(r), t)).

    Wrapping a KL bound between two class-K-infinity maps preserves the KL
    axioms, so the result is a valid (if no longer parametric) decay bound.
    """

    outer: GainFn
    inner_bound: KLBound
    inner_gain: GainFn

    def __call__(self, r: ArrayLike, t: ArrayLike) -> ArrayLike:
        return self.outer(self.inner_bound(self.inner_gain(r), t))

    @property
    def shape(self) -> str:
        return "composed"


@dataclass(frozen=True)
class KLZeroSliceGain(GainFn):
    """The gain r -> bound(r, 0); in class K-infinity for exponential shapes."""

    bound: KLBound

    def __call__(self, r: ArrayLike) -> ArrayLike:
        return self.bound(r, 0.0)


def kl_eval(bound: KLBound, r: float, t: float) -> float:
    """Evaluate a KL bound at (r, t) with nonnegative arguments."""
    if r < 0.0 or t < 0.0:
        raise InvalidParameterError(f"kl_eval needs r, t >= 0, got r={r}, t={t}")
    return float(bound(r, t))


def combine_bounds(
    beta: KLBound,
    gamma: GainFn,
    rho: GainFn,
    eta: GainFn,
    xi: GainFn,
) -> tuple[KLBound, GainFn]:
    """Combine a constant-input stability bound into one valid for all inputs.

    Given a decay bound ``beta`` and gain ``gamma`` that certify stability
    against constant inputs, together with the bracketing moduli ``rho``
    (norm recovery from a two-sided envelope), ``eta`` (input envelope) and
    ``xi`` (state envelope), returns the pair

        beta_hat(r, t) = rho(4 beta(2 xi(2 r), t))
        gamma_hat(r)   = rho(4 beta(2 xi(2 r), 0) + 4 gamma(eta(r)))

    valid for arbitrary bounded inputs.  When rho, eta, xi, gamma are all
    linear and beta is exponential with a linear shape, the result collapses
    back to that parametric family: exponential decay with a linear gain.
    """
    all_linear = (
        isinstance(rho, LinearGain)
        and isinstance(eta, LinearGain)
        and isinstance(xi, LinearGain)
        and isinstance(gamma, LinearGain)
        and isinstance(beta, ExpLinearKL)
    )
    inner = compose(LinearGain(2.0), xi, LinearGain(2.0))  # r -> 2 xi(2 r)
    if isinstance(beta, ExpLinearKL) and isinstance(rho, LinearGain) and isinstance(xi, LinearGain):
        beta_hat: KLBound = ExpLinearKL(m=16.0 * rho.c * xi.c * beta.m, sigma=beta.sigma)
    else:
        beta_hat = ComposedKL(outer=compose(rho, LinearGain(4.0)), inner_bound=beta, inner_gain=inner)

    if all_linear:
        gamma_hat: GainFn = LinearGain(rho.c * (16.0 * xi.c * beta.m + 4.0 * gamma.c * eta.c))
    else:
        transient_at_zero = compose(LinearGain(4.0), KLZeroSliceGain(beta), inner)
        gain_part = compose(LinearGain(4.0), gamma, eta)
        gamma_hat = compose(rho, SumGain((transient_at_zero, gain_part)))
    return beta_hat, gamma_hat


def looks_class_k_inf(gamma: GainFn, samples: np.ndarray | None = None, growth_target: float = 1e6) -> bool:
    """Sampling check of the class K-infinity axioms.

    Verifies gamma(0) = 0, strict increase on the sample points, and
    unbounded growth (gamma exceeds ``growth_target`` along doubling
    arguments).  A True result is evidence, not proof.
    """
    if samples is None:
        samples = np.concatenate(([0.0], np.logspace(-6, 3, 40)))
    vals = np.asarray(gamma(samples), dtype=float)
    if abs(float(gamma(0.0))) > 1e-14:
        return False
    if np.any(np.diff(vals) <= 0.0):
        return False
    r = 1.0
    for _ in range(60):
        if float(gamma(r)) > growth_target:
            return True
        r *= 4.0
    return False


def looks_class_kl(
    bound: KLBound,
    r_samples: np.ndarray | None = None,
    t_samples: np.ndarray | None = None,
    decay_tol: float = 1e-8,
) -> bool:
    """Sampling check of the KL axioms.

    For each sampled t, r -> bound(r, t) must vanish at 0 and strictly
    increase; for each sampled r > 0, t -> bound(r, t) must be nonincreasing
    and decay below ``decay_tol`` * bound(r, 0) at large times.
    """
    if r_samples is None:
        r_samples = np.concatenate(([0.0], np.logspace(-3, 2, 20)))
    if t_samples is None:
        t_samples = np.linspace(0.0, 5.0, 11)
    for t in t_samples:
        vals = np.asarray(bound(r_samples, t), dtype=float)
        if abs(vals[0]) > 1e-14 or np.any(np.diff(vals) <= 0.0):
            return False
    t_decay = np.linspace(0.0, 50.0, 26)
    for r in r_samples[1:]:
        vals = np.asarray(bound(r, t_decay), dtype=float)
        if np.any(np.diff(vals) > 1e-12 * max(1.0, vals[0])):
            return False
    for r in (r_samples[1], r_samples[-1]):
        v0 = float(bound(r, 0.0))
        if float(bound(r, 200.0)) > decay_tol * max(v0, 1e-300):
            return False
    return True
