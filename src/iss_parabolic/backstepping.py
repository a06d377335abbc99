"""Boundary-feedback synthesis for the reaction-diffusion plant.

Plant and loop
--------------
The plant is y_t = a y_zz + kr y on (0, 1) with y(t, 1) = 0 and the control
applied at the left end, y(t, 0) = u(t).  The stabilizing transform

    x(t, z) = y(t, z) + int_z^1 k(z, s) y(t, s) ds

maps the plant with the feedback u(t) = d(t) - int_0^1 k(0, s) y(t, s) ds
(d an additive actuator disturbance) onto the plain heat equation with
x(t, 0) = d(t), x(t, 1) = 0.  Substituting the transform into both equations
forces the kernel to solve

    k_zz - k_ss = lam k   on the triangle 0 <= z <= s <= 1,  lam = kr / a,
    k(z, 1) = 0,          k(z, z) = (lam / 2) (1 - z),

whose closed form is k(z, s) = lam (1 - s) S(lam [(1-z)^2 - (1-s)^2]) with
S(q) = sum_m q^m / (4^m m! (m+1)!) / 2, an entire function (a modified
Bessel ratio for q > 0).  This module computes the kernel two independent
ways -- successive approximation of the equivalent integral equation in the
characteristic variables xi = 2 - z - s, eta = s - z,

    F(xi, eta) = (lam/4)(xi - eta)
                 + (lam/4) int_eta^xi int_0^eta F(xi', eta') d eta' d xi',

and the truncated series above -- so each validates the other.  A third,
dynamic check, ``transform_commutation_residual`` (the transformed loop must
satisfy the heat residual at the scheme's order), is run by the acceptance
tests and the ``closed_loop_fine`` benchmark; no scenario kind runs it.
The double integral is cumulative Simpson quadrature, computed in place in
buffers allocated once per synthesis and equal bit for bit to scipy's
``cumulative_simpson``.

Each kernel carries its quadrature operator (``VolterraKernel.matrix``, the
row-wise trapezoid weights times the samples), built once.  The inverse
transform y = x + int_z^1 l(z, s) x(t, s) ds is synthesized as the exact
inverse of the direct operator by one triangular solve, so a transform
round trip reproduces fields to rounding; its samples agree with the
continuous inverse kernel (the series with lam -> -lam) up to quadrature
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular

from .certify import ExpIssConstants, ISSReport, evaluate_bound
from .comparison import ExpLinearKL, LinearGain
from .errors import (
    IncompatibleDataError,
    InvalidParameterError,
    NumericalError,
    SynthesisError,
)
from .grid import Field, Grid1D, Trajectory, _frozen, format_floats, write_csv
from .norms import lp_norms
from .solver import COMPATIBILITY_TOL, BoundarySignal, _march, pde_residual_field

KERNEL_ITERATION_TOL = 1e-10
KERNEL_ITERATION_CAP = 200
# Share of the horizon skipped before the commutation residual is measured.
BURN_FRACTION = 0.05


@dataclass(frozen=True)
class VolterraKernel:
    """Triangular transform kernel sampled on the solver grid.

    ``samples[i, j]`` holds k(z_i, s_j) for s_j >= z_i and zero elsewhere.
    ``lam`` is the reaction-to-diffusion ratio the kernel was built for.
    ``matrix`` is the transform's quadrature operator: (I + matrix) y is
    the transformed field.
    """

    samples: np.ndarray
    lam: float
    direction: str
    grid: Grid1D

    def __post_init__(self) -> None:
        if self.direction not in ("direct", "inverse"):
            raise InvalidParameterError(f"unknown kernel direction {self.direction!r}")
        samples = _frozen(self.samples)
        if samples.shape != (self.grid.n_nodes, self.grid.n_nodes):
            raise InvalidParameterError("kernel samples do not match the grid")
        if not np.all(np.isfinite(samples)):
            raise NumericalError("kernel samples contain non-finite values")
        if any(samples[i, :i].any() for i in range(samples.shape[0])):
            raise InvalidParameterError("kernel samples must vanish below the diagonal")
        object.__setattr__(self, "samples", samples)

    @cached_property
    def matrix(self) -> np.ndarray:
        """M[i, j]: trapezoid weight times k(z_i, s_j), upper triangular."""
        m = _row_trapezoid_weights(self.grid.n_nodes, self.grid.h) * self.samples
        m.setflags(write=False)
        return m


def _row_trapezoid_weights(n_nodes: int, h: float) -> np.ndarray:
    """W[i, j]: trapezoid weight of node j for the integral over [z_i, 1]."""
    w = np.triu(np.full((n_nodes, n_nodes), h))
    idx = np.arange(n_nodes)
    w[idx, idx] = h / 2.0
    w[:, -1] = h / 2.0
    w[-1, -1] = 0.0  # degenerate interval [1, 1]
    return w


def _series_shape(q: np.ndarray) -> np.ndarray:
    """S(q) = sum_m q^m / (4^m m! (m+1)!) / 2, entire in q."""
    q = np.asarray(q, dtype=float)
    term = np.full(q.shape, 0.5)
    out = term.copy()
    for m in range(1, 120):
        term = term * q / (4.0 * m * (m + 1))
        out += term
        if np.max(np.abs(term)) < 1e-18:
            break
    return out


def kernel_series_reference(a: float, k_reaction: float, grid: Grid1D) -> np.ndarray:
    """Closed-form kernel samples; the independent cross-check for the solver.

    Evaluates lam (1 - s) S(lam [(1-z)^2 - (1-s)^2]) on the grid triangle.
    Passing ``-k_reaction`` yields the continuous inverse kernel.
    """
    if not a > 0.0:
        raise InvalidParameterError("diffusion coefficient must be positive")
    lam = k_reaction / a
    z = grid.nodes
    zz, ss = np.meshgrid(z, z, indexing="ij")
    vals = lam * (1.0 - ss) * _series_shape(lam * ((1.0 - zz) ** 2 - (1.0 - ss) ** 2))
    return np.triu(vals)


def _cumulative_simpson(
    y: np.ndarray, h: float, axis: int, out: np.ndarray, work: np.ndarray
) -> np.ndarray:
    """Cumulative Simpson integral of ``y`` along ``axis`` from 0, into ``out``.

    Equal bit for bit to ``scipy.integrate.cumulative_simpson(y, dx=h,
    axis=axis, initial=0.0)`` for at least 3 points: sub-interval i gets
    h/3 (5 f1/4 + 2 f2 - f3/4) with (f1, f2, f3) = (y_i, y_i+1, y_i+2) when i
    is even and not the last interval, and (y_i+1, y_i, y_i-1) otherwise,
    in scipy's order of operations; the sub-integrals are summed from a
    leading 0.0.  ``work`` is workspace of ``y``'s shape; ``out`` and ``work``
    must not overlap ``y`` or each other.
    """
    y, o, work = (np.moveaxis(a, axis, -1) for a in (y, out, work))
    n = y.shape[-1]
    f_lo, f_mid, f_hi = y[..., 0 : n - 2 : 2], y[..., 1 : n - 1 : 2], y[..., 2:n:2]
    # o[..., i + 1] holds the integral over [y_i, y_i+1] until the sum below
    panels = [(f_lo, f_mid, f_hi, o[..., 1 : n - 1 : 2]), (f_hi, f_mid, f_lo, o[..., 2:n:2])]
    if n % 2 == 0:
        panels.append((y[..., -1:], y[..., -2:-1], y[..., -3:-2], o[..., -1:]))
    for f1, f2, f3, sub in panels:
        w = work[..., : sub.shape[-1]]
        np.multiply(f1, 5.0, out=sub)
        sub /= 4.0
        np.multiply(f2, 2.0, out=w)
        sub += w
        np.divide(f3, 4.0, out=w)
        sub -= w
        sub *= h / 3.0
    o[..., 0] = 0.0
    np.cumsum(o, axis=-1, out=o)
    return out


def solve_kernel(a: float, k_reaction: float, grid: Grid1D) -> VolterraKernel:
    """Synthesize the direct kernel by successive approximation.

    Iterates the characteristic-variable integral equation on the rectangle
    xi in [0, 2], eta in [0, 1] (the equation extends smoothly beyond the
    physical triangle, which keeps the quadrature stencils away from kinks),
    with cumulative Simpson quadrature for the double integral, until the
    sup-difference of successive iterates drops below
    ``KERNEL_ITERATION_TOL``, or raises ``SynthesisError`` after
    ``KERNEL_ITERATION_CAP`` iterations.  The quadrature runs in place in
    buffers allocated once and equals scipy's ``cumulative_simpson`` bit for
    bit.
    """
    if not a > 0.0:
        raise InvalidParameterError("diffusion coefficient must be positive")
    lam = k_reaction / a
    h = grid.h
    n_eta = grid.n_nodes
    corner = 2 * (grid.n_interior + 1)
    xi = np.arange(corner + 1) * h
    eta = np.arange(n_eta) * h
    base = (lam / 4.0) * (xi[:, None] - eta[None, :])
    F = base.copy()
    inner, outer, new = (np.empty_like(F) for _ in range(3))
    diag = np.arange(n_eta)
    converged = False
    for _ in range(KERNEL_ITERATION_CAP):
        _cumulative_simpson(F, h, 1, inner, new)
        _cumulative_simpson(inner, h, 0, outer, new)
        # int_eta^xi int_0^eta F = D(xi, eta) - D(eta, eta)
        outer -= outer[diag, diag]
        outer *= lam / 4.0
        np.add(base, outer, out=new)
        np.subtract(new, F, out=outer)
        change = float(np.max(np.abs(outer, out=outer)))
        F, new = new, F
        if change < KERNEL_ITERATION_TOL:
            converged = True
            break
    if not converged:
        raise SynthesisError(
            f"kernel iteration did not converge within {KERNEL_ITERATION_CAP} iterations "
            f"(last change {change:.3e})"
        )
    # k(z_i, s_j) = F(2 - z_i - s_j, s_j - z_i): row i runs up an anti-diagonal of F
    samples = np.zeros((n_eta, n_eta))
    for i in range(n_eta):
        samples[i, i:] = F[corner - 2 * i :: -1].diagonal()[: n_eta - i]
    samples.setflags(write=False)
    return VolterraKernel(samples=samples, lam=lam, direction="direct", grid=grid)


def solve_inverse_kernel(direct: VolterraKernel) -> VolterraKernel:
    """Invert the discretized direct transform by one triangular solve.

    With U the quadrature operator of the direct transform, I + U is upper
    triangular with a unit-plus-O(h) diagonal, so the inverse transform
    operator L = (I + U)^-1 - I comes from one back substitution against
    the identity.  Transform round trips are therefore exact to rounding
    rather than to quadrature order; the composition (I + L)(I + U) = I is
    checked after the solve.
    """
    if direct.direction != "direct":
        raise InvalidParameterError("inverse synthesis expects the direct kernel")
    eye = np.eye(direct.grid.n_nodes)
    U = direct.matrix
    L = solve_triangular(eye + U, eye) - eye
    defect = float(np.max(np.abs((eye + L) @ (eye + U) - eye)))
    if defect > 1e-8:
        raise SynthesisError(f"inverse kernel failed the composition check: defect {defect:.3e}")
    weights = _row_trapezoid_weights(direct.grid.n_nodes, direct.grid.h)
    samples = np.where(weights > 0.0, L / np.where(weights > 0.0, weights, 1.0), 0.0)
    samples.setflags(write=False)
    return VolterraKernel(samples=samples, lam=-direct.lam, direction="inverse", grid=direct.grid)


def apply_transform(kernel: VolterraKernel, y: Field) -> Field:
    """x(z_i) = y(z_i) + trapezoid of k(z_i, .) y over [z_i, 1], row-wise."""
    if y.grid != kernel.grid:
        raise InvalidParameterError("field and kernel live on different grids")
    return Field(y.values + kernel.matrix @ y.values, y.grid)


def feedback(kernel: VolterraKernel, y: Field, d: float = 0.0) -> float:
    """Boundary control u = d - trapezoid of k(0, .) y over [0, 1]."""
    if y.grid != kernel.grid:
        raise InvalidParameterError("field and kernel live on different grids")
    return float(d - kernel.matrix[0] @ y.values)


def check_far_end(state: Field) -> None:
    """Raise ``IncompatibleDataError`` unless a closed-loop state vanishes at z = 1, to ``COMPATIBILITY_TOL``."""
    if abs(state.values[-1]) > COMPATIBILITY_TOL:
        raise IncompatibleDataError("closed-loop initial data must vanish at z = 1")


def compatible_initial_state(kernel: VolterraKernel, base: Field, d0: float = 0.0) -> Field:
    """Correct a profile so it is admissible for the closed loop.

    Adds c (1 + cos(pi z)) / 2 (equal to 1 at the controlled end, 0 at the
    far end) with c chosen so the corrected state satisfies the feedback
    boundary condition y(0) = d0 - int k(0, s) y(s) ds.  The base profile
    must already vanish at z = 1 (``check_far_end``).
    """
    check_far_end(base)
    row0 = kernel.matrix[0]
    bump = 0.5 * (1.0 + np.cos(np.pi * base.grid.nodes))
    denom = bump[0] + row0 @ bump
    if abs(denom) < 1e-12:
        raise NumericalError("compatibility correction is degenerate for this kernel")
    c = (d0 - base.values[0] - row0 @ base.values) / denom
    return Field(base.values + c * bump, base.grid)


@dataclass(frozen=True)
class ClosedLoopRun:
    """Closed-loop plant trajectory with its transformed (target) image.

    ``a`` is the diffusion coefficient of plant and target; ``disturbance``
    records the actuator error d(t_k); the applied control u(t_k) is
    ``y_traj.boundary_left``.  Neither trajectory carries a problem.
    """

    a: float
    y_traj: Trajectory
    x_traj: Trajectory
    disturbance: np.ndarray


def simulate_closed_loop(
    a: float,
    k_reaction: float,
    y0: Field,
    d: BoundarySignal,
    grid: Grid1D,
    kernel: VolterraKernel,
) -> ClosedLoopRun:
    """Step the plant under the synthesized feedback with actuator error d.

    The boundary value applied at each new time level is computed from the
    current state (feedback explicit, diffusion implicit, matching the IMEX
    split), so the transformed trajectory satisfies x(t, 0) = d(t) up to an
    O(dt) lag.  The transformed image is recorded alongside the plant state.
    ``kernel`` is the plant's kernel from ``solve_kernel``.  The stepper
    refuses dt |k_reaction| >= 1 with ``MonotonicityLossError``.
    """
    if not a > 0.0:
        raise InvalidParameterError(f"diffusion coefficient must be positive, got {a}")
    if y0.grid != grid:
        raise InvalidParameterError("initial state lives on a different grid")
    if kernel.grid != grid or abs(kernel.lam - k_reaction / a) > 1e-12:
        raise InvalidParameterError("kernel does not match the requested plant")
    check_far_end(y0)
    u0 = feedback(kernel, y0, float(d(0.0)))
    if abs(y0.values[0] - u0) > COMPATIBILITY_TOL:
        raise IncompatibleDataError(
            "initial state is incompatible with the feedback at z = 0; "
            "see compatible_initial_state"
        )

    kr = float(k_reaction)
    times = grid.times()
    d_values = d(times)
    row0 = kernel.matrix[0]
    data = _march(
        grid, a, lambda z, w, grad: kr * w, abs(kr), y0.values,
        lambda m, y: (d_values[m + 1] - float(row0 @ y), 0.0),
    )
    y_traj = Trajectory(grid=grid, times=times, data=data)

    x_data = data + data @ kernel.matrix.T
    x_data.setflags(write=False)
    x_traj = Trajectory(grid=grid, times=times, data=x_data)
    return ClosedLoopRun(a=a, y_traj=y_traj, x_traj=x_traj, disturbance=d_values)


def transform_commutation_residual(run: ClosedLoopRun) -> float:
    """Heat-equation residual of the transformed trajectory, past burn-in.

    The initial state is value-compatible but not derivative-compatible
    with the feedback, so the first few steps carry a boundary layer that
    the L-stable stepper damps; the residual is therefore measured after
    ``BURN_FRACTION`` of the horizon.  It decreases at the scheme's order
    (dt + h^2) under refinement, validating the kernel against the dynamics
    with no reference to any kernel formula.
    """
    x = run.x_traj
    start = min(int(BURN_FRACTION * (len(x) - 1)), len(x) - 3)
    res = pde_residual_field(x.data[start:], x.times[start:], x.grid.nodes, run.a)
    return float(res.max())


def _schur_bound(kernel: VolterraKernel, p: float) -> float:
    """Induced-norm bound of the discrete transform operator on L^p.

    Discrete Schur test with unit test weights: with M the quadrature
    matrix and omega the trapezoid node weights,
        ||M|| <= (max_i sum_j |M_ij|)^(1 - 1/p) (max_j sum_i omega_i |M_ij| / omega_j)^(1/p).
    """
    n = kernel.grid.n_nodes
    h = kernel.grid.h
    M = np.abs(kernel.matrix)
    omega = np.full(n, h)
    omega[0] = omega[-1] = h / 2.0
    row = float(M.sum(axis=1).max())
    col = float(((omega[:, None] * M).sum(axis=0) / omega).max())
    if p == math.inf:
        return row
    if not p >= 1.0:
        raise InvalidParameterError(f"p must lie in [1, inf], got {p}")
    return row ** (1.0 - 1.0 / p) * col ** (1.0 / p)


def _random_smooth_fields(grid: Grid1D, count: int, rng: np.random.Generator) -> np.ndarray:
    z = grid.nodes
    modes = np.sin(np.pi * np.outer(np.arange(1, 9), z))
    coeffs = rng.uniform(-1.0, 1.0, size=(count, 8)) / np.arange(1, 9) ** 2
    return coeffs @ modes


def estimate_equivalence_constants(kernel: VolterraKernel, inverse: VolterraKernel, p: float) -> tuple[float, float]:
    """Constants with K1 ||x[t]||_p <= ||y[t]||_p <= K2 ||x[t]||_p.

    Since x = (I + K) y and y = (I + L) x, valid constants are
    K1 = 1 / (1 + ||K||) from the direct bound and K2 = 1 + ||L|| from the
    inverse bound, with the operator norms estimated by the discrete Schur
    test.  The pair is sanity-checked on 100 seeded smooth fields before
    being returned.
    """
    if kernel.direction != "direct" or inverse.direction != "inverse":
        raise InvalidParameterError("expected a (direct, inverse) kernel pair")
    k1 = 1.0 / (1.0 + _schur_bound(kernel, p))
    k2 = 1.0 + _schur_bound(inverse, p)
    fields = _random_smooth_fields(kernel.grid, 100, np.random.default_rng(0))
    x = fields + fields @ kernel.matrix.T
    ny = lp_norms(fields, kernel.grid.h, p)
    nx = lp_norms(x, kernel.grid.h, p)
    keep = nx > 1e-14
    ratio = ny[keep] / nx[keep]
    if ratio.size and (ratio.min() < k1 * (1.0 - 1e-9) or ratio.max() > k2 * (1.0 + 1e-9)):
        raise NumericalError(
            f"equivalence constants failed the sampling sanity check: "
            f"ratios in [{ratio.min():.6g}, {ratio.max():.6g}] vs [K1, K2] = [{k1:.6g}, {k2:.6g}]"
        )
    return k1, k2


@dataclass(frozen=True)
class ClosedLoopConstants:
    """Constants entering the closed-loop robustness estimate."""

    k1: float
    k2: float
    iss: ExpIssConstants


def certify_closed_loop(
    y_traj: Trajectory,
    constants: ClosedLoopConstants,
    disturbance: np.ndarray,
    tol: float = 1e-9,
) -> ISSReport:
    """Check the closed-loop robustness estimate at every recorded time:

        ||y[t]||_p <= (K2/K1) m exp(-sigma t) ||y0||_p + K2 gamma max|d(s)|

    with (m, sigma, gamma) the fitted target-system constants and (K1, K2)
    the transform equivalence constants.
    """
    iss = constants.iss
    disturbance = np.asarray(disturbance, dtype=float)
    if disturbance.shape != y_traj.times.shape:
        raise InvalidParameterError("disturbance samples must align with the trajectory times")
    return evaluate_bound(
        "closed_loop_lp", y_traj.times, lp_norms(y_traj.data, y_traj.grid.h, iss.p),
        ExpLinearKL(constants.k2 / constants.k1 * iss.m, iss.sigma), LinearGain(constants.k2 * iss.gamma),
        np.maximum.accumulate(np.abs(disturbance)), tol,
    )


def write_kernel_csv(kernel: VolterraKernel, path) -> None:
    """Export kernel samples over the triangle: z,s,k_value."""
    nodes = format_floats(kernel.grid.nodes)
    cells = [f",{s},%.17g\n" for s in nodes]
    rows = ((z + z.join(cells[i:]), kernel.samples[i, i:]) for i, z in enumerate(nodes))
    write_csv(path, "z,s,k_value", rows)
