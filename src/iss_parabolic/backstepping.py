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
Bessel ratio for q > 0).  Synthesis iterates the equivalent integral
equation in the characteristic variables xi = 2 - z - s, eta = s - z,

    F(xi, eta) = (lam/4)(xi - eta)
                 + (lam/4) int_eta^xi int_0^eta F(xi', eta') d eta' d xi',

to the quadrature's own fixed point, starting from the truncated series
above in those variables, (lam/2)(xi - eta) S(lam xi eta).  The start sets
only the iteration count: any start reaches the same fixed point, so a
quadrature defect moves the result off the series whatever the start, and
the series (``kernel_series_reference``) measures the fixed point's
distance from the continuous kernel.  A second, dynamic check,
``transform_commutation_residual`` (the transformed loop must satisfy the
heat residual at the scheme's order), is run by the acceptance tests and
the ``closed_loop_fine`` benchmark; no scenario kind runs it.
The double integral is cumulative Simpson quadrature, equal bit for bit to
scipy's ``cumulative_simpson`` in each direction.  Synthesis sweeps only a
staircase of the 2n x n characteristic rectangle of an n-node grid, about
three quarters of it, around the sample triangle and closed under every
Simpson stencil, so each iterate there has the bits of the whole-rectangle
iterate.  These arrays outgrow a core's cache, so synthesis and the
commutation residual walk them in blocks of rows of about
``grid.BLOCK_BYTES`` per buffer; blocking changes only the order in which
memory is visited, never the roundings or the sequence of a running sum, so
every result keeps the bits of the whole-array computation.

Each kernel carries its upper-triangular quadrature operator M
(``VolterraKernel.matrix``, row-wise trapezoid weights times the samples),
built once; an image (I + M) y of a batch of fields is one BLAS ``dtrmm``
on the triangle (``_image``).  A closed loop's image is a history as large
as the plant's, so it is formed only when read, one ``dtrmm`` per aligned
block of n_nodes time levels (``ClosedLoopRun``): a block as large as the
operator it applies, so each call reads the triangle once for as many
levels as it has rows, and the commutation residual holds one block and
two carried levels, never the whole image.  ``dtrmm`` may round a level
differently in a batch of another size, so the history and the residual
use the same blocks and agree bit for bit.  The inverse transform
y = x + int_z^1 l(z, s) x(t, s) ds is the exact inverse of the direct
operator, one LAPACK ``dtrtri``, so a round trip reproduces fields to
rounding; its samples agree with the continuous inverse kernel (the series
with lam -> -lam) up to quadrature order.
Both routines come from scipy's compiled ``_fblas`` and ``_flapack``,
loaded by ``_lapack`` without ``scipy.linalg``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._lapack import dtrmm, dtrtri
from .certify import ExpIssConstants, ISSReport, evaluate_bound
from .comparison import ExpLinearKL, LinearGain
from .errors import IncompatibleDataError, InvalidParameterError, NumericalError, SynthesisError
from .grid import BLOCK_BYTES, Field, Grid1D, Trajectory, _frozen, write_csv
from .norms import check_exponent, lp_norms
from .solver import COMPATIBILITY_TOL, BoundarySignal, _march, check_diffusion, linear_reaction, pde_residual_sup

KERNEL_ITERATION_TOL = 1e-10
# The stop rule's floor in units of eps max |F| on the swept staircase: a large kernel's change stalls at its rounding.
KERNEL_ITERATION_ULPS = 16.0
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
        if samples.any(where=np.tri(*samples.shape, k=-1, dtype=bool)):
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
    np.fill_diagonal(w, h / 2.0)
    w[:, -1] = h / 2.0
    w[-1, -1] = 0.0  # degenerate interval [1, 1]
    return w


def _series_coefficients(q_max: float) -> list[float]:
    """The coefficients c_m = 1 / (2 4^m m! (m+1)!) of S for m = 0..M, for inputs with max |q| = q_max.

    M is the first m whose term c_m q_max^m is below 1e-18, 119 at most.
    The term follows the recurrence t_m = t_(m-1) q_max / (4 m (m+1)) in
    Python floats, which overflow to inf rather than raise, so no q with
    |q| <= q_max has a larger term.  A non-finite q_max takes all 120.
    """
    coefficients, term = [0.5], 0.5
    for m in range(1, 120):
        coefficients.append(coefficients[-1] / (4.0 * m * (m + 1)))
        term = term * q_max / (4.0 * m * (m + 1))
        if term < 1e-18:
            break
    return coefficients


def _series_shape(q: np.ndarray, coefficients: list[float], out: np.ndarray | None = None) -> np.ndarray:
    """S(q) = sum_m c_m q^m, entire in q, by Horner's rule over ``coefficients`` (``_series_coefficients``).

    Into ``out`` if given, else a new array.  Each entry depends only on its
    q and the coefficients, so a block of a larger array has the whole
    array's bits when the coefficients come from the whole array's max |q|.
    """
    out = np.empty(np.shape(q)) if out is None else out
    out[...] = coefficients[-1]
    for c in reversed(coefficients[:-1]):
        out *= q
        out += c
    return out


def kernel_ratio(a: float, k_reaction: float) -> float:
    """lam = k_reaction / a; refuses an a that ``solver.check_diffusion`` refuses and a non-finite k_reaction or lam."""
    check_diffusion(a)
    lam = float(k_reaction) / float(a)
    if not math.isfinite(lam):
        raise InvalidParameterError(f"kernel ratio k_reaction / a must be finite, got {k_reaction} / {a}")
    return lam


def kernel_series_reference(a: float, k_reaction: float, grid: Grid1D) -> np.ndarray:
    """Closed-form kernel samples: the continuous kernel the solver's fixed point is measured against.

    Evaluates lam (1 - s) S(lam [(1-z)^2 - (1-s)^2]) on the grid triangle
    s >= z only, zero below it.  The term count is fixed by the largest |q|
    (``_series_coefficients``); the triangle reaches |q| = |lam| at
    (z, s) = (0, 1) as the full square does at (1, 0), so the series runs as
    many terms and every sample has the bits a full-square evaluation gives.
    Passing ``-k_reaction`` yields the continuous inverse kernel.
    """
    lam = kernel_ratio(a, k_reaction)
    rest = 1.0 - grid.nodes
    sq = rest**2
    z_idx, s_idx = np.triu_indices(grid.n_nodes)
    q = lam * (sq[z_idx] - sq[s_idx])
    samples = np.zeros((grid.n_nodes, grid.n_nodes))
    samples[z_idx, s_idx] = (lam * rest)[s_idx] * _series_shape(q, _series_coefficients(float(np.max(np.abs(q)))))
    return samples


def _simpson_panels(y: np.ndarray, h: float, axis: int, out: np.ndarray) -> None:
    """Simpson sub-integrals of 2-D ``y`` along ``axis``, into ``out[1:]`` along it.

    out[j] is scipy's ``cumulative_simpson`` sub-integral over [y_j-1, y_j] in
    its order of operations, h/3 ((5 f1/4 + 2 f2) - f3/4) with (f1, f2, f3) =
    (y_j-1, y_j, y_j+1) for odd j and (y_j, y_j-1, y_j-2) for even j.  So for
    at least 3 points, a cumulative sum from out[0] = 0.0 is
    ``cumulative_simpson(y, dx=h, axis=axis, initial=0.0)`` bit for bit.
    out[0] is left to the caller.
    """
    if axis == 0:
        y, out = y.T, out.T
    n = y.shape[-1]
    p = (n - 1) // 2
    ym, y0, yp = y[..., 0 : 2 * p - 1 : 2], y[..., 1 : 2 * p : 2], y[..., 2 : 2 * p + 1 : 2]
    two = 2.0 * y0
    for j, f1, f3 in ((1, ym, yp), (2, yp, ym)):  # panels [j-1, j] and [j, j+1] of the triple at each odd j
        panel = f1 * 5.0
        panel *= 0.25  # the rounding of / 4.0
        panel += two
        panel -= f3 * 0.25
        panel *= h / 3.0
        out[..., j : 2 * p + j - 1 : 2] = panel
    if n % 2 == 0:
        out[..., -1] = (((y[..., -1] * 5.0) * 0.25 + 2.0 * y[..., -2]) - y[..., -3] * 0.25) * (h / 3.0)


def _staircase_widths(n_interior: int) -> np.ndarray:
    """w_r for each xi row r of the characteristic rectangle: the columns c < w_r that ``solve_kernel`` sweeps."""
    corner = 2 * (n_interior + 1)
    return np.minimum(n_interior + 2, (corner + 2 - np.arange(corner + 1)) // 2 * 2 + 1)


def solve_kernel(a: float, k_reaction: float, grid: Grid1D) -> VolterraKernel:
    """Synthesize the direct kernel by successive approximation from the series.

    Iterates the characteristic-variable integral equation in the rectangle
    xi in [0, 2], eta in [0, 1] (the equation extends smoothly beyond the
    physical triangle, which keeps the quadrature stencils away from kinks),
    with cumulative Simpson quadrature for the double integral, on the
    staircase S where xi row r keeps the columns c < w_r
    (``_staircase_widths``).  Each row of S that is not full and each column
    has an odd count, so every Simpson triple of a kept row or column lies in
    S with no end panel; S holds the samples (z, s) -> (2 - z - s, s - z) and
    every D(c, c).  So each iterate on S has the bits of the whole-rectangle
    iterate, and the far corner xi + eta > 2, which converges last, does not
    set the count.  The iteration starts from the series in characteristic
    variables, F0 = (lam/2)(xi - eta) S(lam xi eta) (so F0(xi, 0) is the base
    term (lam/4) xi), which lies within ~1e-11 of the quadrature's fixed
    point at n = 999: one sweep there, a few at n <= 199, against 10-13 from
    the base term.  F0 is formed a row block at a time into F by Horner's
    rule with the whole rectangle's term count, so each block has the bits
    of the whole-rectangle evaluation.  Iteration stops when the
    sup-difference of successive iterates on S drops below
    ``KERNEL_ITERATION_TOL`` or below ``KERNEL_ITERATION_ULPS`` eps max |F|
    (F the new iterate on S), so the result is the fixed point to the stop
    rule, as from any start.  Raises ``SynthesisError`` at the first
    non-finite change, naming its iteration (the first when the series start
    overflows), or after ``KERNEL_ITERATION_CAP`` iterations.

    Each iteration is one sweep over blocks of xi rows, each buffer about
    ``BLOCK_BYTES`` and never more rows than the rectangle, so the work stays
    in cache; a block runs over the width of its first (widest) row.  A
    block's rows are integrated in eta (``_simpson_panels``, then a
    cumulative sum along each row), then in xi into D = int_0^xi int_0^eta F
    by a running sum down the block, one contiguous row add per row, from
    the previous block's last row of D.  That is scipy's
    ``cumulative_simpson`` applied twice, bit for bit: every sub-integral
    has its roundings and every running sum adds in the same sequence.  A
    second loop over the same blocks forms the next iterate base + lam/4 (D
    - diag D), 0.0 in the columns a row does not keep, its sup change and
    its sup.  Rectangles are allocated once.
    """
    lam = kernel_ratio(a, k_reaction)
    h = grid.h
    n_eta = grid.n_nodes
    corner = 2 * (grid.n_interior + 1)
    n_xi = corner + 1
    xi = np.arange(n_xi) * h
    eta = np.arange(n_eta) * h
    base = (lam / 4.0) * (xi[:, None] - eta[None, :])
    F = np.empty_like(base)
    new = np.empty_like(F)
    # n_xi is odd, so an even number of rows per block starts every block at
    # an odd xi row and its panels pair up as they do over the whole column.
    rows = min(max(2, BLOCK_BYTES // F[0].nbytes // 2 * 2), n_xi - 1)
    inner = np.empty((rows + 1, n_eta))
    # Block (r0, r1, s0, w): D rows [r0, r1) from F rows [s0, r1), s0 = 0 in the first block and r0 after, over the
    # width w of row r0; `outside` indexes the block's columns c < w that its rows do not keep, 0.0 in every iterate.
    widths = _staircase_widths(grid.n_interior)
    blocks = []
    # |q| = |lam xi eta| peaks at the far corner, so these are the whole rectangle's coefficients.
    coefficients = _series_coefficients(abs(lam * float(xi[-1])) * float(eta[-1]))
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness test below owns this verdict
        for r0 in range(1, n_xi, rows):
            r1, s0, w = min(r0 + rows, n_xi), (r0 if r0 > 1 else 0), widths[r0]
            outside = np.nonzero(np.arange(w) >= widths[s0:r1, None])
            # The start (lam/2)(xi - eta) S(lam xi eta) = 2 base S, the series in characteristic variables.
            q = np.multiply(lam * xi[s0:r1, None], eta[:w], out=inner[: r1 - s0, :w])
            start = _series_shape(q, coefficients, out=F[s0:r1, :w])
            start *= base[s0:r1, :w]
            start *= 2.0
            start[outside] = 0.0
            blocks.append((r0, r1, s0, w, outside))
        for iteration in range(1, KERNEL_ITERATION_CAP + 1):
            # D into `new`; inner[0] and new[r0 - 1] carry the previous block's last eta integral and last row of D.
            new[0] = 0.0
            for r0, r1, s0, w, _ in blocks:
                block = inner[: r1 - r0 + 1, :w]
                fresh = block[s0 - r0 + 1 :]
                _simpson_panels(F[s0:r1, :w], h, 1, fresh)
                fresh[:, 0] = 0.0
                np.cumsum(fresh, axis=1, out=fresh)
                d = new[r0 - 1 : r1, :w]
                _simpson_panels(block, h, 0, d)
                for prev, row in zip(d, d[1:]):  # one contiguous add per row; cumsum(axis=0) is a strided scalar loop
                    np.add(prev, row, out=row)
                inner[0, :w] = block[-1]
            # int_eta^xi int_0^eta F = D(xi, eta) - D(eta, eta)
            diag_d = new.diagonal().copy()
            peaks, sizes = [], []
            for r0, r1, s0, w, outside in blocks:
                d = new[s0:r1, :w]
                d -= diag_d[:w]
                d *= lam / 4.0
                d += base[s0:r1, :w]
                d[outside] = 0.0
                diff = np.subtract(d, F[s0:r1, :w], out=inner[: len(d), :w])
                peaks.append(np.abs(diff, out=diff).max())
                sizes.append(np.abs(d, out=diff).max())
            change = float(np.max(peaks))
            if not math.isfinite(change):
                raise SynthesisError(f"kernel iteration {iteration} produced non-finite values")
            F, new = new, F
            if change < max(KERNEL_ITERATION_TOL, KERNEL_ITERATION_ULPS * np.finfo(float).eps * max(sizes)):
                break
        else:
            raise SynthesisError(f"kernel iteration did not converge within {KERNEL_ITERATION_CAP} iterations "
                                 f"(last change {change:.3e})")
    # k(z_i, s_j) = F(2 - z_i - s_j, s_j - z_i): row i runs up an anti-diagonal of F
    samples = np.zeros((n_eta, n_eta))
    for i in range(n_eta):
        samples[i, i:] = F[corner - 2 * i :: -1].diagonal()[: n_eta - i]
    samples.setflags(write=False)
    return VolterraKernel(samples=samples, lam=lam, direction="direct", grid=grid)


def solve_inverse_kernel(direct: VolterraKernel) -> VolterraKernel:
    """Invert the discretized direct transform by one triangular inversion.

    With U the direct quadrature operator, the inverse operator
    L = (I + U)^-1 - I comes from one LAPACK ``dtrtri`` on the transpose of
    I + U, in place, so round trips are exact to rounding, not to quadrature
    order.  I + L applied to each column of I + U (``_image``) checks
    (I + L)(I + U) = I.  A zero diagonal entry of I + U, 1 + (h/2) k(z_i, z_i),
    raises ``SynthesisError`` naming the entry.
    """
    if direct.direction != "direct":
        raise InvalidParameterError("inverse synthesis expects the direct kernel")
    n = direct.grid.n_nodes
    L = np.eye(n) + direct.matrix
    _, info = dtrtri(L.T, lower=1, overwrite_c=1)  # in place on the Fortran view, lower triangular
    if info > 0:
        raise SynthesisError(f"the direct transform I + U is singular: diagonal entry {info - 1} is zero")
    L[np.diag_indices(n)] -= 1.0
    composed = _image(L, np.eye(n) + direct.matrix.T)  # ((I + L)(I + U))^T
    composed[np.diag_indices(n)] -= 1.0
    defect = float(np.max(np.abs(composed, out=composed)))
    if defect > 1e-8:
        raise SynthesisError(f"inverse kernel failed the composition check: defect {defect:.3e}")
    weights = _row_trapezoid_weights(n, direct.grid.h)
    samples = np.divide(L, weights, out=np.zeros_like(L), where=weights > 0.0)
    samples.setflags(write=False)
    return VolterraKernel(samples=samples, lam=-direct.lam, direction="inverse", grid=direct.grid)


def _image(matrix: np.ndarray, fields: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(I + M) y per row y of ``fields``, M upper triangular: one in-place ``dtrmm`` on Fortran views, no f2py copy.

    The image goes into ``out``, C-contiguous and of the shape of ``fields``, or a new array.
    """
    x = np.empty(np.shape(fields)) if out is None else out
    x[...] = fields
    dtrmm(1.0, matrix.T, x.reshape(-1, x.shape[-1]).T, lower=1, trans_a=1, overwrite_b=1)
    return np.add(x, fields, out=x)


def apply_transform(kernel: VolterraKernel, y: Field) -> Field:
    """x(z_i) = y(z_i) + trapezoid of k(z_i, .) y over [z_i, 1], row-wise."""
    if y.grid != kernel.grid:
        raise InvalidParameterError("field and kernel live on different grids")
    return Field(_image(kernel.matrix, y.values), y.grid)


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
    """Closed-loop plant trajectory; its transformed (target) image on demand.

    ``a`` is the diffusion coefficient of plant and target; ``disturbance``
    records the actuator error d(t_k); the applied control u(t_k) is
    ``y_traj.boundary_left``; ``kernel`` is the feedback kernel.  The image
    x = (I + K) y is formed only when read, one ``_image`` per aligned
    block of ``n_nodes`` time levels, the operator's size
    (``_image_blocks``).  Neither trajectory carries a problem.
    """

    a: float
    y_traj: Trajectory
    disturbance: np.ndarray
    kernel: VolterraKernel

    def _image_blocks(self, first: int = 0):
        """(r0, r1) for each aligned block of ``n_nodes`` levels, from the one holding level ``first``."""
        n, levels = self.kernel.grid.n_nodes, len(self.y_traj)
        for r0 in range(first // n * n, levels, n):
            yield r0, min(r0 + n, levels)

    @cached_property
    def x_traj(self) -> Trajectory:
        """The transformed history, the blocks' images stacked; built once, on first read."""
        y = self.y_traj
        data = np.empty_like(y.data)
        for r0, r1 in self._image_blocks():
            _image(self.kernel.matrix, y.data[r0:r1], data[r0:r1])
        data.setflags(write=False)
        return Trajectory(grid=y.grid, times=y.times, data=data)


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
    O(dt) lag.  Only the plant history is recorded; the run forms the
    transformed image when ``x_traj`` or the commutation residual reads it.
    ``kernel`` is the plant's kernel from ``solve_kernel``, its ``lam`` exactly
    ``kernel_ratio(a, k_reaction)``.  The stepper refuses dt |k_reaction| >= 1
    with ``MonotonicityLossError``.
    """
    lam = kernel_ratio(a, k_reaction)
    if y0.grid != grid:
        raise InvalidParameterError("initial state lives on a different grid")
    if kernel.grid != grid or kernel.lam != lam:
        raise InvalidParameterError("kernel does not match the requested plant")
    check_far_end(y0)
    u0 = feedback(kernel, y0, float(d(0.0)))
    if abs(y0.values[0] - u0) > COMPATIBILITY_TOL:
        raise IncompatibleDataError("initial state is incompatible with the feedback at z = 0; "
                                    "see compatible_initial_state")

    times = grid.times()
    d_values = d(times)
    data = _march(
        grid, a, linear_reaction(k_reaction), y0.values, d_values, np.zeros_like(d_values), left_row=kernel.matrix[0],
    )
    y_traj = Trajectory(grid=grid, times=times, data=data)
    return ClosedLoopRun(a=a, y_traj=y_traj, disturbance=d_values, kernel=kernel)


def transform_commutation_residual(run: ClosedLoopRun) -> float:
    """Heat-equation residual of the transformed trajectory, past burn-in.

    The initial state is value-compatible but not derivative-compatible
    with the feedback, so the first few steps carry a boundary layer that
    the L-stable stepper damps; the residual is therefore measured after
    ``BURN_FRACTION`` of the horizon.  It decreases at the scheme's order
    (dt + h^2) under refinement, validating the kernel against the dynamics
    with no reference to any kernel formula.

    The image is formed block by block (``ClosedLoopRun._image_blocks``),
    from the block that holds the burn-in start, into one buffer that
    carries the previous block's last two levels ahead of each block, so
    every central difference in time sees its neighbours and no more than
    a block and two levels of the image is held.  Each block's residual is
    ``pde_residual_sup`` on the grid's own dt and h, so the result is, bit
    for bit, ``pde_residual_sup`` over ``x_traj`` past burn-in.  A run of
    fewer than three time levels raises ``InvalidParameterError``.
    """
    y = run.y_traj
    if len(y) < 3:
        raise InvalidParameterError(f"the commutation residual needs at least three time levels for a central "
                                    f"difference in time; the run has {len(y)}")
    start = min(int(BURN_FRACTION * (len(y) - 1)), len(y) - 3)
    # window[2 + i] is level r0 + i of the block; window[:2] holds the two levels before r0.
    window = np.empty((y.grid.n_nodes + 2, y.grid.n_nodes))
    peaks = []
    for r0, r1 in run._image_blocks(start):
        _image(run.kernel.matrix, y.data[r0:r1], window[2 : 2 + r1 - r0])
        levels = window[max(0, start - r0 + 2) : 2 + r1 - r0]  # none before burn-in
        if len(levels) >= 3:
            peaks.append(pde_residual_sup(levels, y.grid.dt, y.grid.h, run.a))
        window[:2] = window[r1 - r0 : r1 - r0 + 2]
    return float(np.max(peaks))


def _schur_bound(kernel: VolterraKernel, p: float) -> float:
    """Induced-norm bound of the discrete transform operator on L^p, the row bound at p = inf.

    Discrete Schur test with unit test weights: with M the quadrature
    matrix and omega the trapezoid node weights,
        ||M|| <= (max_i sum_j |M_ij|)^(1 - 1/p) (max_j sum_i omega_i |M_ij| / omega_j)^(1/p).
    """
    check_exponent(p)
    h = kernel.grid.h
    M = np.abs(kernel.matrix)
    omega = np.full(kernel.grid.n_nodes, h)
    omega[0] = omega[-1] = h / 2.0
    row = float(M.sum(axis=1).max())
    col = float(((omega[:, None] * M).sum(axis=0) / omega).max())
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
    ny = lp_norms(fields, kernel.grid.h, p)
    nx = lp_norms(_image(kernel.matrix, fields), kernel.grid.h, p)
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
        "closed_loop_lp", y_traj.times, y_traj.lp_norms(iss.p),
        ExpLinearKL(constants.k2 / constants.k1 * iss.m, iss.sigma), LinearGain(constants.k2 * iss.gamma),
        np.maximum.accumulate(np.abs(disturbance)), tol,
    )


def write_kernel_csv(kernel: VolterraKernel, path) -> None:
    """Export kernel samples over the triangle: z,s,k_value, row by row."""
    nodes = np.array(["%.17g" % z for z in kernel.grid.nodes.tolist()])  # each node's text, formatted once
    upper = np.triu(np.ones(kernel.samples.shape, dtype=bool))

    def bands():  # a block per 16 rows of the triangle: few blocks, each small
        for i0 in range(0, len(nodes), 16):
            i, j = np.nonzero(upper[i0 : i0 + 16])
            i += i0
            yield nodes[i], nodes[j], kernel.samples[i, j]

    write_csv(path, "z,s,k_value", bands())
