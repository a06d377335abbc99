import math
import re
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dtrtri

from iss_parabolic import (
    BoundarySignal,
    ClosedLoopConstants,
    ExpIssConstants,
    Field,
    Grid1D,
    IncompatibleDataError,
    InvalidParameterError,
    NumericalError,
    SemilinearProblem,
    Trajectory,
    apply_transform,
    certify_closed_loop,
    compatible_initial_state,
    estimate_equivalence_constants,
    estimate_exp_iss_constants,
    feedback,
    kernel_series_reference,
    norm_lp,
    simulate,
    simulate_closed_loop,
    solve_inverse_kernel,
    solve_kernel,
    transform_commutation_residual,
)
from iss_parabolic.backstepping import (
    BURN_FRACTION,
    KERNEL_ITERATION_CAP,
    KERNEL_ITERATION_TOL,
    KERNEL_ITERATION_ULPS,
    VolterraKernel,
    _image,
    _random_smooth_fields,
    _row_trapezoid_weights,
    _schur_bound,
    _series_coefficients,
    _series_shape,
    _simpson_panels,
    _staircase_widths,
    write_kernel_csv,
)
from iss_parabolic.grid import BLOCK_BYTES
from iss_parabolic.norms import lp_norms
from iss_parabolic.solver import pde_residual_sup

PI2 = math.pi**2


@pytest.fixture(scope="module")
def kernel_grid():
    return Grid1D(n_interior=99, dt=2e-4, t_final=0.5)


@pytest.fixture(scope="module")
def kernel10(kernel_grid):
    return solve_kernel(1.0, 10.0, kernel_grid)


@pytest.fixture(scope="module")
def inverse10(kernel10):
    return solve_inverse_kernel(kernel10)


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestKernelSynthesis:
    def test_zero_reaction_gives_zero_kernel(self, kernel_grid):
        kernel = solve_kernel(1.0, 0.0, kernel_grid)
        assert np.all(kernel.samples == 0.0)
        y = Field(np.sin(np.pi * kernel_grid.nodes), kernel_grid)
        assert np.array_equal(apply_transform(kernel, y).values, y.values)
        assert feedback(kernel, y, 0.7) == 0.7

    def test_matches_series_reference(self, kernel_grid, kernel10):
        oracle = kernel_series_reference(1.0, 10.0, kernel_grid)
        assert np.max(np.abs(kernel10.samples - oracle)) < 1e-6

    def test_diagonal_and_edge_conditions(self, kernel_grid, kernel10):
        z = kernel_grid.nodes
        diag = np.diagonal(kernel10.samples)
        assert np.allclose(diag, 0.5 * 10.0 * (1.0 - z), atol=1e-8)
        assert np.allclose(kernel10.samples[:, -1], 0.0, atol=1e-12)

    def test_scaling_invariance(self, kernel_grid):
        scaled = solve_kernel(2.0, 20.0, kernel_grid)
        base = solve_kernel(1.0, 10.0, kernel_grid)
        assert np.allclose(scaled.samples, base.samples, atol=1e-12)

    def test_negative_reaction_supported(self, kernel_grid):
        kernel = solve_kernel(1.0, -8.0, kernel_grid)
        oracle = kernel_series_reference(1.0, -8.0, kernel_grid)
        assert np.max(np.abs(kernel.samples - oracle)) < 1e-6

    def test_operator_is_built_once_and_read_only(self, kernel_grid, kernel10):
        assert kernel10.matrix is kernel10.matrix
        assert not kernel10.matrix.flags.writeable
        assert np.all(np.tril(kernel10.matrix, -1) == 0.0)

    def test_construction_copies_only_a_writeable_caller_array(self):
        grid = Grid1D(n_interior=499, dt=2e-4, t_final=0.5)
        samples = np.triu(np.random.default_rng(0).standard_normal((grid.n_nodes, grid.n_nodes)))
        kernel, peak = _traced_peak(lambda: VolterraKernel(samples, 1.0, "direct", grid))
        assert peak < 1.5 * samples.nbytes
        before = kernel.samples[0, 0]
        samples[0, 0] += 1.0
        assert kernel.samples[0, 0] == before
        samples.setflags(write=False)
        assert VolterraKernel(samples, 1.0, "direct", grid).samples is samples

    def test_nonzero_below_diagonal_rejected(self, kernel_grid):
        samples = np.zeros((kernel_grid.n_nodes, kernel_grid.n_nodes))
        samples[5, 4] = 1e-300
        with pytest.raises(InvalidParameterError):
            VolterraKernel(samples, 1.0, "direct", kernel_grid)

    def test_csv_export_covers_triangle(self, tmp_path, kernel_grid, kernel10):
        path = tmp_path / "kernel.csv"
        write_kernel_csv(kernel10, path)
        lines = path.read_text().splitlines()
        n = kernel_grid.n_nodes
        assert lines[0] == "z,s,k_value"
        assert len(lines) == 1 + n * (n + 1) // 2


@pytest.mark.parametrize("n", list(range(3, 13)) + [1001, 2001])
@pytest.mark.parametrize("axis", [0, 1])
def test_cumulative_simpson_matches_scipy_bitwise(n, axis):
    rng = np.random.default_rng(n)
    y = rng.standard_normal((n, 5))
    y.flat[rng.choice(y.size, 4, replace=False)] = [0.0, -0.0, 1e300, -1e300]
    if axis == 1:
        y = np.ascontiguousarray(y.T)
    h = 1.0 / (n - 1)
    expected = cumulative_simpson(y, dx=h, axis=axis, initial=0.0)
    out = np.full_like(y, 7.0)
    _simpson_panels(y, h, axis, out)
    first = np.moveaxis(out, axis, 0)[0]
    assert np.all(first == 7.0)  # left for the caller to seed
    first[...] = 0.0
    actual = np.cumsum(out, axis=axis)
    assert np.all(np.isfinite(expected))
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def _reference_solve_kernel(a, k_reaction, grid, cold=False):
    """Picard iteration on the characteristic rectangle with scipy's quadrature.

    It starts from the series (lam/2)(xi - eta) S(lam xi eta), its term count fixed by the rectangle's max |q|,
    or with ``cold`` from the base term (lam/4)(xi - eta).
    """
    lam = k_reaction / a
    h = grid.h
    n_eta = grid.n_nodes
    n_xi = 2 * (grid.n_interior + 1) + 1
    xi = np.arange(n_xi) * h
    eta = np.arange(n_eta) * h
    base = (lam / 4.0) * (xi[:, None] - eta[None, :])
    F = base.copy()
    if not cold:
        q = (lam * xi[:, None]) * eta[None, :]
        F = (lam / 2.0) * (xi[:, None] - eta[None, :]) * _series_shape(q, _series_coefficients(np.max(np.abs(q))))
    diag = np.arange(n_eta)
    kept = diag[None, :] < _staircase_widths(grid.n_interior)[:, None]  # the stop rule reads the staircase only
    for _ in range(KERNEL_ITERATION_CAP):
        inner = cumulative_simpson(F, dx=h, axis=1, initial=0.0)
        outer = cumulative_simpson(inner, dx=h, axis=0, initial=0.0)
        new = base + (lam / 4.0) * (outer - outer[diag, diag][None, :])
        change = float(np.max(np.abs(new - F)[kept]))
        F = new
        if change < max(KERNEL_ITERATION_TOL, KERNEL_ITERATION_ULPS * np.finfo(float).eps * np.max(np.abs(F[kept]))):
            break
    else:
        raise AssertionError("reference kernel iteration did not converge")
    samples = np.zeros((n_eta, n_eta))
    ii, jj = np.meshgrid(diag, diag, indexing="ij")
    mask = jj >= ii
    samples[mask] = F[2 * (grid.n_interior + 1) - ii[mask] - jj[mask], jj[mask] - ii[mask]]
    return samples


# 41 and 42 nodes fit one row block; 201 and 202 nodes take several, the last
# one partial at 202 nodes.
@pytest.mark.parametrize(
    "n_interior", [39, 40, 199, 200], ids=["odd_nodes", "even_nodes", "odd_nodes_n199", "even_nodes_n200"]
)
@pytest.mark.parametrize("k_reaction", [10.0, 25.0, -8.0, 0.0])
def test_solve_kernel_matches_reference_iteration_bitwise(n_interior, k_reaction):
    grid = Grid1D(n_interior=n_interior, dt=2e-4, t_final=0.1)
    actual = solve_kernel(1.0, k_reaction, grid).samples
    reference = _reference_solve_kernel(1.0, k_reaction, grid)
    assert np.array_equal(actual, reference)
    assert np.array_equal(np.signbit(actual), np.signbit(reference))


@pytest.mark.parametrize(
    "n_interior", [39, 40, 199, 200], ids=["odd_nodes", "even_nodes", "odd_nodes_n199", "even_nodes_n200"]
)
@pytest.mark.parametrize("k_reaction", [10.0, 25.0, -8.0])
def test_series_start_changes_the_iteration_count_not_the_kernel(n_interior, k_reaction):
    # Both starts end within the stop rule of the quadrature's fixed point: at most 8.1e-12 apart over these cases.
    grid = Grid1D(n_interior=n_interior, dt=2e-4, t_final=0.1)
    warm = solve_kernel(1.0, k_reaction, grid).samples
    cold = _reference_solve_kernel(1.0, k_reaction, grid, cold=True)
    assert np.max(np.abs(warm - cold)) <= KERNEL_ITERATION_TOL


@pytest.mark.parametrize("n_interior", [99, 199])
def test_series_start_cannot_mask_a_quadrature_defect(n_interior, monkeypatch):
    # Simpson panels on a step 1e-5 too long move the fixed point 2.047e-4 from the series, far past the oracle's
    # 1e-6 gate.  The iteration converges to that fixed point from either start, so the series start cannot hide
    # the defect; one coefficient makes S = 1/2 and the start the base term.
    from iss_parabolic import backstepping

    grid = Grid1D(n_interior=n_interior, dt=2e-4, t_final=0.1)
    oracle = kernel_series_reference(1.0, 14.0, grid)
    panels = backstepping._simpson_panels
    monkeypatch.setattr(backstepping, "_simpson_panels",
                        lambda y, h, axis, out: panels(y, h * (1.0 + 1e-5), axis, out))
    warm = np.max(np.abs(solve_kernel(1.0, 14.0, grid).samples - oracle))
    monkeypatch.setattr(backstepping, "_series_coefficients", lambda q_max: [0.5])
    cold = np.max(np.abs(solve_kernel(1.0, 14.0, grid).samples - oracle))
    assert warm == pytest.approx(2.047e-4, rel=1e-3)
    assert abs(warm - cold) <= KERNEL_ITERATION_TOL


def test_first_change_reads_only_the_staircase(monkeypatch):
    # At k = 1e-6 the first change on the staircase is 5.3e-23, below KERNEL_ITERATION_TOL, while the series start
    # reaches 4.5e-7 in the columns the sweep runs over but does not keep: the stop rule must not see them, so the
    # first sweep stops.  (The second change is 0.0, so only the cap shows a second sweep.)
    from iss_parabolic import backstepping

    monkeypatch.setattr(backstepping, "KERNEL_ITERATION_CAP", 1)
    grid = Grid1D(n_interior=15, dt=1e-3, t_final=0.01)
    actual = solve_kernel(1.0, 1e-6, grid).samples
    assert np.array_equal(actual, _reference_solve_kernel(1.0, 1e-6, grid))


@pytest.mark.parametrize("n_interior", [3, 4, 15, 40, 99, 200])
def test_staircase_closes_every_simpson_stencil_and_holds_the_samples(n_interior):
    widths = _staircase_widths(n_interior)
    n_eta = n_interior + 2
    n_xi = 2 * n_eta - 1
    assert widths.shape == (n_xi,) and widths[0] == n_eta
    kept = np.arange(n_eta)[None, :] < widths[:, None]
    # k(z_i, s_j) = F(2 - z_i - s_j, s_j - z_i) and the diagonal D(c, c)
    i, j = np.triu_indices(n_eta)
    assert kept[n_xi - 1 - i - j, j - i].all()
    assert kept.diagonal().all()
    # An odd count puts every cumulative-Simpson triple inside the row or column, with no end panel.
    assert np.all((widths == n_eta) | (widths % 2 == 1))
    heights = kept.sum(axis=0)
    assert np.all(heights % 2 == 1)
    assert np.all(np.diff(widths) <= 0)  # so column c keeps exactly the rows r < heights[c]
    assert np.array_equal(kept, np.arange(n_xi)[:, None] < heights[None, :])
    assert np.array_equal(heights, np.minimum(n_xi, n_xi + 2 - 2 * ((np.arange(n_eta) + 1) // 2)))
    if n_interior == 99:
        assert kept.mean() <= 0.78


@pytest.mark.parametrize("n_interior", [39, 40], ids=["odd_nodes", "even_nodes"])
@pytest.mark.parametrize("k_reaction", [10.0, -8.0, 0.0])
def test_series_reference_matches_full_square_bitwise(n_interior, k_reaction):
    # The full square's stop rule sees max |q| = |lam| at (z, s) = (1, 0) as the triangle does at (0, 1).
    grid = Grid1D(n_interior=n_interior, dt=2e-4, t_final=0.1)
    zz, ss = np.meshgrid(grid.nodes, grid.nodes, indexing="ij")
    lam = k_reaction / 1.0
    q = lam * ((1.0 - zz) ** 2 - (1.0 - ss) ** 2)
    expected = np.triu(lam * (1.0 - ss) * _series_shape(q, _series_coefficients(np.max(np.abs(q)))))
    actual = kernel_series_reference(1.0, k_reaction, grid)
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


class TestInverseKernel:
    def test_zero_kernel_inverts_to_zero(self, kernel_grid):
        inverse = solve_inverse_kernel(solve_kernel(1.0, 0.0, kernel_grid))
        assert np.all(inverse.samples == 0.0)

    def test_round_trip_on_random_fields(self, kernel_grid, kernel10, inverse10):
        rng = np.random.default_rng(3)
        for vals in _random_smooth_fields(kernel_grid, 20, rng):
            y = Field(vals, kernel_grid)
            back = apply_transform(inverse10, apply_transform(kernel10, y))
            assert np.max(np.abs(back.values - y.values)) < 1e-8

    def test_samples_match_series_up_to_quadrature(self, kernel_grid, inverse10):
        # the continuous inverse kernel is the series with the reaction sign
        # flipped; discrete-inverse samples agree to quadrature order away
        # from the diagonal band, where they absorb endpoint-weight effects
        oracle = kernel_series_reference(1.0, -10.0, kernel_grid)
        off_band = np.triu(np.ones_like(oracle, dtype=bool), k=2)
        assert np.max(np.abs((inverse10.samples - oracle)[off_band])) < 5e-3

    def test_direction_enforced(self, inverse10):
        with pytest.raises(InvalidParameterError):
            solve_inverse_kernel(inverse10)

    def test_iteration_cap_raises(self, kernel_grid, monkeypatch):
        from iss_parabolic import SynthesisError, backstepping

        monkeypatch.setattr(backstepping, "KERNEL_ITERATION_CAP", 2)
        with pytest.raises(SynthesisError):
            solve_kernel(1.0, 10.0, kernel_grid)

    def test_large_kernel_stops_on_its_rounding_floor(self, monkeypatch):
        # At k = 200 max |F| on the staircase is 7.7e5 and the floor KERNEL_ITERATION_ULPS eps max |F| ~ 2.7e-9
        # stops the iteration at 24 (change 2.0e-9), under a cap that the absolute rule alone exceeds: the change
        # first meets KERNEL_ITERATION_TOL at 26 (8.0e-11) and stalls at its rounding, 1.16e-10 to 1.9e-10, over
        # 27-36.  From the base term the floor stops it at 27 and the absolute rule at 33.
        from iss_parabolic import backstepping

        grid = Grid1D(n_interior=15, dt=1e-3, t_final=0.01)
        monkeypatch.setattr(backstepping, "KERNEL_ITERATION_CAP", 25)
        kernel = solve_kernel(1.0, 200.0, grid)
        assert np.array_equal(kernel.samples, _reference_solve_kernel(1.0, 200.0, grid))

    # S(q) grows like exp(sqrt(q)), so at both ratios the series start is already past the largest double.
    @pytest.mark.parametrize("k_reaction, iteration", [(1e200, 1), (1e20, 1)])
    def test_overflow_raises_at_its_iteration_without_warning(self, k_reaction, iteration):
        from iss_parabolic import SynthesisError

        grid = Grid1D(n_interior=15, dt=1e-3, t_final=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SynthesisError, match=rf"^kernel iteration {iteration} produced non-finite values$"):
                solve_kernel(1.0, k_reaction, grid)

    def test_singular_transform_raises_naming_the_zero_diagonal(self):
        from iss_parabolic import SynthesisError

        # a = 1, k = -64, h = 1/16: diag(I + U)[0] = 1 + (h/2) k(0, 0) = 1 - (1/32)(64/2) is exactly 0.
        kernel = solve_kernel(1.0, -64.0, Grid1D(n_interior=15, dt=1e-3, t_final=0.01))
        assert kernel.matrix[0, 0] == -1.0
        with pytest.raises(SynthesisError, match=re.escape("I + U is singular: diagonal entry 0 is zero")):
            solve_inverse_kernel(kernel)

    @pytest.mark.parametrize("k_reaction", [10.0, 25.0, -8.0])
    def test_composition_is_exact(self, kernel_grid, k_reaction):
        kernel = solve_kernel(1.0, k_reaction, kernel_grid)
        inverse = solve_inverse_kernel(kernel)
        eye = np.eye(kernel_grid.n_nodes)
        defect = (eye + inverse.matrix) @ (eye + kernel.matrix) - eye
        assert np.max(np.abs(defect)) <= 1e-13


class TestTransform:
    def test_zero_field_maps_to_zero(self, kernel_grid, kernel10):
        out = apply_transform(kernel10, Field.zeros(kernel_grid))
        assert np.all(out.values == 0.0)

    def test_linearity(self, kernel_grid, kernel10):
        rng = np.random.default_rng(11)
        f1, f2 = _random_smooth_fields(kernel_grid, 2, rng)
        a, b = 1.7, -0.4
        lhs = apply_transform(kernel10, Field(a * f1 + b * f2, kernel_grid)).values
        rhs = a * apply_transform(kernel10, Field(f1, kernel_grid)).values + b * apply_transform(
            kernel10, Field(f2, kernel_grid)
        ).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_feedback_trivial_cases(self, kernel_grid, kernel10):
        assert feedback(kernel10, Field.zeros(kernel_grid), -1.3) == -1.3


class TestClosedLoop:
    def test_zero_state_zero_disturbance_stays_zero(self, kernel_grid, kernel10):
        run = simulate_closed_loop(
            1.0, 10.0, Field.zeros(kernel_grid), BoundarySignal.zero(), kernel_grid, kernel=kernel10
        )
        assert np.all(run.y_traj.data == 0.0)
        assert np.all(run.x_traj.data == 0.0)

    def test_incompatible_initial_state_rejected(self, kernel_grid, kernel10):
        bad = Field(np.sin(np.pi * kernel_grid.nodes), kernel_grid)
        with pytest.raises(IncompatibleDataError):
            simulate_closed_loop(1.0, 10.0, bad, BoundarySignal.zero(), kernel_grid, kernel=kernel10)

    @pytest.mark.parametrize("far_end", [1e-10, 1e-8])
    def test_far_end_has_one_verdict(self, kernel_grid, kernel10, far_end):
        # k(0, 1) = 0, so moving the far-end value keeps the feedback condition at z = 0.
        def accepts(call, values):
            try:
                call(Field(values, kernel_grid))
            except IncompatibleDataError:
                return False
            return True

        base = np.sin(np.pi * kernel_grid.nodes)
        y0 = compatible_initial_state(kernel10, Field(base, kernel_grid)).values.copy()
        base[-1] = y0[-1] = far_end
        loop = lambda y: simulate_closed_loop(1.0, 10.0, y, BoundarySignal.zero(), kernel_grid, kernel=kernel10)
        assert accepts(partial(compatible_initial_state, kernel10), base) == accepts(loop, y0) == (far_end < 1e-9)

    @pytest.mark.parametrize("a, k_reaction", [(0.0, 10.0), (-1.0, -10.0)])
    def test_nonpositive_diffusion_rejected(self, kernel_grid, kernel10, a, k_reaction):
        # (-1, -10) has kernel10's ratio k_reaction / a, so only the sign of a is wrong
        zero = Field.zeros(kernel_grid)
        with pytest.raises(InvalidParameterError):
            simulate_closed_loop(a, k_reaction, zero, BoundarySignal.zero(), kernel_grid, kernel=kernel10)

    def test_open_loop_unstable_closed_loop_stabilized(self):
        grid = Grid1D(n_interior=99, dt=2e-4, t_final=0.5)
        k_reaction = 15.0
        open_problem = SemilinearProblem(
            a=1.0,
            initial=Field(np.sin(np.pi * grid.nodes), grid),
            boundary_left=BoundarySignal.zero(),
            boundary_right=BoundarySignal.zero(),
            reaction=lambda z, w, g: k_reaction * w,
            lipschitz_k=k_reaction,
        )
        open_norms = lp_norms(simulate(open_problem, grid).data, grid.h, 2.0)
        assert open_norms[-1] / open_norms[0] > 10.0

        kernel = solve_kernel(1.0, k_reaction, grid)
        y0 = compatible_initial_state(kernel, Field(np.sin(np.pi * grid.nodes), grid))
        run = simulate_closed_loop(1.0, k_reaction, y0, BoundarySignal.zero(), grid, kernel=kernel)
        norms = lp_norms(run.y_traj.data, grid.h, 2.0)
        keep = run.y_traj.times >= 0.1
        fitted = -np.polyfit(run.y_traj.times[keep], np.log(norms[keep]), 1)[0]
        assert fitted == pytest.approx(PI2, rel=0.05)

    def test_transformed_boundary_tracks_disturbance(self, kernel_grid, kernel10):
        times = kernel_grid.times()
        d = BoundarySignal.sampled(times, 0.3 * np.sin(4.0 * times))
        base = Field(0.5 * np.sin(np.pi * kernel_grid.nodes), kernel_grid)
        y0 = compatible_initial_state(kernel10, base, d0=float(d(0.0)))
        run = simulate_closed_loop(1.0, 10.0, y0, d, kernel_grid, kernel=kernel10)
        defect = np.max(np.abs(run.x_traj.boundary_left - run.disturbance))
        assert defect < 50.0 * kernel_grid.dt

        half = Grid1D(kernel_grid.n_interior, kernel_grid.dt / 2, kernel_grid.t_final)
        d_half = BoundarySignal.sampled(half.times(), 0.3 * np.sin(4.0 * half.times()))
        kernel_half = solve_kernel(1.0, 10.0, half)
        y0_half = compatible_initial_state(kernel_half, Field(base.values, half), d0=float(d_half(0.0)))
        run_half = simulate_closed_loop(1.0, 10.0, y0_half, d_half, half, kernel=kernel_half)
        defect_half = np.max(np.abs(run_half.x_traj.boundary_left - run_half.disturbance))
        assert defect / defect_half > 1.7  # first order in dt

    def test_commutation_residual_converges_second_order(self):
        residuals = []
        for n, dt in ((49, 4e-4), (99, 1e-4)):
            grid = Grid1D(n_interior=n, dt=dt, t_final=0.5)
            kernel = solve_kernel(1.0, 10.0, grid)
            y0 = compatible_initial_state(
                kernel, Field(np.sin(np.pi * grid.nodes), grid)
            )
            run = simulate_closed_loop(1.0, 10.0, y0, BoundarySignal.zero(), grid, kernel=kernel)
            residuals.append(transform_commutation_residual(run))
        order = math.log2(residuals[0] / residuals[1])
        assert order >= 1.8

    def test_commutation_residual_matches_full_array_formula(self, kernel_grid):
        a, k_reaction = 0.5, 5.0
        kernel = solve_kernel(a, k_reaction, kernel_grid)
        y0 = compatible_initial_state(kernel, Field(np.sin(np.pi * kernel_grid.nodes), kernel_grid))
        run = simulate_closed_loop(a, k_reaction, y0, BoundarySignal.zero(), kernel_grid, kernel=kernel)
        x = run.x_traj
        start = int(BURN_FRACTION * (len(x) - 1))
        data, dt, h = x.data[start:], kernel_grid.dt, kernel_grid.h
        assert len(data) - 2 > 3 * (BLOCK_BYTES // data[0].nbytes)  # several row blocks, the last partial
        x_t = (data[2:] - data[:-2]) / (2.0 * dt)
        x_zz = (data[1:-1, :-2] - 2.0 * data[1:-1, 1:-1] + data[1:-1, 2:]) / h**2
        assert transform_commutation_residual(run) == float(np.abs(x_t[:, 1:-1] - a * x_zz).max())

    # Blocks of 17 levels: the burn-in start is the second to last level of its block at t_final 0.3 (too few
    # levels there for a residual), the last at 0.32, the first at 0.34 and the second at 0.36; 0.002 gives the
    # fewest levels the residual takes, three.
    @pytest.mark.parametrize("t_final", [0.002, 0.3, 0.32, 0.34, 0.36])
    def test_commutation_residual_is_pde_residual_of_the_image_past_burn_in(self, t_final):
        grid = Grid1D(n_interior=15, dt=1e-3, t_final=t_final)
        kernel = solve_kernel(0.5, 5.0, grid)
        y0 = compatible_initial_state(kernel, Field(np.sin(np.pi * grid.nodes), grid))
        run = simulate_closed_loop(0.5, 5.0, y0, BoundarySignal.zero(), grid, kernel=kernel)
        x = run.x_traj
        start = min(int(BURN_FRACTION * (len(x) - 1)), len(x) - 3)
        assert transform_commutation_residual(run) == pde_residual_sup(x.data[start:], grid.dt, grid.h, 0.5)

    def test_commutation_residual_refuses_fewer_than_three_levels(self):
        grid = Grid1D(n_interior=15, dt=1e-3, t_final=1e-3)
        kernel = solve_kernel(1.0, 10.0, grid)
        run = simulate_closed_loop(1.0, 10.0, Field.zeros(grid), BoundarySignal.zero(), grid, kernel=kernel)
        with pytest.raises(InvalidParameterError, match="three time levels"):
            transform_commutation_residual(run)

    def test_image_is_built_once_from_aligned_operator_blocks(self, kernel_grid, kernel10):
        times = kernel_grid.times()
        d = BoundarySignal.sampled(times, 0.3 * np.sin(4.0 * times))
        y0 = compatible_initial_state(kernel10, Field(np.sin(np.pi * kernel_grid.nodes), kernel_grid), float(d(0.0)))
        run = simulate_closed_loop(1.0, 10.0, y0, d, kernel_grid, kernel=kernel10)
        assert run.x_traj is run.x_traj
        data, n = run.y_traj.data, kernel_grid.n_nodes
        assert len(data) % n != 0  # the last block is partial
        blocks = [_image(kernel10.matrix, data[r0 : r0 + n]) for r0 in range(0, len(data), n)]
        assert run.x_traj.data.tobytes() == np.concatenate(blocks).tobytes()

    @pytest.mark.parametrize("k_reaction", [5.0, 15.0, 25.0])
    def test_disturbance_free_loop_decays_at_target_rate(self, k_reaction):
        grid = Grid1D(n_interior=99, dt=2e-4, t_final=0.5)
        kernel = solve_kernel(1.0, k_reaction, grid)
        y0 = compatible_initial_state(
            kernel, Field(np.sin(np.pi * grid.nodes), grid)
        )
        run = simulate_closed_loop(1.0, k_reaction, y0, BoundarySignal.zero(), grid, kernel=kernel)
        norms = lp_norms(run.y_traj.data, grid.h, 2.0)
        keep = run.y_traj.times >= 0.1
        fitted = -np.polyfit(run.y_traj.times[keep], np.log(norms[keep]), 1)[0]
        assert fitted == pytest.approx(PI2, rel=0.05)


# The inverse is one dtrtri on the transpose of I + U, the loop image one dtrmm per block of n levels on the
# block's transpose: pinned bit for bit to fresh calls, and within the rounding bound n u |.| of the dense
# expressions they replaced (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., sections 3.5 and 14.2).
@pytest.mark.parametrize("n_interior", [99, 200])
def test_inverse_samples_and_closed_loop_image_match_lapack_calls_bitwise(n_interior):
    grid = Grid1D(n_interior=n_interior, dt=1e-4, t_final=0.05)
    kernel = solve_kernel(1.0, 12.0, grid)
    n, eps = grid.n_nodes, np.finfo(float).eps
    eye = np.eye(n)
    direct = eye + kernel.matrix
    inverse_t, info = dtrtri(direct.T, lower=1)
    assert info == 0
    L = inverse_t.T - eye
    weights = _row_trapezoid_weights(grid.n_nodes, grid.h)
    samples = np.where(weights > 0.0, L / np.where(weights > 0.0, weights, 1.0), 0.0)
    assert solve_inverse_kernel(kernel).samples.tobytes() == samples.tobytes()
    dense_L = solve_triangular(direct, eye) - eye
    assert np.all(np.abs(dense_L - L) <= n * eps * (np.abs(inverse_t.T) @ np.abs(direct) @ np.abs(inverse_t.T)))

    times = grid.times()
    d = BoundarySignal.sampled(times, np.where(times >= 0.01, 0.4, -0.2))
    y0 = compatible_initial_state(kernel, Field(np.sin(np.pi * grid.nodes), grid), d0=-0.2)
    run = simulate_closed_loop(1.0, 12.0, y0, d, grid, kernel=kernel)
    data = run.y_traj.data
    blocks = [data[r0 : r0 + n] for r0 in range(0, len(data), n)]
    image = np.concatenate([dtrmm(1.0, kernel.matrix.T, block.T, lower=1, trans_a=1).T + block for block in blocks])
    assert run.x_traj.data.tobytes() == image.tobytes()
    dense = data + data @ kernel.matrix.T
    bound = n * eps * (np.abs(data) @ np.abs(kernel.matrix).T) + eps * np.abs(dense)
    assert np.all(np.abs(dense - image) <= bound)


# tracemalloc sees numpy's buffers, so a copy f2py makes of an array handed to BLAS or LAPACK shows in these
# peaks.  At 201 nodes and 1001 levels the operator is a fifth of a history: one more history, or an
# n x n copy of the operator, breaks either bound (2.03 histories and 4.2 operators as built).
@pytest.fixture(scope="module")
def traced_kernel():
    kernel = solve_kernel(1.0, 10.0, Grid1D(n_interior=199, dt=1e-4, t_final=0.1))
    kernel.matrix  # built before tracing starts
    return kernel


def test_closed_loop_peaks_at_its_two_histories(traced_kernel):
    grid = traced_kernel.grid
    y0 = compatible_initial_state(traced_kernel, Field(np.sin(np.pi * grid.nodes), grid))
    run, peak = _traced_peak(lambda: simulate_closed_loop(1.0, 10.0, y0, BoundarySignal.zero(), grid, traced_kernel))
    assert peak <= 2.1 * run.y_traj.data.nbytes


def test_closed_loop_residual_peaks_below_one_history_and_three_operators(traced_kernel):
    # The image is formed an n x n block at a time, never as a second history (the whole image breaks the bound).
    grid = traced_kernel.grid
    y0 = compatible_initial_state(traced_kernel, Field(np.sin(np.pi * grid.nodes), grid))

    def loop_and_residual():
        run = simulate_closed_loop(1.0, 10.0, y0, BoundarySignal.zero(), grid, traced_kernel)
        return run, transform_commutation_residual(run)

    (run, _), peak = _traced_peak(loop_and_residual)
    assert peak <= run.y_traj.data.nbytes + 3 * traced_kernel.matrix.nbytes


def test_kernel_synthesis_peaks_at_three_rectangles_and_its_samples():
    # F, the next iterate and the base term each fill the 401 x 201 characteristic rectangle; the samples
    # are 201 x 201.  Per-block buffers may add a few blocks, a whole-rectangle temporary may not.
    grid = Grid1D(n_interior=199, dt=1e-4, t_final=0.1)
    kernel, peak = _traced_peak(lambda: solve_kernel(1.0, 10.0, grid))
    rectangle = (2 * grid.n_nodes - 1) * grid.n_nodes * 8
    assert peak <= 3 * rectangle + kernel.samples.nbytes + 4 * BLOCK_BYTES


def test_inverse_synthesis_peaks_below_four_and_a_half_operators(traced_kernel):
    _, peak = _traced_peak(lambda: solve_inverse_kernel(traced_kernel))
    assert peak <= 4.5 * traced_kernel.matrix.nbytes


class TestEquivalenceConstants:
    def test_zero_kernel_yields_unit_constants(self, kernel_grid):
        kernel = solve_kernel(1.0, 0.0, kernel_grid)
        inverse = solve_inverse_kernel(kernel)
        k1, k2 = estimate_equivalence_constants(kernel, inverse, 2.0)
        assert k1 == pytest.approx(1.0) and k2 == pytest.approx(1.0)

    def test_sup_norm_bound_is_the_row_bound(self, kernel10):
        # at p = inf the Schur product's exponents are 1 and 0, so it is the max row sum, bit for bit
        assert _schur_bound(kernel10, math.inf) == float(np.abs(kernel10.matrix).sum(axis=1).max())

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, math.inf])
    def test_bracket_random_field_ratios(self, p, kernel_grid, kernel10, inverse10):
        k1, k2 = estimate_equivalence_constants(kernel10, inverse10, p)
        assert k1 <= 1.0 <= k2
        rng = np.random.default_rng(17)
        B = kernel10.matrix
        fields = _random_smooth_fields(kernel_grid, 50, rng)
        x = fields + fields @ B.T
        ny = lp_norms(fields, kernel_grid.h, p)
        nx = lp_norms(x, kernel_grid.h, p)
        ratios = ny / nx
        assert ratios.min() >= k1 - 1e-9
        assert ratios.max() <= k2 + 1e-9


class TestClosedLoopCertificate:
    def _fit_constants(self, grid, d_signal, p=2.0):
        decay = simulate(
            SemilinearProblem(
                a=1.0,
                initial=Field(np.sin(np.pi * grid.nodes), grid),
                boundary_left=BoundarySignal.zero(),
                boundary_right=BoundarySignal.zero(),
            ),
            grid,
        )
        forced = simulate(
            SemilinearProblem(
                a=1.0,
                initial=Field.zeros(grid),
                boundary_left=d_signal,
                boundary_right=BoundarySignal.zero(),
            ),
            grid,
        )
        return estimate_exp_iss_constants([decay, forced], p)

    def test_zero_everything_has_zero_margin(self, kernel_grid, kernel10, inverse10):
        run = simulate_closed_loop(
            1.0, 10.0, Field.zeros(kernel_grid), BoundarySignal.zero(), kernel_grid, kernel=kernel10
        )
        k1, k2 = estimate_equivalence_constants(kernel10, inverse10, 2.0)
        times = kernel_grid.times()
        step_sig = BoundarySignal.sampled(times, np.where(times >= 0.05, 0.5, 0.0))
        constants = ClosedLoopConstants(k1=k1, k2=k2, iss=self._fit_constants(kernel_grid, step_sig))
        report = certify_closed_loop(run.y_traj, constants, run.disturbance)
        assert report.passed and report.margin == 0.0

    def test_decay_dominates_without_disturbance(self, kernel_grid, kernel10, inverse10):
        y0 = compatible_initial_state(
            kernel10, Field(np.sin(np.pi * kernel_grid.nodes), kernel_grid)
        )
        run = simulate_closed_loop(1.0, 10.0, y0, BoundarySignal.zero(), kernel_grid, kernel=kernel10)
        k1, k2 = estimate_equivalence_constants(kernel10, inverse10, 2.0)
        times = kernel_grid.times()
        step_sig = BoundarySignal.sampled(times, np.where(times >= 0.05, 0.5, 0.0))
        constants = ClosedLoopConstants(k1=k1, k2=k2, iss=self._fit_constants(kernel_grid, step_sig))
        report = certify_closed_loop(run.y_traj, constants, run.disturbance)
        assert report.passed and report.margin > 0.0

    def test_step_disturbance_certified_with_steady_bound(self, kernel_grid, kernel10, inverse10):
        times = kernel_grid.times()
        step_sig = BoundarySignal.sampled(times, np.where(times >= 0.05, 0.5, 0.0))
        run = simulate_closed_loop(
            1.0, 10.0, Field.zeros(kernel_grid), step_sig, kernel_grid, kernel=kernel10
        )
        k1, k2 = estimate_equivalence_constants(kernel10, inverse10, 2.0)
        constants = ClosedLoopConstants(k1=k1, k2=k2, iss=self._fit_constants(kernel_grid, step_sig))
        report = certify_closed_loop(run.y_traj, constants, run.disturbance, tol=1e-6)
        assert report.passed
        steady = norm_lp(run.y_traj.final_state, 2.0)
        assert steady <= k2 * constants.iss.gamma * 0.5


_SMALL = Grid1D(n_interior=15, dt=1e-3, t_final=0.01)
_OTHER = Grid1D(n_interior=17, dt=1e-3, t_final=0.01)


def _planted(kernel, index, value):
    samples = kernel.samples.copy()
    samples[index] = value
    return VolterraKernel(samples, kernel.lam, "direct", _SMALL)


def _loop(a, k_reaction, kernel):
    return simulate_closed_loop(a, k_reaction, Field.zeros(_SMALL), BoundarySignal.zero(), _SMALL, kernel)


# The entry points that take (a, k_reaction), each called on (a, k_reaction, kernel).
_PLANT_ENTRIES = {
    "series": lambda a, kr, k: kernel_series_reference(a, kr, _SMALL),
    "solve": lambda a, kr, k: solve_kernel(a, kr, _SMALL),
    "loop": _loop,
}


def _misaligned_certificate(kernel, inverse):
    traj = Trajectory(grid=_SMALL, times=_SMALL.times(), data=np.zeros((_SMALL.n_steps + 1, _SMALL.n_nodes)))
    constants = ClosedLoopConstants(k1=1.0, k2=1.0, iss=ExpIssConstants(m=1.0, sigma=1.0, gamma=1.0, p=2.0))
    return certify_closed_loop(traj, constants, np.zeros(3))


# Each documented refusal, reached through public arguments with the k = 5 kernel pair on a 17-node grid:
# the case id, the call on (kernel, inverse), the error raised and its wording.
REFUSALS = [
    ("direction", lambda k, inv: VolterraKernel(k.samples, k.lam, "sideways", _SMALL), InvalidParameterError,
     "unknown kernel direction 'sideways'"),
    ("shape", lambda k, inv: VolterraKernel(k.samples[:-1], k.lam, "direct", _SMALL), InvalidParameterError,
     "kernel samples do not match the grid"),
    ("non_finite", lambda k, inv: _planted(k, (0, 0), math.nan), NumericalError,
     "kernel samples contain non-finite values"),
    ("lower_triangle", lambda k, inv: _planted(k, (-1, 0), 1.0), InvalidParameterError,
     "kernel samples must vanish below the diagonal"),
    ("series_a", lambda k, inv: kernel_series_reference(0.0, 5.0, _SMALL), InvalidParameterError,
     "diffusion coefficient must be positive and finite, got 0.0"),
    ("solve_a", lambda k, inv: solve_kernel(-1.0, 5.0, _SMALL), InvalidParameterError,
     "diffusion coefficient must be positive and finite, got -1.0"),
    # solver.check_diffusion and kernel_ratio refuse before any array work; before them a = inf gave a zero
    # kernel, and a NaN k_reaction ran every Picard iteration, gave NaN series samples or passed the loop's
    # 1e-12 kernel match
    *[(f"{entry}_a_{a}", lambda k, inv, call=call, a=a: call(a, 10.0, k), InvalidParameterError,
       f"diffusion coefficient must be positive and finite, got {a}")
      for entry, call in _PLANT_ENTRIES.items() for a in (math.inf, math.nan)],
    *[(f"{entry}_k_{kr}", lambda k, inv, call=call, kr=kr: call(1.0, kr, k), InvalidParameterError,
       f"kernel ratio k_reaction / a must be finite, got {kr} / 1.0")
      for entry, call in _PLANT_ENTRIES.items() for kr in (math.nan, math.inf)],
    ("ratio_overflow", lambda k, inv: solve_kernel(1e-10, 1e300, _SMALL), InvalidParameterError,
     "kernel ratio k_reaction / a must be finite, got 1e+300 / 1e-10"),
    ("transform_grid", lambda k, inv: apply_transform(k, Field.zeros(_OTHER)), InvalidParameterError,
     "field and kernel live on different grids"),
    ("feedback_grid", lambda k, inv: feedback(k, Field.zeros(_OTHER)), InvalidParameterError,
     "field and kernel live on different grids"),
    ("loop_state_grid",
     lambda k, inv: simulate_closed_loop(1.0, 5.0, Field.zeros(_OTHER), BoundarySignal.zero(), _SMALL, k),
     InvalidParameterError, "initial state lives on a different grid"),
    ("loop_kernel", lambda k, inv: _loop(1.0, 6.0, k), InvalidParameterError,
     "kernel does not match the requested plant"),
    ("schur_p", lambda k, inv: estimate_equivalence_constants(k, inv, 0.5), InvalidParameterError,
     "p must be >= 1 or inf, got 0.5"),
    ("schur_p_nan", lambda k, inv: estimate_equivalence_constants(k, inv, math.nan), InvalidParameterError,
     "p must be >= 1 or inf, got nan"),
    ("pair_order", lambda k, inv: estimate_equivalence_constants(inv, k, 2.0), InvalidParameterError,
     "expected a (direct, inverse) kernel pair"),
    ("disturbance_times", _misaligned_certificate, InvalidParameterError,
     "disturbance samples must align with the trajectory times"),
    # Before the refusal both reached numpy's "zero-size array to reduction operation maximum" ValueError.
    ("residual_two_levels", lambda k, inv: pde_residual_sup(np.zeros((2, 5)), 0.1, 0.25, 1.0), InvalidParameterError,
     "at least three time levels and three nodes for its central differences; the history is 2 x 5"),
    ("residual_two_nodes", lambda k, inv: pde_residual_sup(np.zeros((3, 2)), 0.1, 0.25, 1.0), InvalidParameterError,
     "at least three time levels and three nodes for its central differences; the history is 3 x 2"),
]


@pytest.mark.parametrize("call,error,wording", [case[1:] for case in REFUSALS], ids=[case[0] for case in REFUSALS])
def test_documented_refusal(call, error, wording):
    kernel = solve_kernel(1.0, 5.0, _SMALL)
    with pytest.raises(error, match=re.escape(wording)):
        call(kernel, solve_inverse_kernel(kernel))
