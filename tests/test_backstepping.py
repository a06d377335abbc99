import math
import os
import re
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

import iss_parabolic
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
    KERNEL_ITERATION_CAP,
    KERNEL_ITERATION_TOL,
    VolterraKernel,
    _cumulative_simpson,
    _random_smooth_fields,
    write_kernel_csv,
)
from iss_parabolic.norms import lp_norms
from iss_parabolic.solver import _march

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
        tracemalloc.start()
        try:
            kernel = VolterraKernel(samples, 1.0, "direct", grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
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
    actual = _cumulative_simpson(y, h, axis, np.empty_like(y), np.empty_like(y))
    assert np.all(np.isfinite(expected))
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def _reference_solve_kernel(a, k_reaction, grid):
    """Picard iteration on the characteristic rectangle with scipy's quadrature."""
    lam = k_reaction / a
    h = grid.h
    n_eta = grid.n_nodes
    n_xi = 2 * (grid.n_interior + 1) + 1
    xi = np.arange(n_xi) * h
    eta = np.arange(n_eta) * h
    base = (lam / 4.0) * (xi[:, None] - eta[None, :])
    F = base.copy()
    diag = np.arange(n_eta)
    for _ in range(KERNEL_ITERATION_CAP):
        inner = cumulative_simpson(F, dx=h, axis=1, initial=0.0)
        outer = cumulative_simpson(inner, dx=h, axis=0, initial=0.0)
        new = base + (lam / 4.0) * (outer - outer[diag, diag][None, :])
        change = float(np.max(np.abs(new - F)))
        F = new
        if change < KERNEL_ITERATION_TOL:
            break
    else:
        raise AssertionError("reference kernel iteration did not converge")
    samples = np.zeros((n_eta, n_eta))
    ii, jj = np.meshgrid(diag, diag, indexing="ij")
    mask = jj >= ii
    samples[mask] = F[2 * (grid.n_interior + 1) - ii[mask] - jj[mask], jj[mask] - ii[mask]]
    return samples


@pytest.mark.parametrize("n_interior", [39, 40], ids=["odd_nodes", "even_nodes"])
@pytest.mark.parametrize("k_reaction", [10.0, 25.0, -8.0, 0.0])
def test_solve_kernel_matches_reference_iteration_bitwise(n_interior, k_reaction):
    grid = Grid1D(n_interior=n_interior, dt=2e-4, t_final=0.1)
    actual = solve_kernel(1.0, k_reaction, grid).samples
    reference = _reference_solve_kernel(1.0, k_reaction, grid)
    assert np.array_equal(actual, reference)
    assert np.array_equal(np.signbit(actual), np.signbit(reference))


def test_package_import_leaves_scipy_integrate_unloaded():
    src = str(Path(iss_parabolic.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import iss_parabolic, sys; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    assert out.stdout.strip() == "False"


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


class TestFlipEquivalence:
    def test_flipped_synthesis_reproduces_trajectory(self):
        # synthesizing for the right-actuated plant (z -> 1 - z) and flipping
        # back must reproduce the left-actuated closed loop
        grid = Grid1D(n_interior=79, dt=2e-4, t_final=0.2)
        a, kr = 1.0, 10.0
        kernel = solve_kernel(a, kr, grid)
        y0 = compatible_initial_state(
            kernel, Field(np.sin(np.pi * grid.nodes) * (1.0 + 0.3 * grid.nodes), grid)
        )
        run = simulate_closed_loop(a, kr, y0, BoundarySignal.zero(), grid, kernel=kernel)

        flipped_kernel = kernel.samples[::-1, ::-1]  # k_hat(z, s) = k(1 - z, 1 - s)
        h = grid.h
        omega = np.full(grid.n_nodes, h)
        omega[0] = omega[-1] = h / 2.0
        fb_row = omega * flipped_kernel[-1]
        flipped = _march(
            grid, a, lambda z, w, g: kr * w, kr, y0.values[::-1],
            lambda m, y: (0.0, -float(fb_row @ y)),
        )[:, ::-1]
        assert np.max(np.abs(flipped - run.y_traj.data)) < 1e-10


class TestEquivalenceConstants:
    def test_zero_kernel_yields_unit_constants(self, kernel_grid):
        kernel = solve_kernel(1.0, 0.0, kernel_grid)
        inverse = solve_inverse_kernel(kernel)
        k1, k2 = estimate_equivalence_constants(kernel, inverse, 2.0)
        assert k1 == pytest.approx(1.0) and k2 == pytest.approx(1.0)

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


def _nan_on_diagonal(kernel):
    samples = kernel.samples.copy()
    samples[0, 0] = math.nan
    return VolterraKernel(samples, kernel.lam, "direct", _SMALL)


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
    ("non_finite", lambda k, inv: _nan_on_diagonal(k), NumericalError, "kernel samples contain non-finite values"),
    ("series_a", lambda k, inv: kernel_series_reference(0.0, 5.0, _SMALL), InvalidParameterError,
     "diffusion coefficient must be positive"),
    ("solve_a", lambda k, inv: solve_kernel(-1.0, 5.0, _SMALL), InvalidParameterError,
     "diffusion coefficient must be positive"),
    ("transform_grid", lambda k, inv: apply_transform(k, Field.zeros(_OTHER)), InvalidParameterError,
     "field and kernel live on different grids"),
    ("feedback_grid", lambda k, inv: feedback(k, Field.zeros(_OTHER)), InvalidParameterError,
     "field and kernel live on different grids"),
    ("loop_state_grid",
     lambda k, inv: simulate_closed_loop(1.0, 5.0, Field.zeros(_OTHER), BoundarySignal.zero(), _SMALL, k),
     InvalidParameterError, "initial state lives on a different grid"),
    ("loop_kernel",
     lambda k, inv: simulate_closed_loop(1.0, 6.0, Field.zeros(_SMALL), BoundarySignal.zero(), _SMALL, k),
     InvalidParameterError, "kernel does not match the requested plant"),
    ("schur_p", lambda k, inv: estimate_equivalence_constants(k, inv, 0.5), InvalidParameterError,
     "p must lie in [1, inf], got 0.5"),
    ("pair_order", lambda k, inv: estimate_equivalence_constants(inv, k, 2.0), InvalidParameterError,
     "expected a (direct, inverse) kernel pair"),
    ("disturbance_times", _misaligned_certificate, InvalidParameterError,
     "disturbance samples must align with the trajectory times"),
]


@pytest.mark.parametrize("call,error,wording", [case[1:] for case in REFUSALS], ids=[case[0] for case in REFUSALS])
def test_documented_refusal(call, error, wording):
    kernel = solve_kernel(1.0, 5.0, _SMALL)
    with pytest.raises(error, match=re.escape(wording)):
        call(kernel, solve_inverse_kernel(kernel))
