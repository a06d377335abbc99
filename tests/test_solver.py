import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from iss_parabolic import (
    BoundarySignal,
    Field,
    Grid1D,
    IncompatibleDataError,
    InvalidParameterError,
    MonotonicityLossError,
    NumericalError,
    SemilinearProblem,
    check_ordering,
    norm_lp,
    compatible_initial_state,
    simulate,
    simulate_closed_loop,
    solve_kernel,
    write_trajectory_csv,
)
from iss_parabolic import solver
from iss_parabolic.solver import pde_residual_field
from conftest import eigenfield, heat_problem

PI2 = math.pi**2


class TestBoundarySignal:
    def test_constant_sup(self):
        sig = BoundarySignal.constant(-2.0)
        assert sig(13.7) == -2.0
        assert sig.sup_norm == 2.0

    def test_sampled_interp_and_sup(self):
        sig = BoundarySignal.sampled(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, -4.0]))
        assert sig(0.5) == pytest.approx(1.0)
        with pytest.raises(InvalidParameterError):
            sig(5.0)  # beyond the table: refused, not clamped
        assert sig.sup_norm == 4.0

    def test_shift_matches_evaluation(self):
        times = np.linspace(0.0, 1.0, 11)
        sig = BoundarySignal.sampled(times, np.sin(3.0 * times))
        shifted = sig.shifted(0.3)
        for s in (0.0, 0.21, 0.55):
            assert shifted(s) == pytest.approx(sig(0.3 + s), abs=1e-15)

    def test_sampled_validation(self):
        with pytest.raises(InvalidParameterError):
            BoundarySignal.sampled(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
        with pytest.raises(InvalidParameterError):
            BoundarySignal.sampled(np.array([0.0, 1.0]), np.array([1.0, np.inf]))
        for times, values in (([0.0, 1.0], [1.0, 2.0, 3.0]), ([0.0], [1.0]), ([[0.0, 1.0]], [[1.0, 2.0]])):
            with pytest.raises(InvalidParameterError, match="sampled signal needs matching time/value tables"):
                BoundarySignal.sampled(np.array(times), np.array(values))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_constant_rejected(self, value):
        # a NaN level would pass the t = 0 compatibility check vacuously
        with pytest.raises(InvalidParameterError, match="must be finite"):
            BoundarySignal.constant(value)

    def test_closed_loop_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            BoundarySignal(kind="closed-loop")


class TestProblemValidation:
    def test_compatibility_required(self, grid_small):
        with pytest.raises(IncompatibleDataError):
            heat_problem(grid_small, lambda z: np.ones_like(z), d0=BoundarySignal.zero())

    def test_positive_diffusion_required(self, grid_small):
        with pytest.raises(InvalidParameterError):
            SemilinearProblem(
                a=0.0,
                initial=Field.zeros(grid_small),
                boundary_left=BoundarySignal.zero(),
                boundary_right=BoundarySignal.zero(),
            )

    @pytest.mark.parametrize("lipschitz_k", [-1.0, -math.inf])
    def test_negative_slope_bound_rejected(self, grid_small, lipschitz_k):
        with pytest.raises(InvalidParameterError, match="lipschitz_k must be nonnegative"):
            SemilinearProblem(
                a=1.0,
                initial=Field.zeros(grid_small),
                boundary_left=BoundarySignal.zero(),
                boundary_right=BoundarySignal.zero(),
                lipschitz_k=lipschitz_k,
            )

    def test_step_restriction_refused(self):
        grid = Grid1D(n_interior=49, dt=0.25, t_final=0.25)  # one step
        problem = SemilinearProblem(
            a=1.0,
            initial=Field.zeros(grid),
            boundary_left=BoundarySignal.zero(),
            boundary_right=BoundarySignal.zero(),
            reaction=lambda z, w, g: 5.0 * w,
            lipschitz_k=5.0,
        )
        with pytest.raises(MonotonicityLossError):
            simulate(problem, grid)

    @pytest.mark.parametrize("k_reaction", [10.0, -10.0])
    def test_closed_loop_step_restriction_refused(self, k_reaction):
        grid = Grid1D(n_interior=15, dt=0.1, t_final=0.2)  # dt |k_reaction| = 1
        kernel = solve_kernel(1.0, k_reaction, grid)
        y0 = compatible_initial_state(kernel, Field(np.sin(np.pi * grid.nodes), grid))
        with pytest.raises(MonotonicityLossError):
            simulate_closed_loop(1.0, k_reaction, y0, BoundarySignal.zero(), grid, kernel=kernel)


class TestStep:
    """One step: ``simulate`` over a one-step grid."""

    def test_zero_state_stays_zero(self):
        grid = Grid1D(n_interior=49, dt=2e-4, t_final=2e-4)
        out = simulate(heat_problem(grid, lambda z: np.zeros_like(z)), grid).final_state
        assert np.all(out.values == 0.0)

    def test_constant_steady_state_fixed_point(self):
        grid = Grid1D(n_interior=49, dt=1e-3, t_final=1e-3)
        c = 0.75
        problem = heat_problem(
            grid, lambda z: np.full_like(z, c),
            d0=BoundarySignal.constant(c), d1=BoundarySignal.constant(c),
        )
        out = simulate(problem, grid).final_state
        assert np.allclose(out.values, c, atol=1e-12)

    def test_single_step_matches_eigen_decay(self):
        grid = Grid1D(n_interior=199, dt=1e-3, t_final=1e-3)
        out = simulate(heat_problem(grid, lambda z: np.sin(np.pi * z)), grid).final_state
        expected = math.exp(-PI2 * grid.dt) * np.sin(np.pi * grid.nodes)
        assert np.max(np.abs(out.values - expected)) < 2e-4


class TestSimulate:
    def test_zero_data_zero_trajectory(self, grid_small):
        traj = simulate(heat_problem(grid_small, lambda z: np.zeros_like(z)), grid_small)
        assert np.all(traj.data == 0.0)
        assert len(traj) == grid_small.n_steps + 1

    def test_constant_steady_state_all_times(self, grid_small):
        problem = heat_problem(
            grid_small, lambda z: np.full_like(z, -1.5),
            d0=BoundarySignal.constant(-1.5), d1=BoundarySignal.constant(-1.5),
        )
        traj = simulate(problem, grid_small)
        assert np.allclose(traj.data, -1.5, atol=1e-11)

    def test_eigenfunction_decay_ratio(self):
        grid = Grid1D(n_interior=99, dt=1e-4, t_final=0.2)
        traj = simulate(heat_problem(grid, lambda z: np.sin(np.pi * z)), grid)
        ratio = norm_lp(traj.final_state, 2.0) / norm_lp(traj.state(0), 2.0)
        assert ratio == pytest.approx(math.exp(-PI2 * traj.times[-1]), rel=0.02)

    def test_subcritical_reaction_decays(self, grid_medium):
        # spectral gap of the discrete operator, confirmed independently on
        # the tridiagonal eigenvalue problem
        from scipy.linalg import eigh_tridiagonal

        h = grid_medium.h
        n = grid_medium.n_interior
        lam_min = eigh_tridiagonal(
            np.full(n, 2.0 / h**2), np.full(n - 1, -1.0 / h**2), select="i", select_range=(0, 0)
        )[0][0]
        assert lam_min - 5.0 > 0.0  # the reaction does not close the gap
        problem = SemilinearProblem(
            a=1.0,
            initial=eigenfield(grid_medium),
            boundary_left=BoundarySignal.zero(),
            boundary_right=BoundarySignal.zero(),
            reaction=lambda z, w, g: 5.0 * w,
            lipschitz_k=5.0,
        )
        traj = simulate(problem, grid_medium)
        norms = [norm_lp(traj.state(k), 2.0) for k in range(0, len(traj), 100)]
        assert all(b < a for a, b in zip(norms, norms[1:]))
        expected = math.exp(-(PI2 - 5.0) * traj.times[-1])
        final_ratio = norm_lp(traj.final_state, 2.0) / norms[0]
        assert final_ratio == pytest.approx(expected, rel=0.05)

    def test_grid_mismatch_rejected(self, grid_small, grid_medium):
        problem = heat_problem(grid_small, lambda z: np.zeros_like(z))
        with pytest.raises(InvalidParameterError):
            simulate(problem, grid_medium)

    def test_table_shorter_than_horizon_rejected(self, grid_small):
        times = grid_small.times()
        short = times[times <= 0.5 * grid_small.t_final]
        d0 = BoundarySignal.sampled(short, np.full_like(short, 0.3))
        problem = heat_problem(grid_small, lambda z: 0.3 * (1.0 - z), d0=d0)
        with pytest.raises(InvalidParameterError):
            simulate(problem, grid_small)

    def test_history_is_not_copied(self):
        import tracemalloc

        grid = Grid1D(n_interior=199, dt=1e-4, t_final=0.3)
        problem = heat_problem(grid, lambda z: np.sin(np.pi * z))
        tracemalloc.start()
        try:
            traj = simulate(problem, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * traj.data.nbytes


def _reference_march(grid, a, reaction, x0, boundary):
    """The scheme as first written: a fresh banded solve on every step."""
    h, n, dt = grid.h, grid.n_interior, grid.dt
    r = a * dt / h**2
    ab = np.zeros((3, n))
    ab[0, 1:] = -r
    ab[1, :] = 1.0 + 2.0 * r
    ab[2, :-1] = -r
    x = x0.copy()
    levels = [x]
    for m in range(grid.n_steps):
        left, right = boundary(m, x)
        rhs = x[1:-1].copy()
        if reaction is not None:
            grad = (x[2:] - x[:-2]) / (2.0 * h)
            rhs += dt * reaction(grid.nodes[1:-1], x[1:-1], grad)
        rhs[0] += r * left
        rhs[-1] += r * right
        x = np.concatenate(([left], solve_banded((1, 1), ab, rhs), [right]))
        levels.append(x)
    return np.array(levels)


def _open_loop_case(problem, grid):
    times = grid.times()

    def boundary(m, x):
        t1 = times[m + 1]
        return float(problem.boundary_left(t1)), float(problem.boundary_right(t1))

    reference = _reference_march(grid, problem.a, problem.reaction, problem.initial.values, boundary)
    return simulate(problem, grid).data, reference


def _heat_sampled_case():
    grid = Grid1D(n_interior=49, dt=2e-4, t_final=0.1)
    times = grid.times()
    d0 = BoundarySignal.sampled(times[::5], 0.6 * np.sin(9.0 * times[::5]))
    d1 = BoundarySignal.constant(-0.25)
    z = grid.nodes
    x0 = d0(0.0) * (1 - z) + d1(0.0) * z + 0.8 * np.sin(np.pi * z)
    problem = SemilinearProblem(a=1.0, initial=Field(x0, grid), boundary_left=d0, boundary_right=d1)
    return _open_loop_case(problem, grid)


def _heat_sampled_n199_case():
    grid = Grid1D(n_interior=199, dt=1e-4, t_final=0.05)
    times = grid.times()
    d0 = BoundarySignal.sampled(times[::4], 0.5 * np.sin(11.0 * times[::4]))
    d1 = BoundarySignal.sampled(times[::5], -0.3 + 0.4 * np.cos(5.0 * times[::5]))
    z = grid.nodes
    x0 = d0(0.0) * (1 - z) + d1(0.0) * z + 0.7 * np.sin(2.0 * np.pi * z)
    problem = SemilinearProblem(a=1.0, initial=Field(x0, grid), boundary_left=d0, boundary_right=d1)
    return _open_loop_case(problem, grid)


def _cubic_case():
    grid = Grid1D(n_interior=47, dt=1e-3, t_final=0.2)
    problem = SemilinearProblem(
        a=0.5,
        initial=Field(0.9 * np.sin(np.pi * grid.nodes), grid),
        boundary_left=BoundarySignal.zero(),
        boundary_right=BoundarySignal.zero(),
        reaction=lambda z, w, g: w - w**3,
        lipschitz_k=1.0,
    )
    return _open_loop_case(problem, grid)


def _gradient_case():
    grid = Grid1D(n_interior=39, dt=5e-4, t_final=0.1)
    problem = SemilinearProblem(
        a=1.0,
        initial=Field(np.sin(np.pi * grid.nodes) * (1.0 + grid.nodes), grid),
        boundary_left=BoundarySignal.zero(),
        boundary_right=BoundarySignal.zero(),
        reaction=lambda z, w, g: 3.0 * np.sin(w) + 0.4 * g * (1.0 - z),
        lipschitz_k=3.0,
    )
    return _open_loop_case(problem, grid)


def _closed_loop_case():
    grid = Grid1D(n_interior=15, dt=1e-3, t_final=0.2)
    kernel = solve_kernel(1.0, 10.0, grid)
    times = grid.times()
    d = BoundarySignal.sampled(times, 0.3 * np.sin(6.0 * times))
    base = Field(np.sin(np.pi * grid.nodes), grid)
    y0 = compatible_initial_state(kernel, base, float(d(0.0)))
    run = simulate_closed_loop(1.0, 10.0, y0, d, grid, kernel=kernel)
    row0 = kernel.matrix[0]

    def boundary(m, y):
        return float(d(times[m + 1])) - float(row0 @ y), 0.0

    reference = _reference_march(grid, 1.0, lambda z, w, g: 10.0 * w, y0.values, boundary)
    return run.y_traj.data, reference


@pytest.mark.parametrize(
    "case",
    [_heat_sampled_case, _cubic_case, _gradient_case, _closed_loop_case, _heat_sampled_n199_case],
    ids=["heat_sampled", "cubic", "gradient", "closed_loop_n15", "heat_both_sampled_n199"],
)
def test_prefactored_march_matches_reference_scheme_bitwise(case):
    actual, reference = case()
    assert np.all(np.isfinite(reference))
    assert np.array_equal(actual, reference)


@pytest.mark.parametrize("case", [_heat_sampled_case, _cubic_case], ids=["heat_sampled", "cubic"])
def test_march_keeps_a_solution_lapack_returns_in_a_new_array(case, monkeypatch):
    # f2py may copy the right-hand side instead of solving in place; the
    # march must then take the returned array, not its own unsolved row.
    lapack_dgttrs = solver.dgttrs
    calls = []

    def copying_dgttrs(dl, d, du, du2, ipiv, b, **kwargs):
        calls.append(1)
        return lapack_dgttrs(dl, d, du, du2, ipiv, b.copy(), **kwargs)

    monkeypatch.setattr(solver, "dgttrs", copying_dgttrs)
    actual, reference = case()
    assert calls
    assert np.array_equal(actual, reference)


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
def test_non_finite_reaction_stops_at_its_step(bad):
    grid = Grid1D(n_interior=31, dt=1e-3, t_final=0.05)
    k = 7
    calls = []

    def reaction(z, w, g):
        calls.append(1)
        out = -w
        if len(calls) >= k:
            out[-1] = bad
        return out

    problem = SemilinearProblem(
        a=1.0,
        initial=Field(np.sin(np.pi * grid.nodes), grid),
        boundary_left=BoundarySignal.zero(),
        boundary_right=BoundarySignal.zero(),
        reaction=reaction,
        lipschitz_k=1.0,
    )
    with pytest.raises(NumericalError, match=rf"^step {k} of {grid.n_steps} produced non-finite values$"):
        simulate(problem, grid)
    assert len(calls) == k


class TestControlSystemAxioms:
    def _disturbed_problem(self, grid, seed):
        rng = np.random.default_rng(seed)
        times = grid.times()
        amp, omega = rng.uniform(0.2, 1.0), rng.uniform(2.0, 12.0)
        d0 = BoundarySignal.sampled(times, amp * np.sin(omega * times))
        d1 = BoundarySignal.constant(rng.uniform(-0.5, 0.5))
        z = grid.nodes
        x0 = d0(0.0) * (1 - z) + d1(0.0) * z + rng.uniform(0.3, 1.0) * np.sin(np.pi * z)
        return SemilinearProblem(
            a=1.0, initial=Field(x0, grid), boundary_left=d0, boundary_right=d1
        )

    def test_identity_axiom_bitwise(self, grid_small):
        problem = self._disturbed_problem(grid_small, 1)
        traj = simulate(problem, grid_small)
        assert np.array_equal(traj.data[0], problem.initial.values)

    def test_causality_bitwise(self, grid_small):
        problem = self._disturbed_problem(grid_small, 2)
        traj_a = simulate(problem, grid_small)
        # alter the left signal strictly after t_cut
        t_cut = 0.1
        times = problem.boundary_left.sample_times
        values = problem.boundary_left.sample_values.copy()
        values[times > t_cut] += 5.0
        altered = problem.with_data(
            problem.initial, BoundarySignal.sampled(times, values), problem.boundary_right
        )
        traj_b = simulate(altered, grid_small)
        prefix = traj_a.times <= t_cut + 1e-15
        assert np.array_equal(traj_a.data[prefix], traj_b.data[prefix])
        assert not np.array_equal(traj_a.data, traj_b.data)

    def test_cocycle_restart(self, grid_small):
        problem = self._disturbed_problem(grid_small, 3)
        full = simulate(problem, grid_small)
        k_mid = len(full) // 2
        t_mid = float(full.times[k_mid])
        rest_grid = Grid1D(
            n_interior=grid_small.n_interior, dt=grid_small.dt,
            t_final=grid_small.t_final - t_mid,
        )
        restarted_problem = SemilinearProblem(
            a=problem.a,
            initial=Field(full.data[k_mid], rest_grid),
            boundary_left=problem.boundary_left.shifted(t_mid),
            boundary_right=problem.boundary_right.shifted(t_mid),
        )
        restarted = simulate(restarted_problem, rest_grid)
        tail = full.data[k_mid : k_mid + len(restarted)]
        assert np.max(np.abs(restarted.data - tail)) < 1e-12


class TestComparisonPrinciple:
    def test_ordered_initial_data_stays_ordered(self, grid_small):
        low = simulate(heat_problem(grid_small, lambda z: np.zeros_like(z)), grid_small)
        high = simulate(heat_problem(grid_small, lambda z: np.sin(np.pi * z)), grid_small)
        report = check_ordering(low, high, tol=1e-12)
        assert report.passed

    def test_ordered_inputs_give_ordered_trajectories(self, grid_small):
        base = heat_problem(grid_small, lambda z: np.zeros_like(z))
        lower = base.with_data(
            Field(np.full(grid_small.n_nodes, -0.5), grid_small),
            BoundarySignal.constant(-0.5), BoundarySignal.constant(-0.5),
        )
        report = check_ordering(simulate(lower, grid_small), simulate(base, grid_small), tol=1e-12)
        assert report.passed


class TestResidual:
    def test_zero_trajectory(self, grid_small):
        traj = simulate(heat_problem(grid_small, lambda z: np.zeros_like(z)), grid_small)
        assert pde_residual_field(traj.data, traj.times, grid_small.nodes, 1.0).max() == 0.0

    def test_exact_solution_residual_small(self):
        # residual of the injected analytic eigen-solution is quadrature-level
        grid = Grid1D(n_interior=99, dt=1e-4, t_final=0.05)
        times = grid.times()
        data = np.exp(-PI2 * times)[:, None] * np.sin(np.pi * grid.nodes)[None, :]
        # truncation error of central differences on the smooth solution
        assert pde_residual_field(data, times, grid.nodes, 1.0).max() < PI2**2 * (grid.h**2 + grid.dt)

    def test_refinement_drops_residual(self):
        values = []
        for n, dt in ((49, 4e-4), (99, 1e-4)):
            grid = Grid1D(n_interior=n, dt=dt, t_final=0.05)
            traj = simulate(heat_problem(grid, lambda z: np.sin(np.pi * z)), grid)
            values.append(pde_residual_field(traj.data, traj.times, grid.nodes, 1.0).max())
        assert values[0] / values[1] >= 1.8


class TestCsvExport:
    def test_header_rows_and_determinism(self, tmp_path, grid_small):
        problem = heat_problem(grid_small, lambda z: np.sin(np.pi * z))
        traj = simulate(problem, grid_small)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory_csv(traj, p1)
        write_trajectory_csv(traj, p2)
        lines = p1.read_text().splitlines()
        assert lines[0] == "t,z,value"
        assert len(lines) == 1 + len(traj) * grid_small.n_nodes
        assert p1.read_bytes() == p2.read_bytes()
