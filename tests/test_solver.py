import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.linalg import solveh_banded

from iss_parabolic import (
    BoundarySignal,
    Field,
    Grid1D,
    IncompatibleDataError,
    InvalidParameterError,
    MonotonicityLossError,
    NumericalError,
    Reaction,
    SemilinearProblem,
    Trajectory,
    check_ordering,
    norm_lp,
    compatible_initial_state,
    simulate,
    simulate_closed_loop,
    solve_kernel,
    write_trajectory,
)
from iss_parabolic import solver
from iss_parabolic._lapack import dpttrf
from iss_parabolic.norms import lp_norms, weighted_sin_norms
from iss_parabolic.scenarios import make_reaction
from iss_parabolic.solver import pde_residual_sup
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

    @pytest.mark.parametrize(
        "t", [math.nan, np.array([0.5, np.nan]), np.array([np.nan, 0.5])], ids=["nan", "nan-last", "nan-first"]
    )
    def test_sampled_refuses_nan_time(self, t):
        # NaN failed both comparisons of the range test and interpolated to NaN
        sig = BoundarySignal.sampled(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(InvalidParameterError, match="outside its table"):
            sig(t)

    def test_sampled_refuses_empty_time_array(self):
        # the range test's np.min raised numpy's own ValueError on a zero-size array
        sig = BoundarySignal.sampled(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(InvalidParameterError, match="signal evaluated at no time"):
            sig(np.array([]))

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
        # inf was accepted and failed at step 1 with a RuntimeWarning and a NumericalError
        for a in (0.0, math.inf, math.nan):
            wording = f"diffusion coefficient must be positive and finite, got {a}"
            with pytest.raises(InvalidParameterError, match=wording):
                SemilinearProblem(
                    a=a,
                    initial=Field.zeros(grid_small),
                    boundary_left=BoundarySignal.zero(),
                    boundary_right=BoundarySignal.zero(),
                )

    @pytest.mark.parametrize("lipschitz_k", [-1.0, -math.inf, math.nan])
    def test_negative_slope_bound_rejected(self, grid_small, lipschitz_k):
        with pytest.raises(InvalidParameterError, match="lipschitz_k must be nonnegative"):
            SemilinearProblem(
                a=1.0,
                initial=Field.zeros(grid_small),
                boundary_left=BoundarySignal.zero(),
                boundary_right=BoundarySignal.zero(),
                lipschitz_k=lipschitz_k,
            )

    def test_reaction_refuses_a_negative_slope_bound(self):
        with pytest.raises(InvalidParameterError, match="lipschitz_k must be nonnegative"):
            Reaction(lambda z, w, g: -w, -1.0)

    @pytest.mark.parametrize("reaction", [None, Reaction(lambda z, w, g: -w, 1.0, uses_gradient=False)],
                             ids=["no_reaction", "reaction_owner"])
    def test_slope_bound_without_a_bare_callable_rejected(self, grid_small, reaction):
        # a bound with no reaction to bound would refuse heat steps at dt * 5 >= 1
        with pytest.raises(InvalidParameterError, match=r"^lipschitz_k=5\.0 given with "):
            SemilinearProblem(
                a=1.0,
                initial=Field.zeros(grid_small),
                boundary_left=BoundarySignal.zero(),
                boundary_right=BoundarySignal.zero(),
                reaction=reaction,
                lipschitz_k=5.0,
            )

    def test_bare_callable_is_owned_as_a_reaction_that_reads_its_gradient(self, grid_small):
        f = lambda z, w, g: -w
        problem = SemilinearProblem(
            a=1.0,
            initial=Field.zeros(grid_small),
            boundary_left=BoundarySignal.zero(),
            boundary_right=BoundarySignal.zero(),
            reaction=f,
            lipschitz_k=2.0,
        )
        assert problem.reaction == Reaction(f, 2.0, uses_gradient=True)
        assert not hasattr(problem, "lipschitz_k")  # one store: a read cannot find a stale default
        moved = problem.with_data(eigenfield(grid_small), BoundarySignal.zero(), BoundarySignal.zero())
        assert moved.reaction is problem.reaction

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

    @pytest.mark.parametrize("dt, lipschitz_k", [(0.2, 5.0), (1.0, math.nan)], ids=["unit_product", "nan_slope"])
    def test_check_step_restriction_refuses(self, dt, lipschitz_k):
        with pytest.raises(MonotonicityLossError, match=r"violates dt \* lipschitz_k < 1"):
            solver.check_step_restriction(dt, lipschitz_k)

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

    @pytest.mark.parametrize("kind", ["heat", "cubic", "closed_loop"])
    def test_history_is_not_copied(self, kind):
        import tracemalloc

        grid = Grid1D(n_interior=199, dt=1e-4, t_final=0.3)
        x0 = Field(np.sin(np.pi * grid.nodes), grid)
        if kind == "closed_loop":
            kernel = solve_kernel(1.0, 10.0, grid)
            y0 = compatible_initial_state(kernel, x0)
            run = lambda: simulate_closed_loop(1.0, 10.0, y0, BoundarySignal.zero(), grid, kernel=kernel)
        else:
            problem = heat_problem(grid, lambda z: np.sin(np.pi * z))
            if kind == "cubic":
                problem = SemilinearProblem(
                    a=1.0, initial=x0, boundary_left=BoundarySignal.zero(), boundary_right=BoundarySignal.zero(),
                    reaction=lambda z, w, g: w - w**3, lipschitz_k=1.0,
                )
            run = lambda: simulate(problem, grid)
        tracemalloc.start()
        try:
            result = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the closed loop returns its transformed image as a second history
        histories = [result.y_traj.data, result.x_traj.data] if kind == "closed_loop" else [result.data]
        assert peak < sum(h.nbytes for h in histories) + 0.5 * histories[0].nbytes


def _reference_march(grid, a, reaction, x0, boundary):
    """The scheme with a fresh symmetric banded solve (LAPACK ptsv: factor,
    then solve) on every step, through scipy's public API."""
    h, n, dt = grid.h, grid.n_interior, grid.dt
    r = a * dt / h**2
    ab = np.zeros((2, n))  # lower form: the diagonal, then the subdiagonal
    ab[0, :] = 1.0 + 2.0 * r
    ab[1, :-1] = -r
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
        x = np.concatenate(([left], solveh_banded(ab, rhs, lower=True), [right]))
        levels.append(x)
    return np.array(levels)


def _signed_zero_case():
    # x + (-0.0) is x for every double, so the edge vector must keep the
    # state -0.0 where the end-only additions keep it; x + 0.0 would not, and
    # the first solve passes some of those sign bits on.
    grid = Grid1D(n_interior=15, dt=1e-3, t_final=0.02)
    minus_zero = BoundarySignal.constant(-0.0)
    problem = SemilinearProblem(
        a=1.0, initial=Field(np.full(grid.n_nodes, -0.0), grid), boundary_left=minus_zero, boundary_right=minus_zero
    )
    return _open_loop_case(problem, grid)


def _own_argument_case():
    # the reaction hands back w itself, a view of the level being stepped
    grid = Grid1D(n_interior=23, dt=1e-3, t_final=0.05)
    problem = SemilinearProblem(
        a=1.0,
        initial=Field(np.sin(np.pi * grid.nodes), grid),
        boundary_left=BoundarySignal.constant(0.0),
        boundary_right=BoundarySignal.zero(),
        reaction=lambda z, w, g: w,
        lipschitz_k=1.0,
    )
    return _open_loop_case(problem, grid)


def _scalar_reaction_case():
    grid = Grid1D(n_interior=23, dt=1e-3, t_final=0.05)
    problem = SemilinearProblem(
        a=1.0,
        initial=Field(0.5 * np.sin(np.pi * grid.nodes), grid),
        boundary_left=BoundarySignal.zero(),
        boundary_right=BoundarySignal.zero(),
        reaction=lambda z, w, g: 0.75,
    )
    return _open_loop_case(problem, grid)


def _open_loop_case(problem, grid, reaction=None):
    # reaction, if given, is the reference scheme's in place of the problem's own
    times = grid.times()

    def boundary(m, x):
        t1 = times[m + 1]
        return float(problem.boundary_left(t1)), float(problem.boundary_right(t1))

    reference = _reference_march(grid, problem.a, reaction or problem.reaction, problem.initial.values, boundary)
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


def _heat_sampled_n999_case():
    # the closed_loop_fine size, where the solve is about half of a step
    grid = Grid1D(n_interior=999, dt=1e-4, t_final=0.021)
    times = grid.times()
    d0 = BoundarySignal.sampled(times[::3], 0.4 * np.sin(13.0 * times[::3]))
    d1 = BoundarySignal.sampled(times[::7], 0.2 - 0.5 * np.cos(7.0 * times[::7]))
    z = grid.nodes
    x0 = d0(0.0) * (1 - z) + d1(0.0) * z + 0.6 * np.sin(3.0 * np.pi * z)
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


def _closed_loop_n79_case():
    # a sampled disturbance moves the left table and the row's feedback together
    grid = Grid1D(n_interior=79, dt=2e-4, t_final=0.2)
    kernel = solve_kernel(1.0, 10.0, grid)
    times = grid.times()
    d = BoundarySignal.sampled(times[::4], 0.25 * np.cos(17.0 * times[::4]) - 0.1)
    base = Field(np.sin(np.pi * grid.nodes) * (1.0 + 0.3 * grid.nodes), grid)
    y0 = compatible_initial_state(kernel, base, float(d(0.0)))
    run = simulate_closed_loop(1.0, 10.0, y0, d, grid, kernel=kernel)
    row0 = kernel.matrix[0]

    def boundary(m, y):
        return float(d(times[m + 1])) - float(row0 @ y), 0.0

    reference = _reference_march(grid, 1.0, lambda z, w, g: 10.0 * w, y0.values, boundary)
    return run.y_traj.data, reference


def _catalog_linear_case():
    # the catalog's reactions read no gradient, so the march forms none; constant data enter both ends.  The
    # reference steps the same formula with Python numbers.
    grid = Grid1D(n_interior=31, dt=1e-3, t_final=0.1)
    z = grid.nodes
    x0 = 0.4 * (1.0 - z) - 0.7 * z + 0.5 * np.sin(2.0 * np.pi * z)
    problem = SemilinearProblem(
        a=1.0, initial=Field(x0, grid), boundary_left=BoundarySignal.constant(0.4),
        boundary_right=BoundarySignal.constant(-0.7), reaction=make_reaction(("linear", (-6.5,))),
    )
    return _open_loop_case(problem, grid, lambda z, w, g: -6.5 * w)


def _catalog_cubic_case():
    # large enough dt f that w * w * w in place of w**3 would move some bits (two entries), still monotone
    grid = Grid1D(n_interior=47, dt=1e-2, t_final=0.3)
    times = grid.times()
    d0 = BoundarySignal.sampled(times, 0.4 * np.sin(9.0 * times))
    d1 = BoundarySignal.constant(0.3)
    z = grid.nodes
    x0 = d0(0.0) * (1 - z) + d1(0.0) * z + 2.0 * np.sin(np.pi * z)
    problem = SemilinearProblem(
        a=0.5, initial=Field(x0, grid), boundary_left=d0, boundary_right=d1, reaction=make_reaction(("cubic", ())),
    )
    return _open_loop_case(problem, grid, lambda z, w, g: w - w**3)


def _closed_loop_owner_case():
    # the plant's own Reaction at a negative k and a != 1
    grid = Grid1D(n_interior=31, dt=5e-4, t_final=0.1)
    a, k = 0.5, -6.0
    plant = solver.linear_reaction(k)
    assert (plant.lipschitz_k, plant.uses_gradient) == (6.0, False)
    kernel = solve_kernel(a, k, grid)
    times = grid.times()
    d = BoundarySignal.sampled(times, 0.2 - 0.3 * np.cos(11.0 * times))
    y0 = compatible_initial_state(kernel, Field(np.sin(np.pi * grid.nodes), grid), float(d(0.0)))
    run = simulate_closed_loop(a, k, y0, d, grid, kernel=kernel)
    row0 = kernel.matrix[0]

    def boundary(m, y):
        return float(d(times[m + 1])) - float(row0 @ y), 0.0

    reference = _reference_march(grid, a, lambda z, w, g: k * w, y0.values, boundary)
    return run.y_traj.data, reference


@pytest.mark.parametrize(
    "case",
    [_heat_sampled_case, _cubic_case, _gradient_case, _closed_loop_case, _heat_sampled_n199_case,
     _heat_sampled_n999_case, _signed_zero_case, _own_argument_case, _scalar_reaction_case, _closed_loop_n79_case,
     _catalog_linear_case, _catalog_cubic_case, _closed_loop_owner_case],
    ids=["heat_sampled", "cubic", "gradient", "closed_loop_n15", "heat_both_sampled_n199",
         "heat_both_sampled_n999", "signed_zeros", "reaction_returns_w", "scalar_reaction", "closed_loop_n79",
         "catalog_linear", "catalog_cubic", "closed_loop_owner"],
)
def test_prefactored_march_matches_reference_scheme_bitwise(case):
    actual, reference = case()
    assert np.all(np.isfinite(reference))
    assert np.array_equal(actual, reference)
    assert np.array_equal(np.signbit(actual), np.signbit(reference))


@pytest.mark.parametrize("case", [_heat_sampled_case, _cubic_case], ids=["heat_sampled", "cubic"])
def test_march_keeps_a_solution_lapack_returns_in_a_new_array(case, monkeypatch):
    # f2py may copy the right-hand side instead of solving in place; the
    # march must then take the returned array, not its own unsolved row.
    lapack_dpttrs = solver.dpttrs
    calls = []

    def copying_dpttrs(d, e, b, *args, **kwargs):
        calls.append(1)
        return lapack_dpttrs(d, e, b.copy(), *args, **kwargs)

    monkeypatch.setattr(solver, "dpttrs", copying_dpttrs)
    actual, reference = case()
    assert calls
    assert np.array_equal(actual, reference)


def test_only_a_reaction_that_uses_its_gradient_is_handed_one():
    # a bare callable gets the central difference of each level; one that declares it reads none gets None
    grid = Grid1D(n_interior=15, dt=1e-3, t_final=0.02)
    x0 = Field(np.sin(np.pi * grid.nodes) * (1.0 + grid.nodes), grid)
    handed = {True: [], False: []}

    def recorder(uses_gradient):
        def f(z, w, w_z):
            handed[uses_gradient].append(None if w_z is None else w_z.copy())
            return -w
        return f

    histories = {}
    for uses_gradient, reaction in ((True, recorder(True)), (False, Reaction(recorder(False), 1.0, False))):
        problem = SemilinearProblem(
            a=1.0, initial=x0, boundary_left=BoundarySignal.zero(), boundary_right=BoundarySignal.zero(),
            reaction=reaction, lipschitz_k=1.0 if uses_gradient else 0.0,
        )
        histories[uses_gradient] = simulate(problem, grid).data
    data = histories[True]
    assert len(handed[True]) == len(handed[False]) == grid.n_steps
    assert handed[False] == [None] * grid.n_steps
    for m, w_z in enumerate(handed[True]):
        assert np.array_equal(w_z, (data[m, 2:] - data[m, :-2]) / (2.0 * grid.h))
    assert np.array_equal(histories[False], data)
    assert not any(reaction.uses_gradient for reaction in
                   (make_reaction(("linear", (2.0,))), make_reaction(("cubic", ())), solver.linear_reaction(3.0)))


# ROADMAP item 1: three accepted inputs that leave the monotone regime with no error raised.  Each asserts the
# refusal item 1 promises; they fail until the stepper checks the slope it meets and the gradient it reads.
@pytest.mark.xfail(reason="ROADMAP item 1: a reaction that reads x_z is not upwinded; the runs cross by 2.56e150")
def test_gradient_reaction_that_breaks_the_order_is_refused():
    grid = Grid1D(n_interior=49, dt=2e-3, t_final=1.0)
    with pytest.raises(MonotonicityLossError):
        for amplitude in (1.0, 1.1):
            problem = SemilinearProblem(
                a=0.01, initial=Field(amplitude * np.sin(np.pi * grid.nodes), grid),
                boundary_left=BoundarySignal.zero(), boundary_right=BoundarySignal.zero(),
                reaction=lambda z, w, w_z: 20.0 * w_z, lipschitz_k=0.0,
            )
            simulate(problem, grid)


@pytest.mark.xfail(reason="ROADMAP item 1: the cubic's lower slope 1 - 3w^2 is unchecked; one step crosses by 1.27e-3")
def test_cubic_outside_its_monotone_band_is_refused():
    grid = Grid1D(n_interior=49, dt=0.05, t_final=0.05)
    with pytest.raises(MonotonicityLossError):
        for amplitude in (2.9, 3.0):
            problem = SemilinearProblem(
                a=1.0, initial=Field(amplitude * np.sin(np.pi * grid.nodes), grid),
                boundary_left=BoundarySignal.zero(), boundary_right=BoundarySignal.zero(),
                reaction=make_reaction(("cubic", ())),
            )
            simulate(problem, grid)


@pytest.mark.parametrize("r", [0.0, 5e-324, 1e-12, 0.05, 1.0, 1e6, 1e300])
def test_non_finite_value_anywhere_reaches_the_first_unknown(r):
    # The march tests only the first unknown of each solve.  Both sweeps form
    # each unknown as b_i - e b_(i-+1), and inf or NaN times any e, 0
    # included, is not finite, so one bad value anywhere must show there.
    for n in (3, 4, 63, 199):
        d, e, info = solver.dpttrf(np.full(n, 1.0 + 2.0 * r), np.full(n - 1, -r))
        assert info == 0
        for bad in (math.inf, -math.inf, math.nan):
            for i in range(n):
                rhs = np.linspace(-1.0, 1.0, n)
                rhs[i] = bad
                out, _ = solver.dpttrs(d, e, rhs, overwrite_b=1)
                assert not math.isfinite(out[0]), (n, bad, i)


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


def _linear_closed_form(grid, a, c, d0, d1, x0):
    """Every level of the scheme for x_t = a x_zz + c x with constant Dirichlet data, interior nodes only,
    from the eigenvectors of tridiag(-1, 2, -1): x^m = x* + S^T diag(rho^m) S (x0 - x*)."""
    h, n, dt = grid.h, grid.n_interior, grid.dt
    j = np.arange(1, n + 1)
    sines = math.sqrt(2.0 * h) * np.sin(np.pi * np.outer(j, j) * h)  # S_jk = sqrt(2h) sin(j pi z_k), orthonormal
    lam = 4.0 * a / h**2 * np.sin(j * np.pi * h / 2.0) ** 2
    rho = (1.0 + dt * c) / (1.0 + dt * lam)
    operator = a / h**2 * (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) - c * np.eye(n)
    edge = np.zeros(n)
    edge[0], edge[-1] = a / h**2 * d0, a / h**2 * d1
    steady = np.linalg.solve(operator, edge)
    modes = sines @ (x0[1:-1] - steady)
    powers = rho ** np.arange(grid.n_steps + 1)[:, None]
    return steady + (powers * modes) @ sines


@pytest.mark.parametrize(
    "n, c, d0, d1, steps, dt",
    [(31, 0.0, 0.0, 0.0, 100, 1e-2), (63, 0.0, 0.3, 0.7, 1500, 2e-4), (99, 0.0, 1.0, 0.0, 1500, 2e-4),
     (99, 5.0, 0.4, -0.2, 1500, 2e-4), (199, 9.0, 0.5, 0.0, 5000, 1e-4)],
)
def test_linear_march_matches_its_closed_form(n, c, d0, d1, steps, dt):
    # An oracle that shares no code with the stepper: no solve in time and no loop.  c = 0 runs the heat path.
    grid = Grid1D(n_interior=n, dt=dt, t_final=steps * dt)
    a, z = 1.0, grid.nodes
    amplitudes = np.random.default_rng(n).standard_normal(8) / np.arange(1, 9)
    x0 = np.sin(np.pi * np.outer(z, np.arange(1, 9))) @ amplitudes + d0 * (1.0 - z) + d1 * z
    reaction = None if c == 0.0 else (lambda z, w, grad: c * w)
    problem = SemilinearProblem(
        a=a, initial=Field(x0, grid), boundary_left=BoundarySignal.constant(d0),
        boundary_right=BoundarySignal.constant(d1), reaction=reaction, lipschitz_k=c,
    )
    data = simulate(problem, grid).data
    expected = _linear_closed_form(grid, a, c, d0, d1, x0)
    r = a * grid.dt / grid.h**2
    peak = np.max(np.abs(data))
    assert np.max(np.abs(data[:, 1:-1] - expected)) <= steps * (1.0 + 4.0 * r) * np.finfo(float).eps * peak


def _decimal_replay(grid, a, f, x0, d0, d1):
    """Every interior level of the scheme for constant Dirichlet data d0, d1, in 50-digit ``decimal``: the
    doubles a, dt, h, x0, d0 and d1 converted exactly, the explicit reaction ``f`` on one ``Decimal`` at a
    time (None for heat), r d0 and r d1 added to the end entries, then a Thomas sweep for I + r T."""
    with localcontext() as ctx:
        ctx.prec = 50
        n, dt, h = grid.n_interior, Decimal(grid.dt), Decimal(grid.h)
        r = Decimal(a) * dt / (h * h)
        pivots = [1 + 2 * r]  # the pivots of elimination without pivoting, the same every step
        for _ in range(n - 1):
            pivots.append(1 + 2 * r - r * r / pivots[-1])
        x = [Decimal(v) for v in x0[1:-1]]
        levels = [x]
        for _ in range(grid.n_steps):
            b = x if f is None else [w + dt * f(w) for w in x]
            b = [b[0] + r * Decimal(d0), *b[1:-1], b[-1] + r * Decimal(d1)]
            for i in range(1, n):
                b[i] += r / pivots[i - 1] * b[i - 1]
            x = [b[-1] / pivots[-1]]
            for i in range(n - 2, -1, -1):
                x.append((b[i] + r * x[-1]) / pivots[i])
            x.reverse()
            levels.append(x)
        return levels


def test_march_stays_within_the_rounding_allowance_of_an_exact_replay():
    # ROADMAP items 4(a) and 18: the gap between each float level m and its exact replay is at most
    # m (1 + 4r) 2^-52 max|x|, the allowance of the closed-form and first-mode tests, and it is not vacuous: a
    # quarter of it fails on some case.  The replay shares no code with numpy or LAPACK.
    cases = [  # reaction, its Decimal form, n, dt, steps, d0, d1
        (None, None, 15, 1e-2, 200, 0.0, 0.0),
        (None, None, 31, 2e-4, 400, 0.3, -0.5),
        (("linear", (5.0,)), lambda w: Decimal(5.0) * w, 23, 1e-3, 300, 0.4, -0.2),
        (("linear", (-3.0,)), lambda w: Decimal(-3.0) * w, 15, 1e-2, 100, 0.0, 1.0),
        (("cubic", ()), lambda w: w - w * w * w, 15, 1e-2, 200, 0.5, 0.5),
        (("cubic", ()), lambda w: w - w * w * w, 31, 2e-4, 400, 0.0, 0.0),
        (("cubic", ()), lambda w: w - w * w * w, 47, 2e-3, 200, 0.0, 0.7),
    ]
    shares = []
    for selector, f, n, dt, steps, d0, d1 in cases:
        grid = Grid1D(n_interior=n, dt=dt, t_final=steps * dt)
        z = grid.nodes
        x0 = d0 * (1.0 - z) + d1 * z + 0.8 * np.sin(np.pi * z) - 0.3 * np.sin(3.0 * np.pi * z)
        problem = SemilinearProblem(
            a=1.0, initial=Field(x0, grid), boundary_left=BoundarySignal.constant(d0),
            boundary_right=BoundarySignal.constant(d1), reaction=None if selector is None else make_reaction(selector),
        )
        data = simulate(problem, grid).data[:, 1:-1]
        replay = _decimal_replay(grid, 1.0, f, x0, d0, d1)
        gaps = np.array([float(max(abs(Decimal(v) - w) for v, w in zip(row, exact)))
                         for row, exact in zip(data.tolist(), replay)])
        m = np.arange(grid.n_steps + 1)
        allowance = m * (1.0 + 4.0 * grid.dt / grid.h**2) * 2.0**-52 * np.max(np.abs(data))
        assert gaps[0] == 0.0 and np.all(gaps <= allowance), (selector, n)
        shares.append(np.max(gaps[1:] / allowance[1:]))
    assert max(shares) > 0.25, shares


@pytest.mark.parametrize("n", [15, 99, 199])
def test_factorization_refuses_reactions_at_the_discrete_threshold(n):
    # (a/h^2) T - c I is positive definite iff c < lam_h = (4a/h^2) sin^2(pi h/2), the smallest eigenvalue of
    # (a/h^2) T; lam_h lies below the continuous threshold a pi^2, so the factorization refuses between them.
    a, h = 1.0, 1.0 / (n + 1)
    lam_h = 4.0 * a / h**2 * math.sin(math.pi * h / 2.0) ** 2
    verdicts = [dpttrf(np.full(n, 2.0 * a / h**2 - c), np.full(n - 1, -a / h**2))[2]
                for c in (lam_h * (1.0 - 1e-3), lam_h * (1.0 + 1e-3), (lam_h + a * PI2) / 2.0)]
    assert verdicts == [0, n, n]


@pytest.mark.parametrize("n", [15, 31, 99, 199])
def test_steady_states_attain_the_proved_gains(n):
    # x = 1 is the steady state for d0 = d1 = 1; its weighted-L1 norm h cot(pi h/2) is twice the per-boundary
    # gain.  The ramp 1 - z is the steady state for d0 = 1, d1 = 0; its trapezoid L2 norm is sqrt(1/3 + h^2/6).
    grid = Grid1D(n_interior=n, dt=2e-4, t_final=200 * 2e-4)
    h, z = grid.h, grid.nodes
    assert weighted_sin_norms(np.ones(n + 2), h) == pytest.approx(h / math.tan(math.pi * h / 2.0), rel=1e-15)
    assert lp_norms(1.0 - z, h, 2.0) == pytest.approx(math.sqrt(1.0 / 3.0 + h**2 / 6.0), rel=1e-15)
    # The runs attain the bounds norm <= gain (|d0| + |d1|) to rounding, and break them once a gain is shrunk
    # by 1 - 1e-9, as the first-mode test does for rho.
    l1_gain, l2_gain = h / math.tan(math.pi * h / 2.0) / 2.0, math.sqrt(1.0 / 3.0 + h**2 / 6.0)
    for steady, d0, d1, norms, gain in ((np.ones(n + 2), 1.0, 1.0, weighted_sin_norms, l1_gain),
                                        (1.0 - z, 1.0, 0.0, lambda x, h: lp_norms(x, h, 2.0), l2_gain)):
        problem = SemilinearProblem(
            a=1.0, initial=Field(steady, grid), boundary_left=BoundarySignal.constant(d0),
            boundary_right=BoundarySignal.constant(d1),
        )
        data = simulate(problem, grid).data
        assert np.max(np.abs(data - steady)) <= 1e-14
        attained = np.max(norms(data, h))

        def bounded(gain):
            return bool(attained <= gain * (abs(d0) + abs(d1)) * (1.0 + 1e-12))

        assert bounded(gain)
        assert not bounded(gain * (1.0 - 1e-9))


@pytest.mark.parametrize("c", [0.0, 5.0, 9.0], ids=["heat", "linear5", "linear9"])
@pytest.mark.parametrize("n", [15, 31, 99])
def test_first_mode_attains_the_proved_step_factor(n, c):
    # Sampled sin(pi z) is the first eigenvector of tridiag(-1, 2, -1), so with zero data each step multiplies
    # it by rho = (1 + dt c) / (1 + dt lam_h): q at c = 0, rho(c) under linear(c).  Level m must equal
    # rho^m x0 within m (1 + 4r) u max|x| (u = machine epsilon, the allowance of the closed-form test above),
    # and no longer does with rho shrunk by 1 - 1e-9.
    grid = Grid1D(n_interior=n, dt=2e-4, t_final=1500 * 2e-4)
    a, h, dt = 1.0, grid.h, grid.dt
    x0 = np.sin(np.pi * grid.nodes)
    problem = SemilinearProblem(
        a=a, initial=Field(x0, grid), boundary_left=BoundarySignal.zero(), boundary_right=BoundarySignal.zero(),
        reaction=None if c == 0.0 else (lambda z, w, grad: c * w), lipschitz_k=c,
    )
    data = simulate(problem, grid).data[:, 1:-1]
    lam_h = 4.0 * a / h**2 * math.sin(math.pi * h / 2.0) ** 2
    rho = (1.0 + dt * c) / (1.0 + dt * lam_h)
    m = np.arange(grid.n_steps + 1)[:, None]
    allowance = m * (1.0 + 4.0 * a * dt / h**2) * np.finfo(float).eps * np.max(np.abs(data))

    def attained(factor):
        return bool(np.all(np.abs(data - factor**m * x0[1:-1]) <= allowance))

    assert attained(rho)
    assert not attained(rho * (1.0 - 1e-9))


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
        assert pde_residual_sup(traj.data, grid_small.dt, grid_small.h, 1.0) == 0.0

    def test_exact_solution_residual_small(self):
        # residual of the injected analytic eigen-solution is quadrature-level
        grid = Grid1D(n_interior=99, dt=1e-4, t_final=0.05)
        times = grid.times()
        data = np.exp(-PI2 * times)[:, None] * np.sin(np.pi * grid.nodes)[None, :]
        # truncation error of central differences on the smooth solution
        assert pde_residual_sup(data, grid.dt, grid.h, 1.0) < PI2**2 * (grid.h**2 + grid.dt)

    def test_refinement_drops_residual(self):
        values = []
        for n, dt in ((49, 4e-4), (99, 1e-4)):
            grid = Grid1D(n_interior=n, dt=dt, t_final=0.05)
            traj = simulate(heat_problem(grid, lambda z: np.sin(np.pi * z)), grid)
            values.append(pde_residual_sup(traj.data, grid.dt, grid.h, 1.0))
        assert values[0] / values[1] >= 1.8


class TestTrajectoryExport:
    def test_exact_npy_at_the_given_path(self, tmp_path, grid_small):
        traj = simulate(heat_problem(grid_small, lambda z: np.sin(np.pi * z)), grid_small)
        p1, p2 = tmp_path / "a", tmp_path / "b.npy"
        write_trajectory(traj, p1)
        write_trajectory(traj, p2)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["a", "b.npy"]  # no suffix is added
        saved = np.load(p1, allow_pickle=False)
        assert saved.dtype == np.dtype("<f8") and saved.flags.c_contiguous
        assert saved.shape == (len(traj), grid_small.n_nodes)
        assert saved.tobytes() == traj.data.tobytes()
        assert p1.read_bytes() == p2.read_bytes()

    def test_fortran_ordered_history_is_saved_in_c_order(self, tmp_path, grid_small):
        times = grid_small.times()
        data = np.asfortranarray(np.random.default_rng(5).standard_normal((times.size, grid_small.n_nodes)))
        data.setflags(write=False)  # a read-only history is kept as given, in its own order
        traj = Trajectory(grid_small, times, data)
        assert traj.data.flags.f_contiguous and not traj.data.flags.c_contiguous
        write_trajectory(traj, tmp_path / "f.npy")
        saved = np.load(tmp_path / "f.npy", allow_pickle=False)
        assert saved.flags.c_contiguous and saved.tobytes() == np.ascontiguousarray(data).tobytes()
