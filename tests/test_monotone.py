import math

import numpy as np
import pytest

from iss_parabolic import (
    BoundarySignal,
    BracketingError,
    Field,
    Grid1D,
    IncompatibleTrajectoryError,
    InvalidParameterError,
    SemilinearProblem,
    Trajectory,
    build_bracket,
    check_ordering,
    constant_reduction_experiment,
    norm_lp,
)
from iss_parabolic.monotone import write_sandwich_csv
from conftest import heat_problem


def _traj_from(grid, data):
    return Trajectory(grid=grid, times=np.arange(data.shape[0]) * grid.dt, data=data)


class TestCheckOrdering:
    def test_identical_trajectories_pass_with_zero_violation(self, grid_small):
        data = np.random.default_rng(0).standard_normal((4, grid_small.n_nodes))
        a, b = _traj_from(grid_small, data), _traj_from(grid_small, data)
        report = check_ordering(a, b, tol=0.0)
        assert report.passed and report.worst_violation == 0.0

    def test_constructed_violation_located(self, grid_small):
        data = np.zeros((4, grid_small.n_nodes))
        low = data.copy()
        low[2, 7] = 0.1
        report = check_ordering(_traj_from(grid_small, low), _traj_from(grid_small, data), tol=1e-12)
        assert not report.passed
        assert report.worst_violation == pytest.approx(0.1)
        assert report.worst_time == pytest.approx(2 * grid_small.dt)
        assert report.worst_node == pytest.approx(grid_small.nodes[7])
        assert report.min_gap.tolist() == [0.0, 0.0, -0.1, 0.0]  # row minima of high - low

    def test_nan_tolerance_rejected(self, grid_small):
        # NaN would fail identical trajectories with zero violation
        a = _traj_from(grid_small, np.zeros((3, grid_small.n_nodes)))
        with pytest.raises(InvalidParameterError, match="ordering tolerance"):
            check_ordering(a, a, math.nan)

    def test_grid_mismatch_rejected(self, grid_small, grid_medium):
        a = _traj_from(grid_small, np.zeros((3, grid_small.n_nodes)))
        b = _traj_from(grid_medium, np.zeros((3, grid_medium.n_nodes)))
        with pytest.raises(IncompatibleTrajectoryError):
            check_ordering(a, b)


class TestBracket:
    # At h = 0.01 the scan's thinnest width is 1/128, the first dyadic width below h.
    @pytest.mark.parametrize(
        "amplitude, width", [(1.0, 0.25), (2.0, 0.125), (4.0, 0.0625), (8.0, 0.03125), (40.0, 0.0078125)]
    )
    def test_bracket_is_the_formula_at_the_widest_dyadic_width(self, amplitude, width):
        grid = Grid1D(n_interior=99, dt=1e-4, t_final=0.1)
        nodes = grid.nodes
        x = Field(amplitude * np.sin(np.pi * nodes), grid)
        u_sup, epsilon = 1.0, 0.05
        level = u_sup + epsilon
        # The hat of width delta is positive exactly within delta of an end, so the widest dyadic
        # width keeps every node with |x| > level at least delta from both ends.
        exceeding = np.minimum(nodes, 1.0 - nodes)[np.abs(x.values) > level]
        delta = 0.25
        while exceeding.size and delta > exceeding.min():
            delta *= 0.5
        assert delta == width
        k = np.maximum(0.0, 1.0 - nodes / delta) + np.maximum(0.0, 1.0 - (1.0 - nodes) / delta)
        x_minus, x_plus, returned = build_bracket(x, u_sup, epsilon)
        assert returned == level
        assert np.array_equal(x_minus.values, (1.0 - k) * x.values - level * k)
        assert np.array_equal(x_plus.values, (1.0 - k) * x.values + level * k)
        assert np.all(x_minus.values <= x.values) and np.all(x.values <= x_plus.values)
        assert x_minus.values[[0, -1]].tolist() == [-level, -level]
        assert x_plus.values[[0, -1]].tolist() == [level, level]

    def test_zero_state_bracket_is_scaled_hat(self):
        grid = Grid1D(n_interior=99, dt=1e-4, t_final=0.1)
        x_minus, x_plus, level = build_bracket(Field.zeros(grid), u_sup=1.0, epsilon=0.1)
        hat = np.maximum(0.0, 1.0 - grid.nodes / 0.25) + np.maximum(0.0, 1.0 - (1.0 - grid.nodes) / 0.25)
        assert level == 1.0 + 0.1
        assert np.array_equal(x_minus.values, -level * hat)
        assert np.array_equal(x_plus.values, level * hat)
        assert norm_lp(x_minus, math.inf) == pytest.approx(1.1)

    def test_constant_state_boundary_value_forced(self):
        grid = Grid1D(n_interior=49, dt=1e-4, t_final=0.1)
        x = Field(np.full(grid.n_nodes, 0.4), grid)
        x_minus, x_plus, _ = build_bracket(x, u_sup=0.5, epsilon=0.2)
        assert x_minus.values[[0, -1]].tolist() == [-(0.5 + 0.2)] * 2
        assert x_plus.values[[0, -1]].tolist() == [+(0.5 + 0.2)] * 2
        assert np.all(x_minus.values <= x.values + 1e-15)
        assert np.all(x.values <= x_plus.values + 1e-15)

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, math.inf])
    def test_norm_bounds_hold(self, p):
        grid = Grid1D(n_interior=63, dt=1e-4, t_final=0.1)
        rng = np.random.default_rng(5)
        for _ in range(10):
            vals = rng.uniform(-0.8, 0.8) * np.sin(np.pi * grid.nodes) + rng.uniform(-0.3, 0.3)
            x = Field(vals, grid)
            u_sup = float(np.abs(vals[[0, -1]]).max()) + 0.05
            eps = 0.1
            x_minus, x_plus, level = build_bracket(x, u_sup, eps)
            assert level == u_sup + eps
            for side in (x_minus, x_plus):
                assert norm_lp(side, p) <= norm_lp(x, p) + level + 1e-12
                # envelope modulus xi(s) = (1 + mu(G)^(1/p)) s = 2 s on unit measure
                assert norm_lp(side, p) <= 2.0 * (norm_lp(x, p) + u_sup + eps) + 1e-12

    def test_epsilon_shrink_tightens_input_bound(self):
        grid = Grid1D(n_interior=49, dt=1e-4, t_final=0.1)
        x = Field.zeros(grid)
        levels = [build_bracket(x, u_sup=1.0, epsilon=eps)[2] for eps in (0.4, 0.2, 0.1, 0.05)]
        assert levels == sorted(levels, reverse=True)
        assert levels[-1] == pytest.approx(1.05)

    def test_infeasible_layer_rejected(self):
        grid = Grid1D(n_interior=49, dt=1e-4, t_final=0.1)
        x = Field(np.full(grid.n_nodes, 3.0), grid)
        with pytest.raises(BracketingError, match="no admissible cutoff width"):
            build_bracket(x, u_sup=0.5, epsilon=0.1)

    @pytest.mark.parametrize(
        "u_sup, epsilon",
        [(0.5, math.nan), (0.5, math.inf), (0.5, 0.0), (0.5, -1.0), (math.nan, 0.1), (math.inf, 0.1), (-0.5, 0.1)],
    )
    def test_out_of_domain_levels_rejected(self, u_sup, epsilon):
        # refused before any scan, not reported as an infeasible layer
        x = Field.zeros(Grid1D(n_interior=49, dt=1e-4, t_final=0.1))
        with pytest.raises(InvalidParameterError, match="need finite u_sup >= 0 and epsilon > 0"):
            build_bracket(x, u_sup, epsilon)


class TestSandwich:
    def test_zero_data_passes(self, grid_small):
        problem = heat_problem(grid_small, lambda z: np.zeros_like(z))
        report = constant_reduction_experiment(problem, grid_small, epsilon=0.05)
        assert report.passed
        assert np.all(report.min_gap_low >= -1e-10)

    def test_heat_with_sinusoid_disturbance(self, grid_small):
        times = grid_small.times()
        d0 = BoundarySignal.sampled(times, 0.3 * np.sin(5.0 * times))
        problem = heat_problem(grid_small, lambda z: np.sin(np.pi * z), d0=d0)
        report = constant_reduction_experiment(problem, grid_small, epsilon=0.05, tol=1e-10)
        assert report.passed

    def test_cubic_reaction_sandwich(self, grid_small):
        times = grid_small.times()
        d1 = BoundarySignal.sampled(times, np.where(times >= 0.05, 0.4, 0.0))
        problem = SemilinearProblem(
            a=1.0,
            initial=Field(0.8 * np.sin(np.pi * grid_small.nodes), grid_small),
            boundary_left=BoundarySignal.zero(),
            boundary_right=d1,
            reaction=lambda z, w, g: w - w**3,
            lipschitz_k=1.0,
        )
        report = constant_reduction_experiment(problem, grid_small, epsilon=0.1, tol=1e-10)
        assert report.passed

    def test_csv_export(self, tmp_path, grid_small):
        problem = heat_problem(grid_small, lambda z: np.sin(np.pi * z))
        report = constant_reduction_experiment(problem, grid_small, epsilon=0.05)
        path = tmp_path / "sandwich.csv"
        write_sandwich_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,min_gap_low,min_gap_high"
        assert len(lines) == 1 + len(report.traj.times)
