import numpy as np
import pytest

from iss_parabolic import (
    Field,
    Grid1D,
    InvalidFieldError,
    InvalidParameterError,
    Trajectory,
)


class TestGrid1D:
    def test_mesh_width_is_exact(self):
        grid = Grid1D(n_interior=99, dt=1e-3, t_final=0.1)
        assert grid.h == 1.0 / 100.0
        assert grid.n_nodes == 101
        assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_interior=2, dt=1e-3, t_final=0.1),
            dict(n_interior=10, dt=0.0, t_final=0.1),
            dict(n_interior=10, dt=-1e-3, t_final=0.1),
            dict(n_interior=10, dt=1e-2, t_final=1e-3),
            dict(n_interior=9, dt=0.03, t_final=0.1),
        ],
    )
    def test_invariants_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            Grid1D(**kwargs)

    def test_times_cover_horizon(self):
        grid = Grid1D(n_interior=9, dt=0.025, t_final=0.1)
        times = grid.times()
        assert times[0] == 0.0
        assert times[-1] == grid.t_final
        assert np.allclose(np.diff(times), grid.dt)

    def test_step_count_exact_multiple(self):
        grid = Grid1D(n_interior=9, dt=0.05, t_final=0.2)
        assert grid.n_steps == 4


class TestField:
    def test_rejects_wrong_length(self):
        grid = Grid1D(n_interior=9, dt=1e-3, t_final=0.1)
        with pytest.raises(InvalidFieldError):
            Field(np.zeros(5), grid)

    def test_rejects_non_finite(self):
        grid = Grid1D(n_interior=9, dt=1e-3, t_final=0.1)
        values = np.zeros(grid.n_nodes)
        values[3] = np.nan
        with pytest.raises(InvalidFieldError):
            Field(values, grid)

    def test_values_are_immutable_copies(self):
        grid = Grid1D(n_interior=9, dt=1e-3, t_final=0.1)
        src = np.ones(grid.n_nodes)
        f = Field(src, grid)
        src[0] = 7.0
        assert f.values[0] == 1.0
        with pytest.raises(ValueError):
            f.values[0] = 2.0


class TestTrajectory:
    def _make(self, grid, data, times=None):
        times = np.arange(data.shape[0]) * grid.dt if times is None else times
        return Trajectory(grid=grid, times=times, data=data)

    def test_times_must_increase_from_zero(self):
        grid = Grid1D(n_interior=9, dt=1e-3, t_final=0.1)
        data = np.zeros((3, grid.n_nodes))
        with pytest.raises(InvalidParameterError):
            self._make(grid, data, times=np.array([0.0, 2e-3, 2e-3]))
        with pytest.raises(InvalidParameterError):
            self._make(grid, data, times=np.array([1e-3, 2e-3, 3e-3]))

    def test_truncation_keeps_prefix(self):
        grid = Grid1D(n_interior=9, dt=1e-3, t_final=0.1)
        data = np.arange(5 * grid.n_nodes, dtype=float).reshape(5, grid.n_nodes)
        traj = self._make(grid, data)
        short = traj.truncated(2.5e-3)
        assert len(short) == 3
        assert np.array_equal(short.data, traj.data[:3])
        assert short.times[0] == 0.0

    def test_data_copied_only_while_writeable(self):
        grid = Grid1D(n_interior=9, dt=1e-3, t_final=0.1)
        data = np.ones((3, grid.n_nodes))
        view = data[:]
        view.setflags(write=False)
        for source in (data, view):
            traj = self._make(grid, source)
            assert not np.shares_memory(traj.data, data)
            assert not traj.data.flags.writeable
        data.setflags(write=False)
        assert self._make(grid, data).data is data

    def test_state_roundtrip(self):
        grid = Grid1D(n_interior=9, dt=1e-3, t_final=0.1)
        data = np.random.default_rng(0).standard_normal((3, grid.n_nodes))
        traj = self._make(grid, data)
        assert np.array_equal(traj.state(1).values, data[1])
        assert np.array_equal(traj.final_state.values, data[-1])
        assert np.array_equal(traj.boundary_left, data[:, 0])
        assert np.array_equal(traj.boundary_right, data[:, -1])
        with pytest.raises(ValueError):
            traj.boundary_left[0] = 1.0
