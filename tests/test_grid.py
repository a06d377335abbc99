import re
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from iss_parabolic import (
    Field,
    Grid1D,
    InvalidFieldError,
    InvalidParameterError,
    Trajectory,
)
from iss_parabolic.backstepping import VolterraKernel, write_kernel_csv
from iss_parabolic.certify import write_decay_csv, write_report_csv, write_summary_csv
from iss_parabolic.monotone import write_sandwich_csv
from iss_parabolic.runner import _write_check_csv
from iss_parabolic.solver import write_trajectory_csv


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

    @pytest.mark.parametrize(
        "data,wording",
        [(np.zeros((3, 10)), "trajectory data shape (3, 10) does not match 3 times x 11 nodes"),
         (np.zeros(11), "trajectory data shape (11,) does not match 11 times x 11 nodes"),
         (np.full((3, 11), np.nan), "trajectory contains non-finite entries")],
        ids=["columns", "one_dimensional", "non_finite"],
    )
    def test_unusable_data_rejected(self, data, wording):
        grid = Grid1D(n_interior=9, dt=1e-3, t_final=0.1)
        with pytest.raises(InvalidFieldError, match=re.escape(wording)):
            self._make(grid, data)

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


# The per-row loops every CSV artifact was written with before the shared
# writer; the writers must reproduce their bytes exactly.
def _rows_trajectory(traj, path):
    nodes = traj.grid.nodes
    with open(path, "w", newline="\n") as fh:
        fh.write("t,z,value\n")
        for k in range(len(traj)):
            t = traj.times[k]
            row = traj.data[k]
            for z, v in zip(nodes, row):
                fh.write(f"{t:.17g},{z:.17g},{v:.17g}\n")


def _rows_sandwich(report, path):
    with open(path, "w", newline="\n") as fh:
        fh.write("t,min_gap_low,min_gap_high\n")
        for t, lo, hi in zip(report.times, report.min_gap_low, report.min_gap_high):
            fh.write(f"{t:.17g},{lo:.17g},{hi:.17g}\n")


def _rows_margin(path, times, lhs, rhs):
    with open(path, "w", newline="\n") as fh:
        fh.write("t,lhs,rhs,margin\n")
        for t, lo, hi in zip(times, lhs, rhs):
            fh.write(f"{t:.17g},{lo:.17g},{hi:.17g},{hi - lo:.17g}\n")


def _rows_summary(report, path):
    with open(path, "w", newline="\n") as fh:
        fh.write("estimate_id,pass,min_margin\n")
        fh.write(f"{report.estimate_id},{str(report.passed).lower()},{report.margin:.17g}\n")


def _rows_kernel(kernel, path):
    nodes = kernel.grid.nodes
    with open(path, "w", newline="\n") as fh:
        fh.write("z,s,k_value\n")
        for i, z in enumerate(nodes):
            for j in range(i, len(nodes)):
                fh.write(f"{z:.17g},{nodes[j]:.17g},{kernel.samples[i, j]:.17g}\n")


def _rows_checks(checks, path):
    with open(path, "w", newline="\n") as fh:
        fh.write("check,value,threshold,pass\n")
        for name, value, threshold in checks:
            fh.write(f"{name},{value:.17g},{threshold:.17g},{str(value <= threshold).lower()}\n")


def _writer_cases():
    grid = Grid1D(n_interior=5, dt=0.1, t_final=0.6)
    special = np.array([-0.0, 5e-324, 1e300, -2.5, 1.0 / 3.0, -1e300, 0.1])
    rng = np.random.default_rng(4)
    times = np.array([-0.0, 5e-324, 0.1, 1.0 / 3.0, 1e300])
    data = rng.standard_normal((times.size, grid.n_nodes)) * 10.0
    data[1] = special
    inf, nan = np.inf, np.nan
    # Non-finite cells: margins rhs - lhs of -inf, inf and nan (inf - inf among them).
    lhs = np.concatenate([special[:5], [inf, -inf, nan, 1.0, inf]])
    rhs = np.concatenate([special[::-1][:5], [1.0, 1.0, 2.0, nan, inf]])
    rows_times = np.concatenate([times, -times])
    report = SimpleNamespace(times=rows_times, lhs=lhs, rhs=rhs, estimate_id="l2", passed=False, margin=-1.0 / 3.0)
    decay = SimpleNamespace(times=rows_times, norm_lhs=lhs, norm_rhs=rhs)
    sandwich = SimpleNamespace(times=rows_times, min_gap_low=lhs, min_gap_high=-rhs)
    samples = np.triu(rng.standard_normal((grid.n_nodes, grid.n_nodes)))
    samples[0] = special
    kernel = VolterraKernel(samples, 1.0, "direct", grid)
    # Text cells holding "%" must pass through a %-template unchanged.
    checks = [("a", -0.0, 5e-324), ("b", 1e300, -2.5), ("c", 0.1, 0.1),
              ("100%", inf, 1.0), ("%s", -inf, nan), ("%(x)s %%d", nan, inf)]
    summaries = {
        f"summary_{margin}": SimpleNamespace(estimate_id=estimate_id, passed=passed, margin=margin)
        for estimate_id, passed, margin in (("100%", True, inf), ("%s", False, -inf), ("%(x)s %%d", False, nan))
    }
    return {
        "trajectory": (write_trajectory_csv, _rows_trajectory, Trajectory(grid, times, data)),
        "sandwich": (write_sandwich_csv, _rows_sandwich, sandwich),
        "report": (write_report_csv, lambda r, p: _rows_margin(p, r.times, r.lhs, r.rhs), report),
        "decay": (write_decay_csv, lambda r, p: _rows_margin(p, r.times, r.norm_lhs, r.norm_rhs), decay),
        "summary": (write_summary_csv, _rows_summary, report),
        **{case: (write_summary_csv, _rows_summary, summary) for case, summary in summaries.items()},
        "kernel": (write_kernel_csv, _rows_kernel, kernel),
        "check_table": (_write_check_csv, _rows_checks, checks),
    }


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf margins
@pytest.mark.parametrize("case", sorted(_writer_cases()))
def test_writer_matches_row_loop(case, tmp_path):
    writer, rows, obj = _writer_cases()[case]
    writer(obj, tmp_path / "new.csv")
    rows(obj, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_trajectory_writer_streams_one_level_at_a_time(tmp_path):
    # A writer that converts the whole history at once holds every value as a
    # Python float; one level at a time needs a small fraction of that.
    grid = Grid1D(n_interior=199, dt=1e-4, t_final=0.3)
    data = np.random.default_rng(2).standard_normal((grid.n_steps + 1, grid.n_nodes))
    traj = Trajectory(grid, grid.times(), data)
    assert data.shape == (3001, 201)
    whole = data.size * (sys.getsizeof(0.0) + 8)  # data.tolist(): a float object and a pointer per value
    tracemalloc.start()
    try:
        write_trajectory_csv(traj, tmp_path / "trajectory.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < whole / 10, (peak, whole)
