import math
import re

import numpy as np
import pytest

from iss_parabolic import (
    BoundarySignal,
    ClosedLoopConstants,
    EstimationError,
    Field,
    Grid1D,
    InapplicableEstimateError,
    InvalidParameterError,
    SemilinearProblem,
    Trajectory,
    check_fitted_lp,
    check_l2,
    check_weighted_l1,
    check_weighted_sup,
    certify_closed_loop,
    compatible_initial_state,
    estimate_equivalence_constants,
    estimate_exp_iss_constants,
    lyapunov_decay_certificate,
    norm_weighted_sin,
    simulate,
    simulate_closed_loop,
    solve_inverse_kernel,
    solve_kernel,
)
from iss_parabolic.certify import fit_decay_rate, write_report_csv, write_summary_csv
from conftest import heat_problem

PI2 = math.pi**2


def _steady_unit_problem(grid):
    """Constant unit disturbances at both ends, compatible initial data."""
    return heat_problem(
        grid, lambda z: 1.0 + 0.5 * np.sin(np.pi * z),
        d0=BoundarySignal.constant(1.0), d1=BoundarySignal.constant(1.0),
    )


class TestWeightedL1:
    def test_zero_data_passes(self, grid_small):
        traj = simulate(heat_problem(grid_small, lambda z: np.zeros_like(z)), grid_small)
        report = check_weighted_l1(traj)
        assert report.passed and report.margin == 0.0

    def test_eigenfunction_saturates_decay(self, grid_medium):
        traj = simulate(heat_problem(grid_medium, lambda z: np.sin(np.pi * z)), grid_medium)
        report = check_weighted_l1(traj)
        assert report.passed
        # the first mode saturates the decay term: both sides nearly equal
        assert np.max(np.abs(report.rhs - report.lhs) / report.rhs) < 5e-3

    def test_steady_state_margin_shrinks_to_gain_sum(self):
        grid = Grid1D(n_interior=99, dt=2e-4, t_final=1.5)
        traj = simulate(_steady_unit_problem(grid), grid)
        report = check_weighted_l1(traj)
        assert report.passed
        final = norm_weighted_sin(traj.final_state)
        assert final == pytest.approx(2.0 / math.pi, rel=0.01)
        # asymptotic margin approaches zero from above
        assert 0.0 <= report.rhs[-1] - report.lhs[-1] < 5e-3

    def test_tampered_gain_fails(self):
        grid = Grid1D(n_interior=49, dt=2e-4, t_final=1.0)
        traj = simulate(_steady_unit_problem(grid), grid)
        report = check_weighted_l1(traj, gain_override=0.1)
        assert not report.passed
        assert report.gain.c == 0.1  # the report carries the gain it was checked against

    def test_non_heat_rejected(self, grid_small):
        problem = SemilinearProblem(
            a=1.0,
            initial=Field.zeros(grid_small),
            boundary_left=BoundarySignal.zero(),
            boundary_right=BoundarySignal.zero(),
            reaction=lambda z, w, g: w,
            lipschitz_k=1.0,
        )
        traj = simulate(problem, grid_small)
        with pytest.raises(InapplicableEstimateError):
            check_weighted_l1(traj)


class TestL2:
    def test_transient_factor_dominates_eigen_decay(self):
        # at t = 0.1 the sharp transient sqrt(e/(2-e)) exceeds plain e^{-pi^2 t}
        grid = Grid1D(n_interior=99, dt=1e-4, t_final=0.1)
        traj = simulate(heat_problem(grid, lambda z: np.sin(np.pi * z)), grid)
        report = check_l2(traj)
        assert report.passed
        t = traj.times[-1]
        decay = math.exp(-PI2 * t)
        expected_rhs = math.sqrt(decay / (2.0 - decay)) * report.lhs[0]
        assert report.rhs[-1] == pytest.approx(expected_rhs, rel=1e-12)
        assert report.lhs[-1] < report.rhs[-1]

    def test_gain_is_inverse_sqrt_three(self, grid_small):
        traj = simulate(heat_problem(grid_small, lambda z: np.zeros_like(z)), grid_small)
        report = check_l2(traj)
        assert report.gain.c == pytest.approx(1.0 / math.sqrt(3.0))

    def test_constant_disturbance_gain_is_sharp(self):
        # steady state of d0 = 1, d1 = 0 is the ramp 1 - z with L2 norm 1/sqrt(3)
        grid = Grid1D(n_interior=99, dt=2e-4, t_final=1.5)
        problem = heat_problem(
            grid, lambda z: 1.0 - z, d0=BoundarySignal.constant(1.0), d1=BoundarySignal.zero()
        )
        report = check_l2(simulate(problem, grid))
        assert report.passed
        assert report.lhs[-1] == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-3)
        assert report.rhs[-1] - report.lhs[-1] < 5e-3


class TestWeightedSup:
    def test_zero_disturbance_decay(self, grid_medium):
        traj = simulate(heat_problem(grid_medium, lambda z: np.sin(np.pi * z)), grid_medium)
        report = check_weighted_sup(traj, sigma=0.5 * PI2, theta=0.4)
        assert report.passed

    def test_boundary_gain_formula(self):
        # constant d0 from its own steady ramp: once the decay term has died
        # out the bound is the left boundary gain times |d0|
        grid = Grid1D(n_interior=49, dt=2e-4, t_final=0.5)
        d0 = -0.7
        problem = heat_problem(grid, lambda z: d0 * (1.0 - z), d0=BoundarySignal.constant(d0))
        sigma, theta = 0.3 * PI2, 0.5
        report = check_weighted_sup(simulate(problem, grid), sigma=sigma, theta=theta)
        phi = math.sqrt(sigma)
        assert report.beta(report.lhs[0], report.times[-1]) < report.rhs[-1]
        assert report.rhs[-1] == pytest.approx(math.sin(theta + phi) / math.sin(theta) * abs(d0), rel=1e-12)

    def test_disturbed_run_passes(self, grid_small):
        times = grid_small.times()
        d0 = BoundarySignal.sampled(times, 0.5 * np.sin(8.0 * times))
        traj = simulate(heat_problem(grid_small, lambda z: np.sin(np.pi * z), d0=d0), grid_small)
        report = check_weighted_sup(traj, sigma=0.5 * PI2, theta=0.4)
        assert report.passed

    def test_omitted_sigma_and_theta_default_from_a(self, grid_small):
        a = 0.5
        times = grid_small.times()
        d0 = BoundarySignal.sampled(times, 0.5 * np.sin(8.0 * times))
        traj = simulate(heat_problem(grid_small, lambda z: np.sin(np.pi * z), d0=d0, a=a), grid_small)
        sigma = 0.5 * a * PI2
        theta = 0.5 * (math.pi - math.sqrt(sigma / a))
        explicit = check_weighted_sup(traj, sigma=sigma, theta=theta)
        assert np.array_equal(check_weighted_sup(traj).rhs, explicit.rhs)
        assert np.array_equal(check_weighted_sup(traj, theta=theta).rhs, explicit.rhs)

    def test_sigma_domain_enforced(self, grid_small):
        traj = simulate(heat_problem(grid_small, lambda z: np.zeros_like(z)), grid_small)
        with pytest.raises(InvalidParameterError):
            check_weighted_sup(traj, sigma=1.5 * PI2, theta=0.4)
        with pytest.raises(InvalidParameterError):
            check_weighted_sup(traj, sigma=0.5 * PI2, theta=math.pi)


class TestLyapunovCertificate:
    def test_certified_exponent_p4(self, grid_medium):
        problem = heat_problem(grid_medium, lambda z: np.sin(np.pi * z))
        report = lyapunov_decay_certificate(problem, grid_medium, p=4.0)
        assert report.passed
        assert report.norm_rate == pytest.approx(0.75 * PI2)
        assert report.norm_rate == pytest.approx(7.402, abs=2e-3)

    def test_exponent_limit_towards_two(self, grid_small):
        problem = heat_problem(grid_small, lambda z: np.sin(np.pi * z))
        report = lyapunov_decay_certificate(problem, grid_small, p=2.0 + 1e-9)
        assert report.norm_rate == pytest.approx(PI2, rel=1e-8)

    @pytest.mark.parametrize("p", [3.0, 4.0, 8.0])
    def test_certificate_holds_multimode(self, p):
        grid = Grid1D(n_interior=99, dt=2e-4, t_final=0.25)
        problem = heat_problem(grid, lambda z: np.sin(np.pi * z) + 0.3 * np.sin(3 * np.pi * z))
        report = lyapunov_decay_certificate(problem, grid, p=p)
        assert report.passed

    def test_measured_decay_exceeds_certificate(self, grid_medium):
        problem = heat_problem(grid_medium, lambda z: np.sin(np.pi * z))
        report = lyapunov_decay_certificate(problem, grid_medium, p=4.0)
        fitted = -np.polyfit(report.times, np.log(report.norm_lhs), 1)[0]
        assert fitted > report.norm_rate  # the certificate is not tight off p = 2

    def test_preconditions(self, grid_small):
        problem = heat_problem(grid_small, lambda z: np.sin(np.pi * z))
        with pytest.raises(InvalidParameterError):
            lyapunov_decay_certificate(problem, grid_small, p=2.0)
        disturbed = heat_problem(
            grid_small, lambda z: np.sin(np.pi * z) + z, d1=BoundarySignal.constant(1.0)
        )
        with pytest.raises(InapplicableEstimateError):
            lyapunov_decay_certificate(disturbed, grid_small, p=4.0)


@pytest.mark.parametrize("tol", [math.nan, -0.5, 1.0])
def test_relative_tolerance_outside_unit_interval_rejected(tol):
    # NaN failed every check and tol >= 1 passed every check; both are refused.
    grid = Grid1D(n_interior=31, dt=1e-3, t_final=0.05)
    problem = heat_problem(grid, lambda z: np.sin(np.pi * z))
    with pytest.raises(InvalidParameterError):
        check_l2(simulate(problem, grid), tol=tol)
    with pytest.raises(InvalidParameterError):
        lyapunov_decay_certificate(problem, grid, 3.0, tol=tol)


def test_zero_relative_tolerance_accepted():
    grid = Grid1D(n_interior=31, dt=1e-3, t_final=0.05)
    problem = heat_problem(grid, lambda z: np.sin(np.pi * z))
    assert check_l2(simulate(problem, grid), tol=0.0).tol == 0.0


_FIT_GRID = Grid1D(n_interior=15, dt=1e-3, t_final=0.1)


def _forced_run():
    """Zero initial state, unit step at z = 0 from t = 0.02."""
    times = _FIT_GRID.times()
    step = BoundarySignal.sampled(times, np.where(times >= 0.02, 1.0, 0.0))
    return simulate(heat_problem(_FIT_GRID, np.zeros_like, d0=step), _FIT_GRID)


def _growing_run():
    """Zero boundary data under the reaction 20 w, which outgrows the decay rate pi^2."""
    problem = SemilinearProblem(
        a=1.0, initial=Field(np.sin(np.pi * _FIT_GRID.nodes), _FIT_GRID), boundary_left=BoundarySignal.zero(),
        boundary_right=BoundarySignal.zero(), reaction=lambda z, w, grad: 20.0 * w, lipschitz_k=20.0,
    )
    return simulate(problem, _FIT_GRID)


def _reaction_certificate():
    problem = SemilinearProblem(
        a=1.0, initial=Field.zeros(_FIT_GRID), boundary_left=BoundarySignal.zero(),
        boundary_right=BoundarySignal.zero(), reaction=lambda z, w, grad: -w, lipschitz_k=1.0,
    )
    return lyapunov_decay_certificate(problem, _FIT_GRID, 3.0)


# Each documented refusal reached through public arguments: the case id, the call, the error and its wording.
REFUSALS = [
    ("lyapunov_reaction", _reaction_certificate, InapplicableEstimateError,
     "the Lyapunov certificate applies to the heat equation"),
    ("two_point_fit", lambda: fit_decay_rate(np.array([0.0, 0.1]), np.array([1.0, 0.5])), EstimationError,
     "trajectory too short or degenerate for a decay fit"),
    ("no_zero_input_run", lambda: estimate_exp_iss_constants([_forced_run()], 2.0), EstimationError,
     "need a zero-disturbance scenario with nonzero initial data"),
    ("growing_zero_input_run", lambda: estimate_exp_iss_constants([_growing_run(), _forced_run()], 2.0),
     EstimationError, "fitted decay rate is not positive: -"),
]


@pytest.mark.parametrize("call,error,wording", [case[1:] for case in REFUSALS], ids=[case[0] for case in REFUSALS])
def test_documented_refusal(call, error, wording):
    with pytest.raises(error, match=re.escape(wording)):
        call()


class TestFittedConstants:
    def _scenarios(self, grid, with_holdout=False):
        decay = simulate(heat_problem(grid, lambda z: np.sin(np.pi * z)), grid)
        times = grid.times()
        step_sig = BoundarySignal.sampled(times, np.where(times >= 0.02, 1.0, 0.0))
        forced = simulate(heat_problem(grid, lambda z: np.zeros_like(z), d0=step_sig), grid)
        runs = [decay, forced]
        if with_holdout:
            d0 = BoundarySignal.sampled(times, 0.7 * np.sin(9.0 * times))
            z = grid.nodes
            holdout = simulate(
                heat_problem(grid, lambda zz: 0.5 * np.sin(2 * np.pi * zz), d0=d0), grid
            )
            runs.append(holdout)
        return runs

    def test_eigen_fit_recovers_spectral_rate(self, grid_medium):
        constants = estimate_exp_iss_constants(self._scenarios(grid_medium), p=2.0)
        assert constants.sigma == pytest.approx(PI2, rel=0.02)
        assert 1.0 <= constants.m < 1.05

    def test_sup_norm_gain_sees_steady_state(self):
        grid = Grid1D(n_interior=49, dt=2e-4, t_final=1.0)
        constants = estimate_exp_iss_constants(self._scenarios(grid), p=math.inf)
        assert constants.gamma >= 1.0 - 1e-6  # steady state of a unit step is 1

    def test_margins_nonnegative_on_training_and_holdout(self, grid_medium):
        runs = self._scenarios(grid_medium, with_holdout=True)
        constants = estimate_exp_iss_constants(runs[:2], p=2.0)
        for traj in runs[:2]:
            assert check_fitted_lp(traj, constants).margin >= 0.0
        holdout_report = check_fitted_lp(runs[2], constants)
        assert holdout_report.margin >= 0.0

    def test_zero_input_bound_has_no_gain_term(self, grid_medium):
        runs = self._scenarios(grid_medium)
        constants = estimate_exp_iss_constants(runs, p=2.0)
        report = check_fitted_lp(runs[0], constants)
        # zero-disturbance run: the gain term contributes nothing
        beta_only = constants.m * np.exp(-constants.sigma * report.times) * report.lhs[0]
        assert np.allclose(report.rhs, beta_only)
        assert report.margin >= 0.0

    def test_truncation_keeps_constants_valid(self, grid_medium):
        runs = self._scenarios(grid_medium)
        constants = estimate_exp_iss_constants(runs, p=2.0)
        keep = runs[0].times <= 0.1
        short = Trajectory(grid=grid_medium, times=runs[0].times[keep], data=runs[0].data[keep])
        assert check_fitted_lp(short, constants).margin >= 0.0

    def test_insufficient_coverage_rejected(self, grid_small):
        decay_only = [simulate(heat_problem(grid_small, lambda z: np.sin(np.pi * z)), grid_small)]
        with pytest.raises(EstimationError):
            estimate_exp_iss_constants(decay_only, p=2.0)
        with pytest.raises(EstimationError):
            estimate_exp_iss_constants([], p=2.0)


def _wobble(grid):
    times = grid.times()
    return BoundarySignal.sampled(times, 0.6 * np.sin(7.0 * times))


def _disturbed_run(grid):
    return simulate(heat_problem(grid, lambda z: np.sin(np.pi * z), d0=_wobble(grid)), grid)


def _input_sups(traj):
    return np.abs(traj.boundary_left).max(), np.abs(traj.boundary_right).max()


def _fitted_constants(grid, *extra):
    """L2 constants fitted on a decay run, a unit step response and ``extra``."""
    times = grid.times()
    step = BoundarySignal.sampled(times, np.where(times >= 0.02, 1.0, 0.0))
    decay = simulate(heat_problem(grid, lambda z: np.sin(np.pi * z)), grid)
    forced = simulate(heat_problem(grid, lambda z: np.zeros_like(z), d0=step), grid)
    return estimate_exp_iss_constants([decay, forced, *extra], p=2.0)


def _sum_case(checker):
    def case(grid):
        traj = _disturbed_run(grid)
        return checker(traj), sum(_input_sups(traj))
    return case


def _weighted_sup_case(grid):
    sigma, theta = 0.5 * PI2, 0.4
    left_gain = math.sin(theta + math.sqrt(sigma)) / math.sin(theta)
    traj = _disturbed_run(grid)
    sup0, sup1 = _input_sups(traj)
    return check_weighted_sup(traj, sigma=sigma, theta=theta), max(left_gain * sup0, sup1)


def _fitted_case(grid):
    traj = _disturbed_run(grid)
    return check_fitted_lp(traj, _fitted_constants(grid, traj)), sum(_input_sups(traj))


def _closed_loop_case(grid):
    kernel = solve_kernel(1.0, 10.0, grid)
    k1, k2 = estimate_equivalence_constants(kernel, solve_inverse_kernel(kernel), 2.0)
    constants = ClosedLoopConstants(k1=k1, k2=k2, iss=_fitted_constants(grid))
    y0 = compatible_initial_state(kernel, Field(np.sin(np.pi * grid.nodes), grid))
    run = simulate_closed_loop(1.0, 10.0, y0, _wobble(grid), grid, kernel=kernel)
    return certify_closed_loop(run.y_traj, constants, run.disturbance), np.abs(run.disturbance).max()


class TestGenericEstimateInvariant:
    """A passing specific check implies the generic bound with its (beta, gain)."""

    @pytest.mark.parametrize(
        "case",
        [
            _sum_case(check_weighted_l1),
            _sum_case(check_l2),
            _weighted_sup_case,
            _fitted_case,
            _closed_loop_case,
        ],
        ids=["check_weighted_l1", "check_l2", "check_weighted_sup", "check_fitted_lp", "certify_closed_loop"],
    )
    def test_specific_pass_implies_generic_bound(self, grid_small, case):
        report, input_sup = case(grid_small)
        assert report.passed
        generic = report.beta(report.lhs[0], report.times) + report.gain(input_sup)
        assert np.all(report.lhs <= generic * (1.0 + report.tol))

    def test_weighted_sup_generic_bound(self, grid_small):
        traj = simulate(heat_problem(grid_small, lambda z: np.sin(np.pi * z)), grid_small)
        report = check_weighted_sup(traj, sigma=0.5 * PI2, theta=0.4)
        assert report.passed
        generic = report.beta(report.lhs[0], report.times) + report.gain(0.0)
        assert np.all(report.lhs <= generic * (1.0 + report.tol))

    def test_trajectory_without_problem_metadata_rejected(self, grid_small):
        from iss_parabolic import Trajectory

        data = np.zeros((3, grid_small.n_nodes))
        bare = Trajectory(grid=grid_small, times=np.arange(3) * grid_small.dt, data=data)
        with pytest.raises(InapplicableEstimateError):
            check_l2(bare)


class TestReportExport:
    def test_csv_formats(self, tmp_path, grid_small):
        traj = simulate(heat_problem(grid_small, lambda z: np.sin(np.pi * z)), grid_small)
        report = check_l2(traj)
        report_path, summary_path = tmp_path / "report.csv", tmp_path / "summary.csv"
        write_report_csv(report, report_path)
        write_summary_csv(report, summary_path)
        lines = report_path.read_text().splitlines()
        assert lines[0] == "t,lhs,rhs,margin"
        assert len(lines) == 1 + len(traj)
        summary = summary_path.read_text().splitlines()
        assert summary[0] == "estimate_id,pass,min_margin"
        assert summary[1].startswith("l2,true,")
