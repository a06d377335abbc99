"""Acceptance gate: the package's exit criteria, one test per criterion.

Each test prints one ``ACCEPTANCE <n> PASS/FAIL`` line (visible with
``pytest -s``); the assertion carries the same information for plain runs.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from iss_parabolic import (
    BoundarySignal,
    ClosedLoopConstants,
    Field,
    Grid1D,
    SemilinearProblem,
    certify_closed_loop,
    check_l2,
    compatible_initial_state,
    constant_reduction_experiment,
    estimate_equivalence_constants,
    estimate_exp_iss_constants,
    kernel_series_reference,
    lyapunov_decay_certificate,
    norm_lp,
    norm_weighted_sin,
    simulate,
    simulate_closed_loop,
    solve_inverse_kernel,
    solve_kernel,
    transform_commutation_residual,
)
from iss_parabolic.backstepping import _random_smooth_fields
from iss_parabolic.cli import main as cli_main
from iss_parabolic.norms import lp_norms

PI2 = math.pi**2
SUITES = Path(__file__).resolve().parent.parent / "suites"


def _report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {detail}")
    assert passed, f"criterion {number} failed: {detail}"


def _heat(grid, initial_values, d0=None, d1=None):
    return SemilinearProblem(
        a=1.0,
        initial=Field(initial_values, grid),
        boundary_left=d0 or BoundarySignal.zero(),
        boundary_right=d1 or BoundarySignal.zero(),
    )


def _random_signal(rng, times, allow_zero: bool) -> BoundarySignal:
    kinds = ["sinusoid", "step"] + (["zero"] if allow_zero else [])
    kind = rng.choice(kinds)
    if kind == "zero":
        return BoundarySignal.zero()
    if kind == "sinusoid":
        amp, omega = rng.uniform(0.1, 1.0), rng.uniform(1.0, 20.0)
        return BoundarySignal.sampled(times, amp * np.sin(omega * times))
    level, t_on = rng.uniform(-1.0, 1.0), rng.uniform(0.02, 0.15)
    return BoundarySignal.sampled(times, np.where(times >= t_on, level, 0.0))


def _random_initial(rng, grid, left0, right0, amp=1.0, modes=6):
    z = grid.nodes
    profile = left0 * (1.0 - z) + right0 * z
    for j in range(1, modes + 1):
        profile = profile + amp * rng.uniform(-1.0, 1.0) / j**2 * np.sin(j * np.pi * z)
    return profile


def test_criterion_1_eigenfunction_decay_rate():
    start = time.perf_counter()
    grid = Grid1D(n_interior=199, dt=1e-4, t_final=0.3)
    traj = simulate(_heat(grid, np.sin(np.pi * grid.nodes)), grid)
    norms = lp_norms(traj.data, grid.h, 2.0)
    rate = -float(np.polyfit(traj.times, np.log(norms), 1)[0])
    elapsed = time.perf_counter() - start
    rel_err = abs(rate - PI2) / PI2
    _report(
        1,
        rel_err <= 0.02 and elapsed < 5.0,
        f"fitted L2 rate {rate:.4f} vs pi^2 {PI2:.4f} (rel err {rel_err:.2%}), {elapsed:.2f}s",
    )


def test_criterion_2_l2_estimate_on_100_random_scenarios():
    start = time.perf_counter()
    grid = Grid1D(n_interior=63, dt=2e-4, t_final=0.3)
    times = grid.times()
    worst = math.inf
    for seed in range(100):
        rng = np.random.default_rng(seed)
        d0 = _random_signal(rng, times, allow_zero=False)
        d1 = _random_signal(rng, times, allow_zero=True)
        x0 = _random_initial(rng, grid, float(d0(0.0)), float(d1(0.0)))
        traj = simulate(_heat(grid, x0, d0=d0, d1=d1), grid)
        report = check_l2(traj, tol=0.02)
        worst = min(worst, report.margin_rel)
        if not report.passed:
            break
    elapsed = time.perf_counter() - start
    _report(
        2,
        worst >= -0.02 and elapsed < 60.0,
        f"100 seeded scenarios, worst relative margin {worst:.4f} >= -0.02, {elapsed:.1f}s",
    )


def test_criterion_3_weighted_l1_steady_state_sharpness():
    grid = Grid1D(n_interior=99, dt=2e-4, t_final=1.5)
    problem = _heat(
        grid, 1.0 + 0.5 * np.sin(np.pi * grid.nodes),
        d0=BoundarySignal.constant(1.0), d1=BoundarySignal.constant(1.0),
    )
    traj = simulate(problem, grid)
    steady = norm_weighted_sin(traj.final_state)
    gain_sum = 2.0 / math.pi  # 1/pi per boundary disturbance
    rel_err = abs(steady - gain_sum) / gain_sum
    _report(
        3,
        rel_err <= 0.01,
        f"steady weighted norm {steady:.6f} vs gain sum 2/pi = {gain_sum:.6f} (rel err {rel_err:.3%})",
    )


@pytest.mark.parametrize("p", [3.0, 4.0, 8.0])
def test_criterion_4_lyapunov_certificate(p):
    grid = Grid1D(n_interior=99, dt=2e-4, t_final=0.25)
    problem = _heat(grid, np.sin(np.pi * grid.nodes))
    report = lyapunov_decay_certificate(problem, grid, p=p, tol=0.02)
    checks = report.passed
    detail = f"p={p}: norm rate {report.norm_rate:.4f} certified with 2% tolerance"
    if p == 4.0:
        exponent_ok = abs(report.norm_rate - 0.75 * PI2) < 1e-12
        checks = checks and exponent_ok
        detail += f", exponent (3/4) pi^2 = {0.75 * PI2:.4f}"
    _report(4, checks, detail)


def test_criterion_5_sandwich_suite_50_instances():
    grid = Grid1D(n_interior=47, dt=2e-4, t_final=0.2)
    times = grid.times()
    reactions = {
        0: ("zero", None, 0.0),
        1: ("linear", lambda z, w, g: 3.0 * w, 3.0),
        2: ("cubic", lambda z, w, g: w - w**3, 1.0),
    }
    n_pass = 0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        _, reaction, slope = reactions[seed % 3]
        d0 = _random_signal(rng, times, allow_zero=True)
        d1 = _random_signal(rng, times, allow_zero=True)
        x0 = _random_initial(rng, grid, float(d0(0.0)), float(d1(0.0)), amp=0.8, modes=4)
        problem = SemilinearProblem(
            a=1.0, initial=Field(x0, grid),
            boundary_left=d0, boundary_right=d1,
            reaction=reaction, lipschitz_k=slope,
        )
        report = constant_reduction_experiment(problem, grid, epsilon=0.1, tol=1e-10)
        n_pass += report.passed
    _report(5, n_pass == 50, f"{n_pass}/50 seeded constant-input sandwiches held at tol 1e-10")


def test_criterion_6_control_system_axioms_20_instances():
    grid = Grid1D(n_interior=49, dt=2e-4, t_final=0.2)
    times = grid.times()
    failures = []
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        d0 = _random_signal(rng, times, allow_zero=False)
        d1 = _random_signal(rng, times, allow_zero=True)
        x0 = _random_initial(rng, grid, float(d0(0.0)), float(d1(0.0)), amp=0.7, modes=4)
        problem = _heat(grid, x0, d0=d0, d1=d1)
        traj = simulate(problem, grid)

        if not np.array_equal(traj.data[0], problem.initial.values):
            failures.append((seed, "identity"))
            continue

        t_cut = 0.1
        altered_vals = np.asarray(d0(times), dtype=float).copy()
        altered_vals[times > t_cut] += 3.0
        altered = problem.with_data(
            problem.initial, BoundarySignal.sampled(times, altered_vals), problem.boundary_right
        )
        traj_alt = simulate(altered, grid)
        prefix = traj.times <= t_cut + 1e-15
        if not np.array_equal(traj.data[prefix], traj_alt.data[prefix]):
            failures.append((seed, "causality"))
            continue

        k_mid = len(traj) // 2
        t_mid = float(traj.times[k_mid])
        rest_grid = Grid1D(grid.n_interior, grid.dt, grid.t_final - t_mid)
        restarted = simulate(
            SemilinearProblem(
                a=1.0,
                initial=Field(traj.data[k_mid], rest_grid),
                boundary_left=d0.shifted(t_mid),
                boundary_right=d1.shifted(t_mid),
            ),
            rest_grid,
        )
        tail = traj.data[k_mid : k_mid + len(restarted)]
        if np.max(np.abs(restarted.data - tail)) > 1e-12:
            failures.append((seed, "cocycle"))
    _report(6, not failures, f"identity/causality/cocycle on 20 seeds, failures: {failures}")


def test_criterion_7_kernel_validation():
    grid = Grid1D(n_interior=199, dt=2e-4, t_final=0.1)
    kernel = solve_kernel(1.0, 10.0, grid)
    oracle_err = float(np.max(np.abs(kernel.samples - kernel_series_reference(1.0, 10.0, grid))))

    inverse = solve_inverse_kernel(kernel)
    fields = _random_smooth_fields(grid, 20, np.random.default_rng(4))
    B, L = kernel.matrix, inverse.matrix
    transformed = fields + fields @ B.T
    roundtrip_err = float(np.max(np.abs(transformed + transformed @ L.T - fields)))

    residuals = []
    for n, dt in ((49, 4e-4), (99, 1e-4)):
        loop_grid = Grid1D(n_interior=n, dt=dt, t_final=0.5)
        loop_kernel = solve_kernel(1.0, 10.0, loop_grid)
        y0 = compatible_initial_state(
            loop_kernel, Field(np.sin(np.pi * loop_grid.nodes), loop_grid)
        )
        run = simulate_closed_loop(1.0, 10.0, y0, BoundarySignal.zero(), loop_grid, kernel=loop_kernel)
        residuals.append(transform_commutation_residual(run))
    order = math.log2(residuals[0] / residuals[1])

    _report(
        7,
        oracle_err < 1e-6 and roundtrip_err < 1e-8 and order >= 1.8,
        f"oracle sup diff {oracle_err:.2e} < 1e-6, round trip {roundtrip_err:.2e} < 1e-8, "
        f"commutation order {order:.2f} >= 1.8",
    )


def test_criterion_8_backstepping_robustness():
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
    growth = float(open_norms[-1] / open_norms[0])

    kernel = solve_kernel(1.0, k_reaction, grid)
    y0 = compatible_initial_state(kernel, Field(np.sin(np.pi * grid.nodes), grid))
    clean = simulate_closed_loop(1.0, k_reaction, y0, BoundarySignal.zero(), grid, kernel=kernel)
    norms = lp_norms(clean.y_traj.data, grid.h, 2.0)
    keep = clean.y_traj.times >= 0.1
    fitted = -float(np.polyfit(clean.y_traj.times[keep], np.log(norms[keep]), 1)[0])
    rate_err = abs(fitted - PI2) / PI2

    times = grid.times()
    step_sig = BoundarySignal.sampled(times, np.where(times >= 0.05, 0.5, 0.0))
    disturbed = simulate_closed_loop(1.0, k_reaction, Field.zeros(grid), step_sig, grid, kernel=kernel)
    inverse = solve_inverse_kernel(kernel)
    k1, k2 = estimate_equivalence_constants(kernel, inverse, 2.0)
    decay_run = simulate(_heat(grid, np.sin(np.pi * grid.nodes)), grid)
    forced_run = simulate(_heat(grid, np.zeros(grid.n_nodes), d0=step_sig), grid)
    constants = ClosedLoopConstants(
        k1=k1, k2=k2, iss=estimate_exp_iss_constants([decay_run, forced_run], 2.0)
    )
    report = certify_closed_loop(disturbed.y_traj, constants, disturbed.disturbance, tol=1e-6)
    steady = norm_lp(disturbed.y_traj.final_state, 2.0)
    steady_ok = steady <= k2 * constants.iss.gamma * 0.5

    _report(
        8,
        growth >= 10.0 and rate_err <= 0.05 and report.passed and steady_ok,
        f"open growth {growth:.1f}x >= 10, closed rate {fitted:.3f} (err {rate_err:.2%} <= 5%), "
        f"robustness certificate passed={report.passed}, steady {steady:.4f} <= "
        f"K2*gamma*0.5 = {k2 * constants.iss.gamma * 0.5:.4f}",
    )


def test_criterion_9_negative_control_tampered_gain(tmp_path):
    code = cli_main(
        ["run", str(SUITES / "negative" / "tampered_gain.scn"), "--out", str(tmp_path), "--no-plots"]
    )
    _report(9, code == 1, f"tampered-gain fixture exited with {code} (expected 1)")
