"""Acceptance suite: one test per headline criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Expected values are closed forms or were frozen from independent oracles
(fine-grid scans, dense eigensolvers, reference ODE integrations) before
the implementations they check."""

import numpy as np

from compspread.coefficients import (PeriodicScalar, SpatialBump, check_h0,
                                     check_h1, check_h2, compute_envelopes)
from compspread.dispersal import Grid, Kernel, boundary_margin
from compspread.periodic_orbits import logistic_orbit
from compspread.semitrivial import (compute_semitrivial, destabilizing_bump,
                                    linearized_radius)
from compspread.simulator import (FrontObserver, Problem, Stepper,
                                  SystemState, make_front_data, make_scheme,
                                  ramp_profile, run_periods, run_transformed)
from compspread.spectrum import LinearProblem, principal_spectrum_point
from compspread.spreading import (continuity_sweep, dispersion_speed,
                                  fit_front_speed, speed_interval)
from compspread.verify import (ansatz_equation_residual, build_supersolution,
                               check_ansatz_inequalities,
                               monotone_coexistence, supersolution_residual)
from reference_routes import (box_bounds, constant_set, dispersion_grid_scan,
                              front_below_supersolution)

C0 = 2.0 * np.sqrt(0.8)
MU0 = np.sqrt(0.8)
CANONICAL = constant_set(1.0, 1.0, 0.5, 0.4, 0.5, 1.0)
WEAK = constant_set(1.0, 1.0, 0.5, 1.0, 0.5, 1.0)


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'} "
          f"({detail})")
    assert ok, f"criterion {num}: {label} failed ({detail})"


def test_criterion_01_homogeneous_mean_law():
    rng = np.random.default_rng(1)
    grid_r = Grid(-5.0, 5.0, 101)
    grid_n = Grid(-4.0, 4.0, 161)
    kernel = Kernel.build("uniform", 1.0, grid_n.h)
    worst = 0.0
    for i in range(20):
        mean = rng.uniform(-0.5, 1.5)
        amp = rng.uniform(0.0, 0.8)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        baseline = PeriodicScalar.harmonic(mean, amp, phase)
        if i % 2 == 0:
            p = LinearProblem(0.0, "random", grid_r, 1.0, baseline=baseline)
        else:
            p = LinearProblem(0.0, "nonlocal", grid_n, 1.0,
                              baseline=baseline, kernel=kernel)
        res = principal_spectrum_point(p, tol=1e-8)
        worst = max(worst, abs(res.lam - mean))
    _report(1, "homogeneous growth exponent equals the time mean",
            worst < 1e-5, f"worst |lam - mean| = {worst:.2e} < 1e-5")


def test_criterion_02_tilted_analytic_laws():
    a = 0.8
    grid_r = Grid(-5.0, 5.0, 101)
    worst_r = 0.0
    for mu in (0.0, 0.5, 1.0, 2.0):
        p = LinearProblem(mu, "random", grid_r, 1.0, baseline=a)
        res = principal_spectrum_point(p, tol=1e-8)
        worst_r = max(worst_r, abs(res.lam - (mu * mu + a)))
    grid_n = Grid(-2.0, 2.0, 801)
    kernel = Kernel.build("uniform", 1.0, grid_n.h)
    worst_n = 0.0
    for mu in (0.0, 0.5, 1.0, 2.0):
        p = LinearProblem(mu, "nonlocal", grid_n, 1.0, baseline=a,
                          kernel=kernel)
        res = principal_spectrum_point(p, tol=1e-8)
        exact = (np.sinh(mu) / mu if mu > 0 else 1.0) - 1.0 + a
        worst_n = max(worst_n, abs(res.lam - exact))
    _report(2, "tilted dispersal exponents match the analytic laws",
            worst_r < 1e-5 and worst_n < 1e-4,
            f"random {worst_r:.2e} < 1e-5, nonlocal {worst_n:.2e} < 1e-4")


def test_criterion_03_dispersion_speed_closed_form():
    est = dispersion_speed(CANONICAL)
    scan = dispersion_grid_scan(CANONICAL, spacing=1e-3)
    err_c = abs(est.value - C0)
    err_mu = abs(est.mu_star - MU0)
    rel = abs(est.value - scan.value) / est.value
    _report(3, "canonical invasion speed matches the closed form",
            err_c < 1e-4 and err_mu < 1e-3 and rel < 1e-4,
            f"|c - 2 sqrt(0.8)| = {err_c:.2e} < 1e-4, "
            f"|mu* - sqrt(0.8)| = {err_mu:.2e} < 1e-3, "
            f"grid-scan gap = {rel:.2e} < 1e-4")


def test_criterion_04_kpp_solver_control():
    grid = Grid(-50.0, 350.0, 4001)
    problem = Problem(CANONICAL, grid)
    scheme = make_scheme(problem, steps_per_period=200)
    prof = ramp_profile(grid.x, -20.0, 2.0)
    state = SystemState(0.0, 0.5 * prof, np.zeros(grid.n))
    obs = FrontObserver("front_u", grid, 0.25, lambda s: s.u,
                        boundary_margin(grid, None))
    _, rec = run_periods(state, problem, scheme, 100, [obs])
    est = fit_front_speed(rec.times, rec.series["front_u"], 1.0)
    rel = abs(est.value - 2.0) / 2.0
    _report(4, "scalar invasion control reproduces the classical speed 2",
            rel < 0.05, f"speed = {est.value:.4f}, error {100 * rel:.2f}% < 5%")


def _transformed_front_run(cs, periods=100, grid=None):
    grid = grid or Grid(-40.0, 260.0, 3001)
    problem = Problem(cs, grid)
    scheme = make_scheme(problem, steps_per_period=200)
    return speed_interval(problem, scheme, periods, -20.0, 2.0)


def test_criterion_05_homogeneous_competition_front():
    result = _transformed_front_run(CANONICAL)
    rel_lo = abs(result.lower.value - C0) / C0
    rel_up = abs(result.upper.value - C0) / C0
    _report(5, "homogeneous competition front travels at the dispersion speed",
            rel_lo < 0.05 and rel_up < 0.05,
            f"lower {result.lower.value:.4f} ({100 * rel_lo:.2f}%), "
            f"upper {result.upper.value:.4f} ({100 * rel_up:.2f}%) vs "
            f"{C0:.5f}, tolerance 5%")


def test_criterion_06_localized_dip_does_not_slow_spreading():
    bumped = CANONICAL.with_bump_on("a1", SpatialBump(-0.2, 1.5, 0.5))
    env = compute_envelopes(bumped.baselines())
    assert check_h0(env).holds and check_h1(env).holds
    result = _transformed_front_run(bumped)
    floor = C0 - (result.lower.stderr + 0.02 * C0)
    _report(6, "a localized growth dip does not slow the invasion",
            result.lower.value >= floor,
            f"lower {result.lower.value:.4f} >= {floor:.4f} "
            f"(c0* - stderr - 2%)")


def test_criterion_07_localized_boost_does_not_speed_spreading():
    bumped = CANONICAL.with_bump_on("a1", SpatialBump(0.3, 1.5, 0.5))
    env = compute_envelopes(bumped.baselines())
    assert check_h2(bumped.baselines(), env).holds
    result = _transformed_front_run(bumped)
    rel_lo = abs(result.lower.value - C0) / C0
    rel_up = abs(result.upper.value - C0) / C0
    _report(7, "under determinacy a localized boost leaves the speed unchanged",
            rel_lo < 0.05 and rel_up < 0.05,
            f"lower {100 * rel_lo:.2f}%, upper {100 * rel_up:.2f}% "
            f"within 5% of {C0:.5f}")


def test_criterion_08_speed_continuity_sweep():
    table = continuity_sweep(CANONICAL, eps_list=(0.2, 0.1, 0.05))
    worst = max(abs(r.speed - 2.0 * np.sqrt(0.8 + r.eps)) for r in table.rows)
    _report(8, "uniform growth shifts move the speed continuously",
            worst < 1e-4 and table.monotone,
            f"worst closed-form gap {worst:.2e} < 1e-4, "
            f"monotone approach: {table.monotone}")


def test_criterion_09_destabilizing_localized_growth():
    problem = Problem(CANONICAL, Grid(-25.0, 25.0, 501))
    ustar = compute_semitrivial("u", problem)
    at_u = linearized_radius("u", problem, ustar)
    base_ok = abs(at_u.lam - (-0.1)) < 1e-5
    found = destabilizing_bump(CANONICAL)
    chain_ok = True
    for amp, width in ((0.1, 2.0), (0.3, 4.0), (found.bump.amplitude,
                                                2 * found.bump.plateau)):
        bumped = CANONICAL.with_bump_on("a2", SpatialBump.square(amp, width))
        bproblem = Problem(bumped, Grid(-30.0, 30.0, 601))
        bustar = compute_semitrivial("u", bproblem)
        verdict = linearized_radius("u", bproblem, bustar)
        chain_ok = chain_ok and verdict.lam >= at_u.lam - 1e-5
    _report(9, "a localized growth pocket destabilizes the stable resident",
            base_ok and found.lam_total > 0.0 and chain_ok,
            f"homogeneous exponent {at_u.lam:.6f} = -0.1 +/- 1e-5, "
            f"found bump (amp {found.bump.amplitude:.2f}, width "
            f"{2 * found.bump.plateau:.0f}) with exponent "
            f"{found.lam_total:.4f} > 0, monotone chain holds")


def test_criterion_10_monotone_iteration_to_coexistence():
    problem = Problem(WEAK, Grid(-30.0, 30.0, 301))
    scheme = make_scheme(problem, steps_per_period=32)
    flat = monotone_coexistence(problem, scheme)
    flat_err = max(float(np.max(np.abs(comp - 2.0 / 3.0)))
                   for comp in (*flat.upper, *flat.lower))
    bumped = WEAK.with_bump_on("a1", SpatialBump(0.2, 1.5, 0.5))
    bproblem = Problem(bumped, Grid(-30.0, 30.0, 301))
    bumpy = monotone_coexistence(bproblem, scheme)
    x = bproblem.grid.x
    tail = np.abs(x) >= 20.0
    tail_err = max(float(np.max(np.abs(comp[tail] - 2.0 / 3.0)))
                   for comp in (*bumpy.upper, *bumpy.lower))
    x_dependent = float(np.ptp(bumpy.upper[0])) > 0.01
    ok = (flat_err < 1e-4 and tail_err < 1e-3 and x_dependent
          and flat.max_monotonicity_violation <= 1e-10
          and bumpy.max_monotonicity_violation <= 1e-10
          and flat.ordered and bumpy.ordered)
    _report(10, "monotone iteration squeezes the coexistence state",
            ok,
            f"flat gap {flat_err:.2e} < 1e-4, bump tails {tail_err:.2e} "
            f"< 1e-3, monotonicity violations "
            f"{max(flat.max_monotonicity_violation, bumpy.max_monotonicity_violation):.1e} <= 1e-10")


def test_criterion_11_comparison_principles():
    rng = np.random.default_rng(11)
    grid = Grid(-10.0, 10.0, 101)
    problem = Problem(CANONICAL, grid)
    scheme = make_scheme(problem, steps_per_period=32)
    stepper = Stepper(problem, scheme)
    u_hi, v_hi = box_bounds(problem)
    worst_comp = 0.0
    for _ in range(20):
        u1 = rng.uniform(0.05, 0.5 * u_hi, grid.n)
        u2 = u1 + rng.uniform(0.0, 0.4 * u_hi, grid.n)
        v2 = rng.uniform(0.05, 0.5 * v_hi, grid.n)
        v1 = v2 + rng.uniform(0.0, 0.4 * v_hi, grid.n)
        for p in range(50):
            for k in range(p * stepper.spp, (p + 1) * stepper.spp):
                u1, v1 = stepper.step_arrays(u1, v1, k)
                u2, v2 = stepper.step_arrays(u2, v2, k)
            worst_comp = max(worst_comp, float(np.max(u1 - u2)),
                             float(np.max(v2 - v1)))
    vstar = compute_semitrivial("v", problem, scheme)
    vt_cap = float(vstar.frames[0].min())
    worst_coop = 0.0
    for _ in range(20):
        u1 = rng.uniform(0.0, 0.4, grid.n)
        u2 = u1 + rng.uniform(0.0, 0.3, grid.n)
        vt1 = rng.uniform(0.0, 0.4 * vt_cap, grid.n)
        vt2 = np.minimum(vt1 + rng.uniform(0.0, 0.5 * vt_cap, grid.n), vt_cap)
        s1 = SystemState(0.0, u1, vt1)
        s2 = SystemState(0.0, u2, vt2)
        for p in range(50):
            s1, _ = run_transformed(s1, problem, scheme, vstar.frames, 1)
            s2, _ = run_transformed(s2, problem, scheme, vstar.frames, 1)
            worst_coop = max(worst_coop, float(np.max(s1.u - s2.u)),
                             float(np.max(s1.v - s2.v)))
    _report(11, "competitive and cooperative orders are preserved",
            worst_comp <= 1e-10 and worst_coop <= 1e-10,
            f"worst competitive violation {worst_comp:.1e}, "
            f"worst cooperative violation {worst_coop:.1e}, both <= 1e-10")


def test_criterion_12_supersolution_machinery():
    grid = Grid(-40.0, 160.0, 2001)
    problem = Problem(CANONICAL, grid)
    scheme = make_scheme(problem, steps_per_period=200)
    vstar = compute_semitrivial("v", problem, scheme)
    u_orb = logistic_orbit(CANONICAL.a1.baseline, CANONICAL.b1.baseline)
    v_orb = logistic_orbit(CANONICAL.a2.baseline, CANONICAL.c2.baseline)
    u0, vt0 = make_front_data(grid, 0.5 * u_orb.value(0), v_orb, -20.0, 2.0)
    spec = build_supersolution(CANONICAL, 0.05, initial_data=(u0, vt0, grid))
    res_phi, res_psi = ansatz_equation_residual(spec)
    ineq = check_ansatz_inequalities(spec)
    times = np.linspace(0.0, 1.0, 9)
    report = supersolution_residual(spec, grid, times, dt=scheme.dt)
    state = SystemState(0.0, u0, vt0)
    snapshots = []
    for _ in range(20):
        state, _ = run_transformed(state, problem, scheme, vstar.frames, 1)
        snapshots.append(state)
    below = front_below_supersolution(spec, grid, snapshots)
    ok = (res_phi < 1e-8 and res_psi < 1e-8 and ineq.holds
          and min(ineq.margins) > 0.0 and report.passed and below)
    _report(12, "the exponential super-solution machinery verifies",
            ok,
            f"ansatz residuals ({res_phi:.1e}, {res_psi:.1e}) < 1e-8, "
            f"inequality margin {min(ineq.margins):.3f} > 0, "
            f"region residual floor ({report.min_residual_u:.1e}, "
            f"{report.min_residual_v:.1e}) within slack, front below "
            f"envelope: {below}")
