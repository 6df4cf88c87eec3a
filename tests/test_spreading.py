import numpy as np
import pytest

from compspread.coefficients import CoefficientField, PeriodicScalar
from compspread.dispersal import Grid, Kernel, boundary_margin
from compspread.errors import PreconditionError
from compspread.simulator import Problem, make_scheme
from compspread.spreading import (continuity_sweep, dispersion_speed,
                                  fit_front_speed, invasion_mean_rate,
                                  speed_interval)
from reference_routes import constant_set, dispersion_grid_scan

C0_CANONICAL = 2.0 * np.sqrt(0.8)
MU_CANONICAL = np.sqrt(0.8)
# frozen from a 1e-6-resolution scan of (sinh(mu)/mu - 1 + 0.8)/mu
C0_NONLOCAL_UNIFORM = 0.7967889768739305
MU_NONLOCAL_UNIFORM = 1.770032


def test_invasion_mean_rate_canonical(canonical_set):
    assert invasion_mean_rate(canonical_set) == pytest.approx(0.8, abs=1e-10)


def test_dispersion_speed_canonical_closed_form(canonical_set):
    est = dispersion_speed(canonical_set)
    assert est.value == pytest.approx(C0_CANONICAL, abs=1e-6)
    assert est.mu_star == pytest.approx(MU_CANONICAL, abs=1e-6)
    assert est.warning is None


def test_dispersion_speed_depends_only_on_the_mean(canonical_set):
    # amplitude small enough to keep the envelope hypotheses intact
    periodic = canonical_set.replace_field("a1", CoefficientField(
        PeriodicScalar.harmonic(1.0, 0.15, 0.7, 1.0)))
    est = dispersion_speed(periodic)
    assert est.value == pytest.approx(C0_CANONICAL, abs=1e-5)


def test_dispersion_speed_nonlocal_vs_frozen_scan(canonical_set):
    grid = Grid(-4.0, 4.0, 1601)
    kernel = Kernel.build("uniform", 1.0, grid.h)
    est = dispersion_speed(canonical_set, kernel)
    assert est.value == pytest.approx(C0_NONLOCAL_UNIFORM, abs=1e-5)
    assert est.mu_star == pytest.approx(MU_NONLOCAL_UNIFORM, abs=1e-3)


def test_grid_scan_matches_golden_section(canonical_set):
    est = dispersion_speed(canonical_set)
    scan = dispersion_grid_scan(canonical_set, spacing=1e-3)
    assert abs(scan.value - est.value) / est.value < 1e-4


def test_dispersion_requires_invasion_setting():
    # reversed dominance: the envelope condition fails
    cs = constant_set(0.4, 1.0, 0.5, 1.0, 0.5, 1.0)
    with pytest.raises(PreconditionError):
        dispersion_speed(cs)


def test_continuity_sweep_growth_shifts(canonical_set):
    table = continuity_sweep(canonical_set, eps_list=(0.2, 0.1, 0.05))
    assert table.h2_holds
    assert table.monotone
    for row in table.rows:
        assert row.speed == pytest.approx(2.0 * np.sqrt(0.8 + row.eps),
                                          abs=1e-5)


def test_continuity_sweep_competition_shifts(canonical_set):
    # shifting the competition coefficient lowers the speed through the
    # resident level 0.4
    table = continuity_sweep(canonical_set,
                             eps_list=(0.2, 0.1, 0.05), field_name="c1")
    for row in table.rows:
        assert row.speed == pytest.approx(2.0 * np.sqrt(0.8 - 0.4 * row.eps),
                                          abs=1e-5)
        assert row.delta_from_base < 0


def test_continuity_sweep_zero_shift_is_identity(canonical_set):
    table = continuity_sweep(canonical_set, eps_list=(0.0,))
    assert table.rows[0].delta_from_base == pytest.approx(0.0, abs=1e-10)


def test_fit_front_speed_recovers_slope(rng):
    times = np.arange(0.0, 60.0)
    xs = 1.7 * times + 3.0 + rng.normal(0, 0.01, times.size)
    est = fit_front_speed(times, xs, 1.0)
    assert est.value == pytest.approx(1.7, abs=0.01)
    assert est.r_squared > 0.999
    assert est.stderr < 0.01


def test_fit_front_speed_window_rules():
    times = np.arange(0.0, 8.0)
    with pytest.raises(PreconditionError):
        fit_front_speed(times, 2.0 * times, 1.0)


def test_fit_front_speed_rejects_nonmonotone(rng):
    times = np.arange(0.0, 80.0)
    xs = 1.5 * times
    xs[40:] = xs[40:] - 30.0 * (1 + np.sin(times[40:]))
    with pytest.raises(PreconditionError):
        fit_front_speed(times, xs, 1.0)


def test_speed_interval_homogeneous_reduction(canonical_set):
    # no bump: lower and upper speeds agree with the dispersion speed
    grid = Grid(-30.0, 170.0, 2001)
    problem = Problem(canonical_set, grid)
    scheme = make_scheme(problem, steps_per_period=200)
    result = speed_interval(problem, scheme, 70, -15.0, 2.0)
    assert result.theoretical.value == pytest.approx(C0_CANONICAL, abs=1e-6)
    assert result.lower.value == pytest.approx(C0_CANONICAL, rel=0.05)
    assert result.upper.value == pytest.approx(C0_CANONICAL, rel=0.05)
    assert result.upper.r_squared > 0.999


def test_speed_interval_fails_fast_without_a_fit_window(monkeypatch):
    # The fixed nonlocal interval run of the benchmark's fronts workload: at
    # c0* ~ 0.80 the leading edge needs about 84.5 of the 100 periods to
    # clear the localized region, fewer than the 30 a fit needs remain, and
    # no front is simulated.
    from compspread import spreading
    from compspread.config import parse_config

    def front_run(*args, **kwargs):
        raise AssertionError("the front run was started")

    monkeypatch.setattr(spreading, "run_transformed", front_run)
    coeffs = {name: {"constant": value} for name, value in
              zip(("b1", "c1", "a2", "b2", "c2"), (1.0, 0.5, 0.4, 0.5, 1.0))}
    coeffs["a1"] = {"harmonic": {"mean": 1.0, "amplitude": 0.1, "phase": 0.0},
                    "bump": {"amplitude": 0.3, "width": 4.0, "ramp": 0.5}}
    cfg = parse_config({
        "coefficients": {"period": 1.0, **coeffs},
        "grid": {"x_min": -40.0, "x_max": 260.0, "n": 3001},
        "kernel": {"shape": "uniform", "radius": 1.0},
        "scheme": {"steps_per_period": 200},
        "scenario": {"name": "interval"}})
    with pytest.raises(PreconditionError, match="leaving 15.5 of 100 periods"):
        speed_interval(cfg.problem(), cfg.scheme, 100, -20.0, 2.0)


def test_theta_sensitivity_of_front_fits(canonical_set):
    # the front is steep: fitted slopes barely depend on the level
    from compspread.periodic_orbits import logistic_orbit
    from compspread.semitrivial import compute_semitrivial
    from compspread.simulator import (FrontObserver, SystemState,
                                      make_front_data, run_transformed)

    grid = Grid(-30.0, 170.0, 2001)
    problem = Problem(canonical_set, grid)
    scheme = make_scheme(problem, steps_per_period=200)
    vstar = compute_semitrivial("v", problem, scheme)
    u_orb = logistic_orbit(canonical_set.a1.baseline, canonical_set.b1.baseline)
    v_orb = logistic_orbit(canonical_set.a2.baseline, canonical_set.c2.baseline)
    level = 0.5 * u_orb.value(0)
    u0, vt0 = make_front_data(grid, level, v_orb, -15.0, 2.0)
    observers = [FrontObserver(f"f{i}", grid, theta * level, lambda s: s.u,
                               boundary_margin(grid, None))
                 for i, theta in enumerate((0.1, 0.5, 0.9))]
    _, rec = run_transformed(SystemState(0.0, u0, vt0), problem, scheme,
                             vstar.frames, 70, observers)
    slopes = [fit_front_speed(rec.times, rec.series[f"f{i}"], 1.0).value
              for i in range(3)]
    spread = (max(slopes) - min(slopes)) / min(slopes)
    assert spread < 0.02
