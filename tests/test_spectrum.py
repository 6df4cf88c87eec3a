import numpy as np
import pytest

from compspread.coefficients import PeriodicScalar, SpatialBump
from compspread.dispersal import Grid, Kernel
from compspread.errors import NumericalGuardError, PreconditionError
from compspread.spectrum import (MIN_STEPS_PER_PERIOD, LinearProblem,
                                 _LinearStepper, evolve_linear,
                                 homogeneous_growth_exponent,
                                 principal_spectrum_point,
                                 principal_spectrum_point_widened,
                                 radius_threshold_test,
                                 spectrum_monotonicity_check)

GRID = Grid(-5.0, 5.0, 101)


def _harmonic_problem(mean=1.0, amp=0.5):
    return LinearProblem(0.0, "random", GRID, 1.0,
                         baseline=PeriodicScalar.harmonic(mean, amp))


def test_evolve_homogeneous_exponential():
    # constant initial data grows by exp(integral of the rate)
    p = _harmonic_problem()
    u = evolve_linear(np.ones(GRID.n), p, 0.0, 1.0)
    assert np.max(np.abs(u - np.e)) < 1e-6


def test_evolve_zero_stays_zero():
    p = _harmonic_problem()
    u = evolve_linear(np.zeros(GRID.n), p, 0.0, 0.5)
    assert np.all(u == 0.0)


def test_evolve_linearity(rng):
    p = LinearProblem(0.0, "random", GRID, 1.0, baseline=0.3,
                      bump=SpatialBump(0.4, 1.0, 0.5))
    u0 = rng.uniform(0.0, 1.0, GRID.n)
    w0 = rng.uniform(0.0, 1.0, GRID.n)
    lhs = evolve_linear(u0 + w0, p, 0.0, 0.25)
    rhs = evolve_linear(u0, p, 0.0, 0.25) + evolve_linear(w0, p, 0.0, 0.25)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_evolve_preserves_positivity(rng):
    p = LinearProblem(0.0, "random", GRID, 1.0, baseline=-0.5,
                      bump=SpatialBump(1.0, 1.0, 0.5))
    u0 = rng.uniform(0.0, 1.0, GRID.n)
    u = evolve_linear(u0, p, 0.0, 2.0)
    assert np.all(u >= 0.0)


def test_homogeneous_mean_law_random_coefficients(rng):
    for _ in range(20):
        mean = rng.uniform(-0.5, 1.5)
        amp = rng.uniform(0.0, 0.8)
        phase = rng.uniform(0.0, 2 * np.pi)
        p = LinearProblem(0.0, "random", GRID, 1.0,
                          baseline=PeriodicScalar.harmonic(mean, amp, phase))
        res = principal_spectrum_point(p, tol=1e-8)
        assert abs(res.lam - mean) < 1e-5


def test_tilted_random_constant_coefficient():
    for mu in (0.0, 0.5, 1.0, 2.0):
        p = LinearProblem(mu, "random", GRID, 1.0, baseline=0.8)
        res = principal_spectrum_point(p)
        assert abs(res.lam - (mu * mu + 0.8)) < 1e-5


def test_tilted_nonlocal_uniform_kernel():
    g = Grid(-2.0, 2.0, 641)
    k = Kernel.build("uniform", 1.0, g.h)
    for mu in (0.5, 1.0, 2.0):
        p = LinearProblem(mu, "nonlocal", g, 1.0, baseline=0.8, kernel=k)
        res = principal_spectrum_point(p)
        exact = np.sinh(mu) / mu - 1.0 + 0.8
        assert abs(res.lam - exact) < 1e-4


def test_dominant_profile_properties():
    p = LinearProblem(0.0, "random", Grid(-20.0, 20.0, 401), 1.0,
                      baseline=-0.1, bump=SpatialBump(0.5, 2.0, 0.0))
    res = principal_spectrum_point(p)
    assert np.max(res.profile) == pytest.approx(1.0)
    assert np.all(res.profile > 0.0)
    assert res.residual < 1e-6


def test_monotonicity_equal_problems():
    p = _harmonic_problem()
    v = spectrum_monotonicity_check(p, p)
    assert v.ok
    assert v.gap == pytest.approx(0.0, abs=1e-12)


def test_monotonicity_with_bump():
    g = Grid(-20.0, 20.0, 401)
    p1 = LinearProblem(0.0, "random", g, 1.0, baseline=-0.1)
    p2 = LinearProblem(0.0, "random", g, 1.0, baseline=-0.1,
                       bump=SpatialBump(0.4, 2.0, 0.0))
    v = spectrum_monotonicity_check(p1, p2)
    assert v.ok
    assert v.gap > 0.0


def test_monotonicity_constant_shift_is_exact():
    p1 = _harmonic_problem(1.0, 0.5)
    p2 = _harmonic_problem(1.3, 0.5)
    v = spectrum_monotonicity_check(p1, p2)
    assert v.gap == pytest.approx(0.3, abs=1e-5)


def test_monotonicity_rejects_unordered():
    p1 = _harmonic_problem(1.0, 0.5)
    p2 = _harmonic_problem(0.9, 0.5)
    with pytest.raises(PreconditionError):
        spectrum_monotonicity_check(p1, p2)


def test_monotonicity_rejects_unordered_tables():
    spp = 128
    table = np.ones((spp, GRID.n))
    p1 = LinearProblem(0.0, "random", GRID, 1.0, coef_table=0.3 * table,
                       steps_per_period=spp)
    p2 = LinearProblem(0.0, "random", GRID, 1.0, coef_table=-0.3 * table,
                       steps_per_period=spp)
    with pytest.raises(PreconditionError):
        spectrum_monotonicity_check(p1, p2)


def test_monotonicity_rejects_different_step_lattices():
    p1 = LinearProblem(0.0, "random", GRID, 1.0, baseline=0.1,
                       steps_per_period=128)
    p2 = LinearProblem(0.0, "random", GRID, 1.0, baseline=0.2,
                       steps_per_period=256)
    with pytest.raises(PreconditionError):
        spectrum_monotonicity_check(p1, p2)


def test_bump_lower_bound_vs_homogeneous_tail(rng):
    g = Grid(-20.0, 20.0, 401)
    for _ in range(3):
        mean = rng.uniform(-0.3, 0.3)
        base = PeriodicScalar.harmonic(mean, rng.uniform(0, 0.4))
        p = LinearProblem(0.0, "random", g, 1.0, baseline=base,
                          bump=SpatialBump(rng.uniform(0.1, 0.5), 2.0, 0.5))
        res = principal_spectrum_point(p)
        assert res.lam >= mean - 1e-5


def test_scheme_independence():
    # smooth (tapered) bump: halving dt and doubling resolution barely move
    # the exponent
    bump = SpatialBump(0.5, 1.5, 1.0)
    g = Grid(-20.0, 20.0, 401)
    p1 = LinearProblem(0.0, "random", g, 1.0, baseline=-0.1, bump=bump)
    r1 = principal_spectrum_point(p1)
    p2 = LinearProblem(0.0, "random", g, 1.0, baseline=-0.1, bump=bump,
                       steps_per_period=2 * p1.resolved_steps())
    r2 = principal_spectrum_point(p2)
    g3 = Grid(-20.0, 20.0, 801)
    p3 = LinearProblem(0.0, "random", g3, 1.0, baseline=-0.1, bump=bump)
    r3 = principal_spectrum_point(p3)
    assert abs(r2.lam - r1.lam) < 1e-4
    assert abs(r3.lam - r1.lam) < 1e-4


def test_widened_domain_check():
    g = Grid(-25.0, 25.0, 501)
    p = LinearProblem(0.0, "random", g, 1.0, baseline=-0.1,
                      bump=SpatialBump(0.5, 2.0, 0.0))
    res, shift = principal_spectrum_point_widened(p)
    assert shift < 1e-4
    assert res.lam > 0.1


def test_radius_threshold_sandwich():
    g = Grid(-25.0, 25.0, 501)
    p = LinearProblem(0.0, "random", g, 1.0, baseline=0.0,
                      bump=SpatialBump(0.5, 2.0, 0.0))
    assert radius_threshold_test(p, 0.1) == "above"
    assert radius_threshold_test(p, 0.5) == "below"


def test_positive_tilt_rejected_for_localized_coefficients():
    with pytest.raises(PreconditionError):
        LinearProblem(1.0, "random", GRID, 1.0, baseline=0.5,
                      bump=SpatialBump(0.2, 1.0, 0.5))


def test_nonlocal_requires_kernel():
    with pytest.raises(PreconditionError):
        LinearProblem(0.0, "nonlocal", GRID, 1.0, baseline=0.5)


def test_stability_bound_violation_signals():
    p = LinearProblem(0.0, "random", GRID, 1.0, baseline=0.5,
                      steps_per_period=4)
    with pytest.raises(NumericalGuardError):
        evolve_linear(np.ones(GRID.n), p, 0.0, 1.0)


def test_growth_exponent_closed_forms():
    assert homogeneous_growth_exponent(2.0, 0.8, "random") == pytest.approx(4.8)
    k = Kernel.build("uniform", 1.0, 0.01)
    lam = homogeneous_growth_exponent(1.0, 0.8, "nonlocal", k)
    assert lam == pytest.approx(np.sinh(1.0) - 1.0 + 0.8, abs=1e-4)


def _reference_period(stepper, u):
    """One period with the reaction coefficient formed on every step."""
    p = stepper.p
    for k in range(stepper.spp):
        a = p.reaction_coefficient(k, stepper.spp)
        half = np.exp((0.5 * stepper.dt) * a)
        u = half * stepper._dispersal(u * half)
    return u


@pytest.mark.parametrize("case", ["harmonic-bump", "table", "tilted"])
def test_tabulated_period_map_matches_per_step_coefficients(case, rng):
    if case == "harmonic-bump":
        p = LinearProblem(0.0, "random", GRID, 1.0,
                          baseline=PeriodicScalar.harmonic(0.2, 0.3, 0.4),
                          bump=SpatialBump(0.5, 1.0, 0.5))
    elif case == "table":
        table = rng.uniform(-0.5, 0.5, (MIN_STEPS_PER_PERIOD, GRID.n))
        p = LinearProblem(0.0, "random", GRID, 1.0, coef_table=table)
    else:
        p = LinearProblem(0.7, "nonlocal", GRID, 1.0,
                          baseline=PeriodicScalar.harmonic(0.1, 0.2),
                          kernel=Kernel.build("uniform", 1.0, GRID.h))
    stepper = _LinearStepper(p)
    u0 = rng.uniform(0.1, 1.0, GRID.n)
    assert np.array_equal(stepper.run_period(u0),
                          _reference_period(stepper, u0))


def _dense_correlation(weights, n):
    """Dense C with (C u)_j = sum_k weights[k+m] u[clip(j+k)]: the kernel
    correlation with constant extension of the edges."""
    m = (weights.size - 1) // 2
    c = np.zeros((n, n))
    for j in range(n):
        for k in range(-m, m + 1):
            c[j, min(max(j + k, 0), n - 1)] += weights[k + m]
    return c


def _nonlocal_stepper(dt_mass):
    kernel = Kernel.build("uniform", 1.0, GRID.h)
    spp = MIN_STEPS_PER_PERIOD
    period = dt_mass * spp / kernel.mass()
    return _LinearStepper(LinearProblem(0.0, "nonlocal", GRID, period,
                                        kernel=kernel, steps_per_period=spp))


@pytest.mark.parametrize("dt_mass", [1.0, 0.25])
def test_nonlocal_step_matches_dense_series(dt_mass, rng):
    stepper = _nonlocal_stepper(dt_mass)
    dt, n = stepper.dt, GRID.n
    c = _dense_correlation(stepper._weights, n)
    b = c - float(np.sum(stepper._weights)) * np.eye(n)
    series = np.eye(n) + dt * b + 0.5 * dt * dt * (b @ b)
    u = rng.uniform(0.1, 1.0, n)
    np.testing.assert_allclose(stepper._dispersal(u), series @ u,
                               rtol=1e-12, atol=0.0)


def test_nonlocal_step_is_nonnegative_at_the_step_bound():
    stepper = _nonlocal_stepper(1.0)
    for j in range(GRID.n):
        assert np.all(stepper._dispersal(np.eye(GRID.n)[j]) >= 0.0), j
