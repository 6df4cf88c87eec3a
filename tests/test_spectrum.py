from dataclasses import replace

import numpy as np
import pytest

from compspread import spectrum
from compspread.coefficients import PeriodicScalar, SpatialBump
from compspread.dispersal import Grid, Kernel
from compspread.errors import (ConfigError, ConvergenceError,
                               NumericalGuardError, PreconditionError)
from compspread.spectrum import (MIN_STEPS_PER_PERIOD, LinearProblem,
                                 _LinearStepper,
                                 homogeneous_growth_exponent,
                                 principal_spectrum_point,
                                 principal_spectrum_point_widened,
                                 radius_threshold_test)
from reference_routes import (evolve_linear, kernel_mass,
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
    assert res.lam_hi - res.lam_lo < 1e-6


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


def test_monotonicity_rejects_different_kernels():
    # Equal coefficients under a radius-1 uniform and a radius-2 triangle
    # kernel are different problems, not an ordered pair.
    g = Grid(-20.0, 20.0, 401)
    p1 = LinearProblem(0.0, "nonlocal", g, 1.0, baseline=-0.1,
                       bump=SpatialBump(0.4, 2.0, 0.0),
                       kernel=Kernel.build("uniform", 1.0, g.h))
    p2 = LinearProblem(0.0, "nonlocal", g, 1.0, baseline=-0.1,
                       bump=SpatialBump(0.4, 2.0, 0.0),
                       kernel=Kernel.build("triangle", 2.0, g.h))
    with pytest.raises(PreconditionError, match="kernel"):
        spectrum_monotonicity_check(p1, p2)


def test_monotonicity_accepts_equal_kernels_built_apart():
    g = Grid(-10.0, 10.0, 201)
    p1 = LinearProblem(0.0, "nonlocal", g, 1.0, baseline=0.1,
                       kernel=Kernel.build("uniform", 1.0, g.h))
    p2 = LinearProblem(0.0, "nonlocal", g, 1.0, baseline=0.2,
                       kernel=Kernel.build("uniform", 1.0, g.h))
    v = spectrum_monotonicity_check(p1, p2)
    assert v.gap == pytest.approx(0.1, abs=1e-5)


def test_kernel_sampled_at_another_spacing_is_rejected():
    # Stepped on this h = 0.1 grid, a radius-1 kernel sampled at h = 0.05
    # gives lambda = 0.3603 where the matched kernel gives 0.4441.
    g = Grid(-20.0, 20.0, 401)
    with pytest.raises(ConfigError, match="spacing"):
        LinearProblem(0.0, "nonlocal", g, 1.0, baseline=0.0,
                      bump=SpatialBump(0.5, 2.0, 0.0),
                      kernel=Kernel.build("uniform", 1.0, 0.05))


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
    res = principal_spectrum_point_widened(p)
    wide = principal_spectrum_point(
        replace(p, grid=g.widened(spectrum.WIDEN_FACTOR)))
    shift = abs(wide.lam - res.lam)
    assert shift < 1e-4
    assert res.lam > 0.1


@pytest.mark.parametrize("level", [0.3, 1e-5])
def test_widened_domain_check_rejects_a_coefficient_table(level):
    # The table was once dropped from the widened problem, so a table was
    # compared with the widened zero problem: a table of 0.3 "shifted" by
    # 0.3 and one of 1e-5 passed with its own exponent as the shift.
    table = np.full((MIN_STEPS_PER_PERIOD, GRID.n), level)
    p = LinearProblem(0.0, "random", GRID, 1.0, coef_table=table)
    with pytest.raises(PreconditionError, match="coefficient table"):
        principal_spectrum_point_widened(p)


# Verdicts of the 200-map power screen that radius_threshold_test ran
# before it shared principal_spectrum_point's solver, at threshold 0.1 on
# Grid(-12, 12, 241): (kind, amplitude, width) -> verdict.
SCREEN_VERDICTS = {
    ("random", 0.15, 1.0): "below", ("random", 0.15, 2.0): "below",
    ("random", 0.15, 4.0): "below", ("random", 0.3, 1.0): "below",
    ("random", 0.3, 2.0): "below", ("random", 0.3, 4.0): "above",
    ("random", 0.45, 1.0): "below", ("random", 0.45, 2.0): "above",
    ("random", 0.45, 4.0): "above", ("random", 0.6, 1.0): "below",
    ("random", 0.6, 2.0): "above", ("random", 0.6, 4.0): "above",
    ("nonlocal", 0.15, 1.0): "below", ("nonlocal", 0.15, 2.0): "below",
    ("nonlocal", 0.15, 4.0): "above", ("nonlocal", 0.3, 1.0): "above",
    ("nonlocal", 0.3, 2.0): "above", ("nonlocal", 0.3, 4.0): "above",
    ("nonlocal", 0.45, 1.0): "above", ("nonlocal", 0.45, 2.0): "above",
    ("nonlocal", 0.45, 4.0): "above", ("nonlocal", 0.6, 1.0): "above",
    ("nonlocal", 0.6, 2.0): "above", ("nonlocal", 0.6, 4.0): "above",
}


def test_radius_threshold_verdicts_unchanged():
    g = Grid(-12.0, 12.0, 241)
    kernel = Kernel.build("uniform", 1.0, g.h)
    for (kind, amp, width), verdict in SCREEN_VERDICTS.items():
        p = LinearProblem(0.0, kind, g, 1.0, baseline=0.0,
                          bump=SpatialBump.square(amp, width),
                          kernel=kernel if kind == "nonlocal" else None)
        assert radius_threshold_test(p, 0.1) == verdict, (kind, amp, width)


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


def test_random_dispersal_rejects_a_kernel():
    # A kernel beside kind "random" used to be ignored: tilt_scalar gave
    # mu^2 = 1.0 where the nonlocal problem gives 0.1762.
    k = Kernel.build("uniform", 1.0, GRID.h)
    with pytest.raises(PreconditionError, match="takes no kernel"):
        LinearProblem(1.0, "random", GRID, 1.0, baseline=0.5, kernel=k)


def test_stability_bound_violation_signals():
    p = LinearProblem(0.0, "random", GRID, 1.0, baseline=0.5,
                      steps_per_period=4)
    with pytest.raises(NumericalGuardError):
        evolve_linear(np.ones(GRID.n), p, 0.0, 1.0)


def test_growth_exponent_closed_forms():
    assert homogeneous_growth_exponent(2.0, 0.8) == pytest.approx(4.8)
    k = Kernel.build("uniform", 1.0, 0.01)
    lam = homogeneous_growth_exponent(1.0, 0.8, k)
    assert lam == pytest.approx(np.sinh(1.0) - 1.0 + 0.8, abs=1e-4)


def _reference_period(stepper, u):
    """One period with the reaction coefficient formed on every step."""
    p = stepper.p
    for k in range(stepper.spp):
        a = p.reaction_coefficient(k, stepper.spp)
        half = np.exp((0.5 * stepper.dt) * a)
        u = half * stepper._dispersal(u * half)
    return u


@pytest.mark.parametrize("case", ["harmonic-bump", "constant-bump", "table",
                                  "tilted"])
def test_tabulated_period_map_matches_per_step_coefficients(case, rng):
    if case == "harmonic-bump":
        p = LinearProblem(0.0, "random", GRID, 1.0,
                          baseline=PeriodicScalar.harmonic(0.2, 0.3, 0.4),
                          bump=SpatialBump(0.5, 1.0, 0.5))
    elif case == "constant-bump":
        p = LinearProblem(0.0, "random", GRID, 1.0, baseline=-0.1,
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


def _composite_baseline():
    from compspread.coefficients import CoefficientField
    from compspread.periodic_orbits import InvasionRate, resident_orbit
    from reference_routes import constant_set
    cs = constant_set(1.0, 1.0, 0.5, 0.4, 0.5, 1.0)
    cs = cs.replace_field("a1", CoefficientField(
        PeriodicScalar.harmonic(1.0, 0.3)))
    cs = cs.replace_field("a2", CoefficientField(
        PeriodicScalar.harmonic(0.4, 0.2, 0.5)))
    return InvasionRate(cs, "v", resident_orbit(cs, "u"))


@pytest.mark.parametrize("case", ["float", "constant", "harmonic", "table",
                                  "composite", "tilted-random",
                                  "tilted-nonlocal"])
def test_phase_baselines_in_one_call_match_the_per_phase_values(case):
    kernel = None
    mu = 0.0
    if case == "float":
        baseline = -0.1
    elif case == "constant":
        baseline = PeriodicScalar.constant(0.3)
    elif case == "harmonic":
        baseline = PeriodicScalar.harmonic(0.2, 0.3, 0.4)
    elif case == "table":
        baseline = PeriodicScalar.table([(0.0, 0.1), (0.3, -0.2), (1.0, 0.1)],
                                        1.0)
    elif case == "composite":
        baseline = _composite_baseline()
    else:
        mu = 0.7
        baseline = PeriodicScalar.harmonic(0.1, 0.2)
        if case == "tilted-nonlocal":
            kernel = Kernel.build("uniform", 1.0, GRID.h)
    p = LinearProblem(mu, "random" if kernel is None else "nonlocal", GRID,
                      1.0, baseline=baseline, kernel=kernel)
    stepper = _LinearStepper(p)
    assert stepper.base.shape == (stepper.spp,)
    assert np.array_equal(
        stepper.base, [p.phase_baseline(k, stepper.spp)
                       for k in range(stepper.spp)])


def test_callable_baseline_must_return_one_value_per_time():
    p = LinearProblem(0.0, "random", GRID, 1.0, baseline=lambda t: 0.5)
    with pytest.raises(PreconditionError, match="one value per time"):
        _LinearStepper(p)


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
    period = dt_mass * spp / kernel_mass(kernel)
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


def _dense_exponent(p):
    """ln(spectral radius)/T of the period map assembled column by column."""
    stepper = _LinearStepper(p)
    m = np.column_stack([stepper.run_period(e) for e in np.eye(p.grid.n)])
    return float(np.log(np.max(np.abs(np.linalg.eigvals(m)))) / p.period)


def test_plateau_table_problem_matches_dense_exponent():
    # The constant field's sup-norm ratio sits on the tail value 0.5 for
    # several periods; the exponent is that of the bumped-down centre.
    g = Grid(-30.0, 30.0, 301)
    row = 0.5 - 0.3 * np.exp(-g.x ** 2 / 4.0)
    p = LinearProblem(0.0, "random", g, 1.0, coef_table=np.tile(row, (32, 1)),
                      steps_per_period=32)
    res = principal_spectrum_point(p)
    ref = _dense_exponent(p)
    assert ref == pytest.approx(0.4972841156, abs=1e-10)
    assert abs(res.lam - ref) < 1e-10
    assert res.lam_lo <= res.lam <= res.lam_hi


def _recorded_steppers(monkeypatch) -> list:
    """Every _LinearStepper that spectrum builds from now on."""
    made = []

    class Recording(_LinearStepper):
        def __init__(self, p):
            super().__init__(p)
            made.append(self)

    monkeypatch.setattr(spectrum, "_LinearStepper", Recording)
    return made


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1e-6])
def test_tolerance_that_is_not_positive_raises_before_any_step(tol,
                                                                monkeypatch):
    # NaN once passed a ``tol <= 0`` guard, skipped the one-step route and
    # spent every period map before ConvergenceError.
    p = LinearProblem(0.0, "random", Grid(-20.0, 20.0, 401), 1.0,
                      baseline=0.1, bump=SpatialBump(0.5, 2.0, 0.5))
    made = _recorded_steppers(monkeypatch)
    with pytest.raises(PreconditionError, match="tolerance"):
        principal_spectrum_point(p, tol=tol)
    assert made == []


def _no_half_step_tables(made: list) -> bool:
    return len(made) == 1 and "_half" not in vars(made[0])


@pytest.mark.parametrize("kind", ["random", "nonlocal"])
def test_bracket_contains_dense_exponent(kind, monkeypatch):
    g = Grid(-10.0, 10.0, 201)
    kernel = Kernel.build("uniform", 1.0, g.h) if kind == "nonlocal" else None
    p = LinearProblem(0.0, kind, g, 1.0,
                      baseline=PeriodicScalar.harmonic(-0.2, 0.3, 0.4),
                      bump=SpatialBump(0.5, 1.5, 0.5), kernel=kernel)
    made = _recorded_steppers(monkeypatch)
    res = principal_spectrum_point(p)
    assert _no_half_step_tables(made)
    ref = _dense_exponent(p)
    assert res.lam_lo - 1e-11 <= ref <= res.lam_hi + 1e-11
    assert res.lam_lo <= res.lam <= res.lam_hi
    assert res.periods == 0


@pytest.mark.parametrize("kind", ["random", "nonlocal"])
def test_separable_bracket_closes_in_two_maps(kind):
    # Baseline plus bump: the one-step pencil gives the eigenpair, and one
    # more step closes the bracket around the dense exponent; no period
    # map runs.
    g = Grid(-10.0, 10.0, 201)
    kernel = Kernel.build("uniform", 1.0, g.h) if kind == "nonlocal" else None
    p = LinearProblem(0.0, kind, g, 1.0,
                      baseline=PeriodicScalar.harmonic(-0.2, 0.3, 0.4),
                      bump=SpatialBump(0.5, 1.5, 0.5), kernel=kernel)
    res = principal_spectrum_point(p)
    ref = _dense_exponent(p)
    assert res.lam_lo - 1e-12 <= ref <= res.lam_hi + 1e-12
    assert res.lam_hi - res.lam_lo <= 1e-10
    assert res.periods == 0


def test_unsettled_pencil_falls_back_to_arpack(monkeypatch):
    p = LinearProblem(0.0, "random", Grid(-10.0, 10.0, 201), 1.0,
                      baseline=-0.1, bump=SpatialBump(0.5, 1.5, 0.5))
    pencil = principal_spectrum_point(p)
    monkeypatch.setattr(spectrum, "PENCIL_ITERATIONS", 1)
    arpack = principal_spectrum_point(p)
    assert arpack.periods > 2
    assert abs(arpack.lam - pencil.lam) <= 1e-10


def test_uniform_kernel_square_bump_brackets_shut():
    # A square bump under the uniform kernel: the eigenvector's tails fall
    # to 1e-11 at the grid edge, where ARPACK's Ritz vector left the
    # bracket [0.0295, 0.1903] around 0.18740.
    g = Grid(-25.6, 25.6, 513)
    p = LinearProblem(0.0, "nonlocal", g, 1.0, baseline=0.0,
                      bump=SpatialBump.square(0.3, 2.0),
                      kernel=Kernel.build("uniform", 1.0, g.h))
    res = principal_spectrum_point(p, tol=1e-8)
    assert res.lam_hi - res.lam_lo <= 1e-10
    assert res.lam == pytest.approx(0.18740, abs=1e-5)


def test_one_period_budget_on_a_separable_problem_raises(monkeypatch):
    # An unsettled pencil leaves the problem to period maps and ARPACK.
    monkeypatch.setattr(spectrum, "PENCIL_ITERATIONS", 1)
    monkeypatch.setattr(spectrum, "MAX_PERIODS", 1)
    p = LinearProblem(0.0, "random", GRID, 1.0, baseline=-0.1,
                      bump=SpatialBump(0.5, 1.0, 0.5))
    with pytest.raises(ConvergenceError) as info:
        principal_spectrum_point(p)
    assert info.value.diagnostics["periods"] == 1


@pytest.mark.parametrize("case", ["homogeneous", "tilted-random",
                                  "tilted-nonlocal"])
def test_homogeneous_problems_take_one_period_map(case, monkeypatch):
    if case == "homogeneous":
        p = _harmonic_problem(0.3, 0.5)
        exact = 0.3
    elif case == "tilted-random":
        p = LinearProblem(1.5, "random", GRID, 1.0, baseline=0.8)
        exact = 1.5 ** 2 + 0.8
    else:
        k = Kernel.build("uniform", 1.0, GRID.h)
        p = LinearProblem(0.5, "nonlocal", GRID, 1.0,
                          baseline=PeriodicScalar.harmonic(0.1, 0.2), kernel=k)
        exact = homogeneous_growth_exponent(0.5, 0.1, k)
    made = _recorded_steppers(monkeypatch)
    res = principal_spectrum_point(p)
    assert res.periods == 0
    assert res.lam_hi - res.lam_lo <= 1e-6
    assert abs(res.lam - exact) < 1e-5
    assert _no_half_step_tables(made)
    ref = _dense_exponent(p)
    assert res.lam_lo - 1e-11 <= ref <= res.lam_hi + 1e-11


def _unseparable_table(row: np.ndarray) -> np.ndarray:
    """row plus bump(x)*(1 + 0.5 sin 2 pi t_k): no phase scalar plus
    profile comes within 0.2 of it, so it takes period maps."""
    t_mid = (np.arange(MIN_STEPS_PER_PERIOD) + 0.5) / MIN_STEPS_PER_PERIOD
    bump = SpatialBump(0.5, 1.0, 0.5)(GRID.x)
    return row + bump * (1.0 + 0.5 * np.sin(2.0 * np.pi * t_mid))[:, None]


def test_too_few_periods_for_arpack_raise_convergence_error(monkeypatch):
    # A coefficient table takes ARPACK, which needs more than 5 maps.
    monkeypatch.setattr(spectrum, "MAX_PERIODS", 5)
    row = -0.1 + SpatialBump(0.5, 1.0, 0.5)(GRID.x)
    p = LinearProblem(0.0, "random", GRID, 1.0,
                      coef_table=_unseparable_table(row))
    with pytest.raises(ConvergenceError) as info:
        principal_spectrum_point(p)
    diag = info.value.diagnostics
    assert diag["periods"] == 5
    assert diag["lam_lo"] < diag["lam_hi"]


def test_nonfinite_period_map_signals():
    # A coefficient table takes period maps; e^800 overflows in the first.
    p = LinearProblem(0.0, "random", GRID, 1.0,
                      coef_table=_unseparable_table(np.full(GRID.n, 800.0)))
    with pytest.raises(NumericalGuardError), \
            np.errstate(over="ignore", invalid="ignore"):
        principal_spectrum_point(p)


def test_homogeneous_exponent_past_the_period_map_overflow():
    # e^800 overflows in a period map; the one step leaves the baseline to
    # the drift and stays finite.
    p = LinearProblem(0.0, "random", GRID, 1.0, baseline=800.0)
    res = principal_spectrum_point(p)
    assert res.periods == 0
    assert res.lam_lo <= 800.0 <= res.lam_hi
    assert res.lam == pytest.approx(800.0, abs=1e-9)


def test_nonfinite_fixed_step_signals():
    p = LinearProblem(0.0, "random", GRID, 1.0, baseline=0.0,
                      bump=SpatialBump(1e6, 1.0, 0.5))
    with pytest.raises(NumericalGuardError, match="fixed step"), \
            np.errstate(over="ignore", invalid="ignore"):
        principal_spectrum_point(p)


# --- coefficient tables on the one-step route ---------------------------------

TABLE_GRID = Grid(-10.0, 10.0, 201)
TABLE_BUMP = SpatialBump(0.5, 1.5, 0.5)
T_MID = (np.arange(MIN_STEPS_PER_PERIOD) + 0.5) / MIN_STEPS_PER_PERIOD


def _table_problem(kind: str, table: np.ndarray) -> LinearProblem:
    kernel = (Kernel.build("uniform", 1.0, TABLE_GRID.h)
              if kind == "nonlocal" else None)
    return LinearProblem(0.0, kind, TABLE_GRID, 1.0, coef_table=table,
                         kernel=kernel)


def _split(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """T = beta_k + c(x) + r: c the mean row, beta_k the row mean of T - c
    and delta = max|r|."""
    c = np.mean(table, axis=0)
    beta = np.mean(table - c, axis=1)
    return beta, c, float(np.max(np.abs(table - c - beta[:, None])))


@pytest.mark.parametrize("kind", ["random", "nonlocal"])
def test_tiled_table_takes_the_one_step_route(kind, monkeypatch):
    row = -0.2 + TABLE_BUMP(TABLE_GRID.x)
    p = _table_problem(kind, np.tile(row, (MIN_STEPS_PER_PERIOD, 1)))
    sep = principal_spectrum_point(replace(p, coef_table=None, baseline=-0.2,
                                           bump=TABLE_BUMP))
    made = _recorded_steppers(monkeypatch)
    res = principal_spectrum_point(p)
    assert res.periods == 0
    assert _no_half_step_tables(made)
    assert res.lam_lo <= sep.lam <= res.lam_hi
    assert res.lam_lo <= res.lam <= res.lam_hi
    assert res.lam_hi - res.lam_lo <= 1e-10
    assert res.widening == _split(p.coef_table)[2]


@pytest.mark.parametrize("kind", ["random", "nonlocal"])
def test_row_noise_widens_the_bracket_by_its_delta(kind, rng):
    row = -0.2 + TABLE_BUMP(TABLE_GRID.x)
    noise = 1e-13 * rng.choice([-1.0, 1.0],
                               size=(MIN_STEPS_PER_PERIOD, TABLE_GRID.n))
    p = _table_problem(kind, row + noise)
    beta, c, delta = _split(p.coef_table)
    assert 1e-13 <= delta <= 3e-13
    res = principal_spectrum_point(p)
    # The split problem base_k + c(x) steps exactly as the table's one step.
    sep = principal_spectrum_point(replace(p, coef_table=None,
                                           baseline=lambda t: beta,
                                           bump=lambda x: c))
    assert res.periods == sep.periods == 0
    assert res.widening == delta
    assert sep.widening == 0.0
    assert res.lam_lo == sep.lam_lo - delta
    assert res.lam_hi == sep.lam_hi + delta
    assert res.lam == sep.lam


@pytest.mark.parametrize("kind", ["random", "nonlocal"])
def test_harmonic_phase_plus_profile_splits_exactly(kind):
    a = PeriodicScalar.harmonic(-0.2, 0.3, 0.4)
    p = _table_problem(kind, a(T_MID)[:, None] + TABLE_BUMP(TABLE_GRID.x))
    stepper = _LinearStepper(p)
    mean = float(np.mean(a(T_MID)))
    assert np.max(np.abs(stepper.base - (a(T_MID) - mean))) <= 1e-15
    assert np.max(np.abs(stepper.profile - (TABLE_BUMP(TABLE_GRID.x) + mean))
                  ) <= 1e-15
    assert stepper.widening <= 1e-15
    res = principal_spectrum_point(p)
    sep = principal_spectrum_point(replace(p, coef_table=None, baseline=a,
                                           bump=TABLE_BUMP))
    assert res.periods == 0
    assert res.lam_lo <= sep.lam <= res.lam_hi
    assert abs(res.lam - sep.lam) <= 1e-12


@pytest.mark.parametrize("kind", ["random", "nonlocal"])
def test_unseparable_table_takes_period_maps(kind):
    row = -0.2 + TABLE_BUMP(TABLE_GRID.x)
    p = _table_problem(kind, row + TABLE_BUMP(TABLE_GRID.x)
                       * (0.5 * np.sin(2.0 * np.pi * T_MID))[:, None])
    assert 2.0 * _split(p.coef_table)[2] > spectrum.DEFAULT_TOL
    res = principal_spectrum_point(p)
    assert res.periods > 0
    assert res.widening == 0.0


def test_table_past_tol_takes_period_maps():
    # One tol either side of 2*delta: at or above it the one step answers,
    # below it the period maps do.
    row = -0.2 + TABLE_BUMP(TABLE_GRID.x)
    sign = np.where(np.arange(TABLE_GRID.n) < TABLE_GRID.n // 2, 1.0, -1.0)
    p = _table_problem("random", row + 1e-7 * np.outer(np.cos(2.0 * np.pi
                                                              * T_MID), sign))
    delta = _split(p.coef_table)[2]
    assert delta == pytest.approx(1e-7, rel=1e-2)
    assert principal_spectrum_point(p, tol=2.0 * delta).periods == 0
    res = principal_spectrum_point(p, tol=1.9 * delta)
    assert res.periods > 0
    assert res.widening == 0.0


def test_constant_table_exponent_past_the_period_map_overflow():
    # e^800 overflows in a period map; the one step of the table's split
    # stays finite.
    p = LinearProblem(0.0, "random", GRID, 1.0,
                      coef_table=np.full((MIN_STEPS_PER_PERIOD, GRID.n), 800.0))
    res = principal_spectrum_point(p)
    assert res.periods == 0
    assert res.widening == 0.0
    assert res.lam_lo <= 800.0 <= res.lam_hi
    assert res.lam == pytest.approx(800.0, abs=1e-9)


def test_banded_pencil_solve_is_bitwise_solve_banded(rng):
    # The nonlocal pencil solve hands dgbsv solve_banded's own band layout
    # in one reused work array: each solve, a repeated shift included, is
    # solve_banded on the same shifted band, bit for bit.
    from scipy.linalg import solve_banded
    grid = Grid(-5.0, 5.0, 101)
    p = LinearProblem(0.0, "nonlocal", grid, 1.0, baseline=-0.1,
                      bump=SpatialBump(0.5, 1.0, 0.5),
                      kernel=Kernel.build("uniform", 1.0, grid.h))
    stepper = _LinearStepper(p)
    b = np.exp(-stepper.dt * stepper.profile)
    solve = stepper.pencil_solver(b)
    ab = stepper._dispersal_band()
    bw = (ab.shape[0] - 1) // 2
    for s in (1.5, 1.01, 0.3, 1.5):
        y = rng.uniform(0.1, 1.0, grid.n)
        shifted = ab.copy()
        shifted[bw] -= s * b
        assert np.array_equal(solve(s, y),
                              solve_banded((bw, bw), shifted, b * y))


def test_singular_shift_returns_none():
    # At r = dt/(2h^2) = 1/2, s = 1 and b = (0, -1, ..., -1) the first row
    # of the tridiagonal system N - s*M*diag(b) is exactly zero.
    grid = Grid(0.0, 5.0, 11)
    p = LinearProblem(0.0, "random", grid, 1.0, steps_per_period=4)
    b = np.full(grid.n, -1.0)
    b[0] = 0.0
    assert _LinearStepper(p).pencil_solver(b)(1.0, np.ones(grid.n)) is None


@pytest.mark.parametrize("kind", ["random", "nonlocal"])
def test_pencil_solve_reads_lapack_info(kind, monkeypatch):
    # info > 0 (a zero pivot) is a singular shift; info < 0 is a bad call.
    stepper = _LinearStepper(LinearProblem(
        0.0, kind, GRID, 1.0, baseline=-0.1, bump=SpatialBump(0.5, 1.0, 0.5),
        kernel=Kernel.build("uniform", 1.0, GRID.h) if kind == "nonlocal"
        else None))
    # dgtsv returns (du2, d, du, x, info), dgbsv (lub, piv, x, info).
    routine, lead = ("dgtsv", 3) if kind == "random" else ("dgbsv", 2)
    solve = stepper.pencil_solver(np.ones(GRID.n))
    for info in (1, -4):
        monkeypatch.setattr(spectrum._accel, routine,
                            lambda *args, info=info: (None,) * lead
                            + (np.ones(GRID.n), info))
        if info > 0:
            assert solve(1.0, np.ones(GRID.n)) is None
        else:
            with pytest.raises(NumericalGuardError, match=routine):
                solve(1.0, np.ones(GRID.n))
