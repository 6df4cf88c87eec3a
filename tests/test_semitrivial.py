import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from compspread.coefficients import (CoefficientField, PeriodicScalar,
                                     SpatialBump)
from compspread.dispersal import Grid
from compspread.errors import NumericalGuardError, PreconditionError
from compspread.periodic_orbits import logistic_orbit
from compspread.semitrivial import (TAIL_TOL, compute_semitrivial,
                                    destabilizing_bump, far_field_exponent,
                                    linearized_radius)
from compspread.simulator import Problem
from compspread.spectrum import LinearProblem, principal_spectrum_point


@pytest.fixture
def canonical_problem(canonical_set):
    return Problem(canonical_set, Grid(-25.0, 25.0, 501))


def test_homogeneous_resident_matches_orbit(canonical_problem):
    vstar = compute_semitrivial("v", canonical_problem)
    orbit = logistic_orbit(canonical_problem.coefficients.a2.baseline,
                           canonical_problem.coefficients.c2.baseline)
    t_frames = np.arange(vstar.steps_per_period + 1) * vstar.dt
    assert np.max(np.abs(vstar.frames - orbit.value(t_frames)[:, None])) < 1e-6
    assert vstar.residual < 1e-8


def test_positive_bump_raises_resident_locally(canonical_set):
    bumped = canonical_set.with_bump_on("a2", SpatialBump(0.3, 1.5, 0.5))
    problem = Problem(bumped, Grid(-25.0, 25.0, 501))
    vstar = compute_semitrivial("v", problem, tail_margin=13.0)
    x = problem.grid.x
    assert np.min(vstar.frames) >= 0.4 - 1e-9
    over_bump = np.abs(x) <= 1.0
    assert np.min(vstar.frames[0][over_bump]) > 0.45
    tail = np.abs(x) >= 16.0
    assert np.max(np.abs(vstar.frames[0][tail] - 0.4)) < 1e-4


def test_negative_bump_lowers_resident_locally(canonical_set):
    bumped = canonical_set.with_bump_on("a2", SpatialBump(-0.2, 1.5, 0.5))
    problem = Problem(bumped, Grid(-25.0, 25.0, 501))
    vstar = compute_semitrivial("v", problem, tail_margin=13.0)
    x = problem.grid.x
    assert np.max(vstar.frames) <= 0.4 + 1e-9
    over_bump = np.abs(x) <= 1.0
    assert np.max(vstar.frames[0][over_bump]) < 0.37
    tail = np.abs(x) >= 16.0
    assert np.max(np.abs(vstar.frames[0][tail] - 0.4)) < 1e-4


def test_resident_unique_from_larger_seed(canonical_set):
    bumped = canonical_set.with_bump_on("a1", SpatialBump(0.2, 1.5, 0.5))
    problem = Problem(bumped, Grid(-25.0, 25.0, 501))
    ref = compute_semitrivial("u", problem)
    again = compute_semitrivial("u", problem, seed_scale=5.0)
    assert np.max(np.abs(ref.frames - again.frames)) < 1e-5


def test_tail_guard_fires_on_small_domain(canonical_set):
    bumped = canonical_set.with_bump_on("a2", SpatialBump(0.3, 1.5, 0.5))
    problem = Problem(bumped, Grid(-6.0, 6.0, 121))
    with pytest.raises(Exception):
        compute_semitrivial("v", problem, tail_margin=10.0)


def _harmonic_u_problem(canonical_set, bump, half_width, h):
    """u-resident with a1 = 1 + 0.3 sin(2 pi t), under the default scheme."""
    cs = canonical_set.replace_field(
        "a1", CoefficientField(PeriodicScalar.harmonic(1.0, 0.3), bump))
    n = int(round(2 * half_width / h)) + 1
    return Problem(cs, Grid(-half_width, half_width, n))


@pytest.mark.parametrize("half_width", [25.0, 50.0])
@pytest.mark.parametrize("bump", [None, SpatialBump(0.3, 1.0, 0.5)])
def test_tail_guard_blames_a_coarse_time_step(canonical_set, bump,
                                              half_width):
    # At h = 0.2 (dt = 0.04) the scheme's own homogeneous resident misses
    # the closed-form orbit by 1.4e-4 > TAIL_TOL, so no domain helps.
    problem = _harmonic_u_problem(canonical_set, bump, half_width, 0.2)
    with pytest.raises(NumericalGuardError,
                       match=r"time step too large: dt=0\.04\)"):
        compute_semitrivial("u", problem)
    compute_semitrivial("u", _harmonic_u_problem(canonical_set, bump,
                                                 half_width, 0.1))


def test_tail_guard_blames_the_domain_when_the_scheme_meets_the_orbit(
        canonical_set):
    # The tail starts halfway from the support (1.5) to the domain end, at
    # 3.25, where the resident still carries the bump.
    problem = _harmonic_u_problem(canonical_set, SpatialBump(0.3, 1.0, 0.5),
                                  5.0, 0.1)
    with pytest.raises(NumericalGuardError, match="domain too small"):
        compute_semitrivial("u", problem, tail_margin=0.5)


def _square_a2_problem(canonical_set, half_width):
    """The canonical set with a square bump 0.3 x 4 on a2, at h = 0.1."""
    cs = canonical_set.with_bump_on("a2", SpatialBump.square(0.3, 4.0))
    n = int(round(2 * half_width / 0.1)) + 1
    return Problem(cs, Grid(-half_width, half_width, n))


def test_tail_check_recedes_as_the_domain_grows(canonical_set):
    # The v-resident decays from the bump at about exp(-sqrt(0.4)|x|): at
    # tail_margin 10 beyond the support it still misses the orbit by more
    # than TAIL_TOL.  On half-width 30 the tail starts at 16, and the
    # resident meets the orbit there.
    vstar = compute_semitrivial("v", _square_a2_problem(canonical_set, 30.0))
    x = vstar.grid.x
    assert np.max(np.abs(vstar.frames[:, np.abs(x) >= 16.0] - 0.4)) \
        <= TAIL_TOL
    assert np.max(np.abs(vstar.frames[:, np.abs(x) >= 12.0] - 0.4)) \
        > TAIL_TOL


def test_tail_check_blames_a_domain_one_unit_past_the_margin(canonical_set):
    # Half-width support + tail_margin + 1: the tail starts at the margin.
    with pytest.raises(NumericalGuardError, match=r"\(domain too small\)"):
        compute_semitrivial("v", _square_a2_problem(canonical_set, 13.0))


def test_linearized_radius_canonical(canonical_problem):
    ustar = compute_semitrivial("u", canonical_problem)
    vstar = compute_semitrivial("v", canonical_problem)
    # invading v at the u-resident: growth 0.4 - 0.5*1 = -0.1
    at_u = linearized_radius("u", canonical_problem, ustar)
    assert at_u.lam == pytest.approx(-0.1, abs=1e-5)
    assert at_u.radius == pytest.approx(np.exp(-0.1), abs=1e-5)
    assert not at_u.unstable
    # invading u at the v-resident: growth 1 - 0.5*0.4 = 0.8
    at_v = linearized_radius("v", canonical_problem, vstar)
    assert at_v.lam == pytest.approx(0.8, abs=1e-5)
    assert at_v.unstable
    assert not at_v.inconclusive


def test_verdict_is_inconclusive_when_the_bracket_contains_zero(canonical_set):
    # invading v at the u-resident: growth -0.1 away from the bump and
    # +0.2 on it; a tolerance wider than that settles on the constant
    # field's bracket, which straddles 0
    bumped = canonical_set.with_bump_on("a2", SpatialBump.square(0.3, 4.0))
    problem = Problem(bumped, Grid(-30.0, 30.0, 301))
    ustar = compute_semitrivial("u", problem)
    wide = linearized_radius("u", problem, ustar, tol=1.0)
    assert wide.lam_lo <= 0.0 <= wide.lam_hi
    assert wide.inconclusive
    sharp = linearized_radius("u", problem, ustar)
    assert sharp.lam_lo <= sharp.lam <= sharp.lam_hi
    assert not sharp.inconclusive


def test_verdict_with_a_bracket_containing_zero_is_not_unstable(
        canonical_set):
    # The wide-tolerance verdict above: lam = 0.2 inside [-0.1, 0.2].  A
    # positive estimate is not a certificate; only lam_lo > 0 is.
    bumped = canonical_set.with_bump_on("a2", SpatialBump.square(0.3, 4.0))
    problem = Problem(bumped, Grid(-30.0, 30.0, 301))
    ustar = compute_semitrivial("u", problem)
    wide = linearized_radius("u", problem, ustar, tol=1.0)
    assert wide.lam == pytest.approx(0.2, abs=1e-9)
    assert wide.lam_lo == pytest.approx(-0.1, abs=1e-9)
    assert wide.inconclusive
    assert not wide.unstable


def test_linearized_radius_general_table_path(canonical_set):
    # a bump on b2 makes the coefficient non-separable
    bumped = canonical_set.with_bump_on("b2", SpatialBump(0.2, 1.5, 0.5))
    problem = Problem(bumped, Grid(-25.0, 25.0, 501))
    ustar = compute_semitrivial("u", problem)
    verdict = linearized_radius("u", problem, ustar)
    # stronger local suppression can only push the exponent down
    assert verdict.lam <= -0.1 + 1e-4


def test_invader_table_is_the_per_step_table(canonical_set):
    # A harmonic resident with a bump takes the table path; the table is
    # built in one broadcast and must equal the one formed step by step.
    cs = canonical_set.replace_field(
        "a1", CoefficientField(PeriodicScalar.harmonic(1.0, 0.3),
                               SpatialBump(0.3, 1.5, 0.5)))
    cs = cs.replace_field(
        "a2", CoefficientField(PeriodicScalar.harmonic(0.4, 0.2, 0.5)))
    problem = Problem(cs, Grid(-25.0, 25.0, 501))
    ustar = compute_semitrivial("u", problem)
    spp = ustar.steps_per_period
    x = problem.grid.x
    table = np.empty((spp, x.size))
    for k in range(spp):
        t_mid = (k + 0.5) * ustar.dt
        w_mid = 0.5 * (ustar.frames[k] + ustar.frames[k + 1])
        table[k] = cs.a2.value(t_mid, x) - cs.b2.value(t_mid, x) * w_mid
    ref = principal_spectrum_point(
        LinearProblem(0.0, "random", problem.grid, cs.period,
                      coef_table=table, steps_per_period=spp))
    verdict = linearized_radius("u", problem, ustar)
    assert verdict.spectrum.periods > 0
    assert (verdict.lam, verdict.lam_lo, verdict.lam_hi) == (
        ref.lam, ref.lam_lo, ref.lam_hi)


def test_destabilizing_bump_search(canonical_set):
    result = destabilizing_bump(canonical_set)
    assert result.threshold == pytest.approx(0.1, abs=1e-9)
    assert result.bump.amplitude == pytest.approx(0.2)
    assert 2 * result.bump.plateau == pytest.approx(8.0)
    assert result.lam_bump > result.threshold
    assert result.lam_total > 0.0
    # additive split of the exponent is exact for separable coefficients
    assert result.lam_total == pytest.approx(result.lam_bump - 0.1, abs=1e-6)
    # smaller amplitudes were scanned and rejected
    rejected = [s for s in result.scanned if s[0] < 0.2]
    assert rejected and all(s[2] in ("below", "confirmed-below", "total-below")
                            for s in rejected)


def test_destabilizing_bump_oracle_agreement(canonical_set):
    # independent oracle: dense eigenvalue of the discretized operator
    # u'' + bump(x) u on a wide reflecting-boundary grid
    result = destabilizing_bump(canonical_set)
    h = 0.02
    L = 40.0
    n = int(2 * L / h) + 1
    x = np.linspace(-L, L, n)
    a_bump = result.bump(x)
    main = -2.0 * np.ones(n) / h ** 2 + a_bump
    off = np.ones(n - 1) / h ** 2
    top = eigh_tridiagonal(main, off, select="i",
                           select_range=(n - 1, n - 1))[0][0]
    assert result.lam_bump == pytest.approx(top, abs=2e-3)


def test_monotonicity_chain_for_nonnegative_bumps(canonical_set):
    # localized extra growth of the invader never lowers the invasion
    # exponent below the homogeneous value
    for amp, width in ((0.1, 2.0), (0.3, 4.0)):
        bumped = canonical_set.with_bump_on("a2", SpatialBump.square(amp, width))
        problem = Problem(bumped, Grid(-30.0, 30.0, 601))
        ustar = compute_semitrivial("u", problem)
        verdict = linearized_radius("u", problem, ustar)
        assert verdict.lam >= -0.1 - 1e-5


def test_destabilizing_bump_search_nonlocal(canonical_set):
    # a kernel spec alone selects the nonlocal search
    result = destabilizing_bump(canonical_set, kernel_spec=("uniform", 1.0))
    assert result.bump.amplitude == pytest.approx(0.15)
    assert 2 * result.bump.plateau == pytest.approx(4.0)
    assert result.lam_total > 0.0


def test_destabilize_requires_stable_start(weak_set):
    with pytest.raises(PreconditionError):
        destabilizing_bump(weak_set)  # already unstable: mean = 1 - 0.5/2 > 0


def test_far_field_exponent_of_constant_residents(weak_set):
    # Weak set: each invader grows at 1 - 0.5 * 1 where the other species
    # sits at its carrying capacity 1.
    problem = Problem(weak_set, Grid(-10.0, 10.0, 101))
    for target in ("u", "v"):
        resident = compute_semitrivial(target, problem)
        assert far_field_exponent(target, problem, resident) == \
            pytest.approx(0.5, abs=1e-12)
