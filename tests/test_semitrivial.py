import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from compspread.coefficients import SpatialBump
from compspread.dispersal import Grid
from compspread.errors import PreconditionError
from compspread.periodic_orbits import logistic_orbit
from compspread.semitrivial import (PeriodicField, compute_semitrivial,
                                    destabilizing_bump, linearized_radius)
from compspread.simulator import Problem


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


def test_linearized_radius_general_table_path(canonical_set):
    # a bump on b2 makes the coefficient non-separable
    bumped = canonical_set.with_bump_on("b2", SpatialBump(0.2, 1.5, 0.5))
    problem = Problem(bumped, Grid(-25.0, 25.0, 501))
    ustar = compute_semitrivial("u", problem)
    verdict = linearized_radius("u", problem, ustar)
    # stronger local suppression can only push the exponent down
    assert verdict.lam <= -0.1 + 1e-4


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


def test_periodic_field_npz_roundtrip(canonical_problem, tmp_path):
    vstar = compute_semitrivial("v", canonical_problem)
    path = tmp_path / "vstar.npz"
    vstar.save_npz(path)
    loaded = PeriodicField.load_npz(path)
    assert np.array_equal(loaded.frames, vstar.frames)
    assert loaded.grid == canonical_problem.grid


def test_periodic_field_csv(canonical_problem, tmp_path):
    vstar = compute_semitrivial("v", canonical_problem)
    path = tmp_path / "vstar.csv"
    vstar.to_csv(path, every_steps=vstar.steps_per_period,
                 every_points=100)
    text = path.read_text().splitlines()
    assert text[0] == "t,x,value"
    assert len(text) > 2
