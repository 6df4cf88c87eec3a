import numpy as np
import pytest

from compspread.coefficients import (CoefficientField, CoefficientSet,
                                     PeriodicScalar, SpatialBump, check_h0,
                                     check_h1, check_h2, compute_envelopes)
from compspread.errors import ConfigError, PreconditionError
from reference_routes import (check_lv_determinacy, constant_set,
                              h2_constant_reduction, lv_coefficient_set,
                              margin_map, sampled_range)


def test_constant_scalar_values():
    c = PeriodicScalar.constant(0.7, period=2.0)
    assert c(0.3) == 0.7
    assert np.all(c(np.linspace(0, 4, 17)) == 0.7)


def test_harmonic_scalar_periodicity():
    s = PeriodicScalar.harmonic(1.0, 0.3, phase=0.4, period=1.5)
    t = np.linspace(0.0, 1.5, 37)
    assert np.allclose(s(t + 1.5), s(t), atol=0, rtol=1e-15)


def test_table_scalar_wraps_and_interpolates():
    s = PeriodicScalar.table([(0.0, 0.9), (0.5, 1.1), (1.0, 0.9)], period=1.0)
    assert s(0.25) == pytest.approx(1.0)
    assert s(1.25) == pytest.approx(1.0)
    assert s(0.0) == s(1.0) == 0.9


def test_table_endpoint_mismatch_rejected():
    with pytest.raises(ConfigError):
        PeriodicScalar.table([(0.0, 0.9), (1.0, 1.1)], period=1.0)


def test_bump_vanishes_outside_support_exactly():
    b = SpatialBump(0.5, plateau=1.0, ramp=0.5)
    assert b.support_radius == 1.5
    x = np.array([-5.0, -1.5, 1.5, 2.0, 100.0])
    assert np.all(b(x) == 0.0)
    assert b(0.0) == 0.5
    assert b(1.25) == pytest.approx(0.25)


def test_bump_bounded_by_amplitude():
    b = SpatialBump(-0.3, plateau=2.0, ramp=1.0)
    x = np.linspace(-5, 5, 401)
    assert np.all(np.abs(b(x)) <= 0.3 + 1e-15)


def test_field_locality_on_random_points(rng):
    field = CoefficientField(PeriodicScalar.harmonic(1.0, 0.2),
                             SpatialBump(0.4, 1.0, 1.0))
    m0 = field.support_radius
    for _ in range(100):
        t = rng.uniform(0, 10)
        x = rng.uniform(m0, m0 + 50) * rng.choice([-1, 1])
        assert field.value(t, x) == field.baseline(t)


def test_field_periodicity_exact_for_closed_forms(rng):
    field = CoefficientField(PeriodicScalar.harmonic(1.0, 0.25, 0.3, 1.0),
                             SpatialBump(0.2, 1.0, 0.5))
    for _ in range(50):
        t = rng.uniform(0, 5)
        x = rng.uniform(-4, 4)
        assert field.value(t + 1.0, x) == pytest.approx(field.value(t, x),
                                                        abs=1e-12)


def test_set_requires_positive_interactions():
    with pytest.raises(ConfigError):
        constant_set(1, 1, 0.5, 0.4, -0.1, 1)
    # a negative bump that drags c1 below zero is rejected as well
    good = constant_set(1, 1, 0.5, 0.4, 0.5, 1)
    with pytest.raises(ConfigError):
        good.with_bump_on("c1", SpatialBump(-0.6, 1.0, 0.5))


@pytest.mark.parametrize("build", [
    lambda: PeriodicScalar.constant(1.0, np.nan),
    lambda: PeriodicScalar.table([(0.0, 1.0), (np.nan, 1.0), (1.0, 1.0)], 1.0),
    lambda: constant_set(1, np.nan, 0.5, 0.4, 0.5, 1),
    lambda: SpatialBump(0.3, np.nan, 0.0),
    lambda: SpatialBump(0.3, 1.0, np.nan),
], ids=["period", "table knot", "interaction", "bump plateau", "bump ramp"])
def test_guards_reject_nan(build):
    # NaN fails every comparison, so a guard written as "x <= 0 is bad"
    # would let it through.
    with pytest.raises(ConfigError):
        build()


def test_set_period_mismatch_rejected():
    f = CoefficientField(PeriodicScalar.constant(1.0, period=1.0))
    g = CoefficientField(PeriodicScalar.constant(1.0, period=2.0))
    with pytest.raises(ConfigError):
        CoefficientSet(f, f, f, f, f, g)


# --- envelopes ------------------------------------------------------------

def test_envelopes_constants(canonical_set):
    env = compute_envelopes(canonical_set)
    assert (env.a1L, env.a1M) == (1.0, 1.0)
    assert (env.a2L, env.a2M) == (0.4, 0.4)
    assert (env.c1L, env.c1M) == (0.5, 0.5)


def test_envelopes_harmonic_exact():
    cs = constant_set(1, 1, 0.5, 0.4, 0.5, 1)
    cs = cs.replace_field("a1", CoefficientField(
        PeriodicScalar.harmonic(1.0, 0.3, 0.0, 1.0)))
    env = compute_envelopes(cs)
    assert env.a1L == pytest.approx(0.7)
    assert env.a1M == pytest.approx(1.3)


def test_envelopes_table():
    cs = constant_set(1, 1, 0.5, 0.4, 0.5, 1)
    cs = cs.replace_field("a1", CoefficientField(
        PeriodicScalar.table([(0.0, 0.9), (0.5, 1.1), (1.0, 0.9)], 1.0)))
    env = compute_envelopes(cs)
    assert env.a1L == pytest.approx(0.9)
    assert env.a1M == pytest.approx(1.1)


def test_envelope_refinement_stable(rng):
    cs = constant_set(1, 1, 0.5, 0.4, 0.5, 1).replace_field(
        "b1", CoefficientField(PeriodicScalar.table(
            [(0.0, 1.0), (0.3, 1.2), (0.7, 0.9), (1.0, 1.0)], 1.0)))
    e1 = compute_envelopes(cs)
    for name, (lo1, hi1) in e1.pairs().items():
        lo2, hi2 = sampled_range(getattr(cs, name).baseline, 512)
        assert abs(lo1 - lo2) < 1e-3
        assert abs(hi1 - hi2) < 1e-3


# --- hypothesis checks ----------------------------------------------------

def test_h0_canonical_holds(canonical_set):
    v = check_h0(compute_envelopes(canonical_set))
    assert v.holds
    assert all(m > 0 for m in v.margins)


def test_h0_fails_on_sign_changing_growth():
    cs = constant_set(1, 1, 0.5, 0.4, 0.5, 1).replace_field(
        "a2", CoefficientField(PeriodicScalar.harmonic(0.4, 0.5, 0.0, 1.0)))
    v = check_h0(compute_envelopes(cs))
    assert not v.holds
    assert margin_map(v)["a2L"] == pytest.approx(-0.1)


def test_h0_boundary_is_strict():
    cs = constant_set(1, 1, 0.5, 0.4, 0.5, 1).replace_field(
        "a1", CoefficientField(PeriodicScalar.constant(0.0, 1.0)))
    assert not check_h0(compute_envelopes(cs)).holds


def test_h1_canonical(canonical_set):
    v = check_h1(compute_envelopes(canonical_set))
    assert v.holds
    assert v.margins[0] == pytest.approx(1.0 - 0.2)
    assert v.margins[1] == pytest.approx(0.5 - 0.4)


def test_h1_strict_boundary_fails():
    cs = constant_set(1, 1, 0.5, 0.5, 0.5, 1)
    assert not check_h1(compute_envelopes(cs)).holds


def test_h1_first_condition_fails():
    cs = constant_set(1, 1, 3.0, 0.4, 0.5, 1)
    v = check_h1(compute_envelopes(cs))
    assert not v.holds
    assert v.margins[0] < 0


def test_h1_requires_h0():
    cs = constant_set(1, 1, 0.5, 0.4, 0.5, 1).replace_field(
        "a1", CoefficientField(PeriodicScalar.constant(-0.5, 1.0)))
    with pytest.raises(PreconditionError):
        check_h1(compute_envelopes(cs))


def test_h2_canonical_margins(canonical_set):
    # by hand: common = 1 - 0.2 - 0.4 + 0.8 = 1.2, then 1.2 - 0.1 and 1.2 - 0.4
    v = check_h2(canonical_set, compute_envelopes(canonical_set))
    assert v.holds
    assert v.margins[0] == pytest.approx(1.1)
    assert v.margins[1] == pytest.approx(0.8)


def test_h2_second_example():
    cs = constant_set(1, 1, 0.9, 0.9, 0.5, 1)
    v = check_h2(cs, compute_envelopes(cs))
    assert v.holds
    assert v.margins[0] == pytest.approx(0.685)
    assert v.margins[1] == pytest.approx(0.19)


def test_h2_fails_on_strong_competition():
    cs = constant_set(1, 1, 1.2, 1.0, 0.5, 1.0)
    v = check_h2(cs, compute_envelopes(cs))
    assert not v.holds
    assert v.margins[1] < 0


def test_h2_matches_constant_reduction(rng):
    # the general sampled form must agree with the constant-coefficient
    # reduction for arbitrary constant sets
    agree = 0
    for _ in range(50):
        vals = rng.uniform(0.1, 2.0, 6)
        cs = constant_set(*vals)
        general = check_h2(cs, compute_envelopes(cs))
        reduced = h2_constant_reduction(*vals)
        assert general.holds == reduced.holds
        assert general.margins[0] == pytest.approx(reduced.margins[0], abs=1e-12)
        assert general.margins[1] == pytest.approx(reduced.margins[1], abs=1e-12)
        agree += 1
    assert agree == 50


# --- normalized determinacy ------------------------------------------------

def test_lv_determinacy_holds():
    v = check_lv_determinacy(1.0, 1.0, 0.5, 1.0)
    assert v.holds
    assert v.margins[0] == pytest.approx(1.0 - (-1.0))


def test_lv_determinacy_fails():
    v = check_lv_determinacy(1.0, 1.0, 0.5, 4.0)
    assert not v.holds


def test_lv_determinacy_agrees_with_general():
    v = check_lv_determinacy(3.0, 1.0, 0.5, 4.0)
    assert v.holds
    assert v.note == "agrees-with-general"
    cs = lv_coefficient_set(3.0, 1.0, 0.5, 4.0)
    assert check_h2(cs, compute_envelopes(cs)).holds


def test_lv_determinacy_precondition():
    with pytest.raises(PreconditionError):
        check_lv_determinacy(1.0, 1.0, 1.2, 2.0)
