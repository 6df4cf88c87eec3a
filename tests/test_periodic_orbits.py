import ast
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import compspread
from compspread.coefficients import CoefficientField, PeriodicScalar
from compspread.errors import NumericalGuardError, PreconditionError
from compspread.periodic_orbits import (cumulative_simpson,
                                        logistic_closed_form,
                                        logistic_orbit,
                                        nonhomogeneous_periodic)
from reference_routes import (coexistence_homogeneous, constant_set,
                              logistic_periodic)

TWO_PI = 2.0 * np.pi


def test_logistic_constant_equilibrium():
    orb = logistic_periodic(PeriodicScalar.constant(1.0),
                            PeriodicScalar.constant(1.0))
    assert np.allclose(orb.values, 1.0, atol=1e-10)


def test_logistic_resident_level():
    orb = logistic_periodic(PeriodicScalar.constant(0.4),
                            PeriodicScalar.constant(1.0))
    assert np.allclose(orb.values, 0.4, atol=1e-10)


def test_logistic_harmonic_matches_closed_form():
    a0 = PeriodicScalar.harmonic(1.0, 0.5, 0.0, 1.0)
    b0 = PeriodicScalar.constant(1.0, 1.0)
    orb = logistic_periodic(a0, b0)
    oracle = logistic_closed_form(a0, b0, 1.0)
    assert np.max(np.abs(orb.values - oracle.values)) < 1e-7
    # the log-derivative integrates to zero over a period
    mean_residual = np.mean(a0(orb.times[:-1]) - orb.values[:-1])
    assert abs(mean_residual) < 1e-8
    assert orb.tol < 1e-9


def test_logistic_mean_identity_random_pairs(rng):
    # (ln w)' integrates to zero over a period, so mean(a0 - b0 w) = 0
    for _ in range(5):
        a0 = PeriodicScalar.harmonic(rng.uniform(0.3, 1.5),
                                     rng.uniform(0.0, 0.25),
                                     rng.uniform(0, 2 * np.pi))
        b0 = PeriodicScalar.harmonic(rng.uniform(0.8, 1.5),
                                     rng.uniform(0.0, 0.3),
                                     rng.uniform(0, 2 * np.pi))
        orb = logistic_periodic(a0, b0)
        t = orb.times[:-1]
        residual = np.mean(a0(t) - b0(t) * orb.values[:-1])
        assert abs(residual) < 1e-8


def test_logistic_global_attraction():
    a0 = PeriodicScalar.harmonic(0.8, 0.3, 0.2, 1.0)
    b0 = PeriodicScalar.constant(1.0, 1.0)
    ref = logistic_periodic(a0, b0)
    lo = logistic_periodic(a0, b0, seed=0.1 * ref.values[0])
    hi = logistic_periodic(a0, b0, seed=10.0 * ref.values[0])
    assert np.max(np.abs(lo.values - ref.values)) < 1e-6
    assert np.max(np.abs(hi.values - ref.values)) < 1e-6


def test_logistic_rejects_nonpositive_mean_growth():
    with pytest.raises(PreconditionError):
        logistic_periodic(PeriodicScalar.harmonic(-0.1, 0.5),
                          PeriodicScalar.constant(1.0))


@pytest.mark.parametrize("period, intervals",
                         [(1.0, 4096), (0.7, 4096), (1.0, 4097), (1.0, 4)])
def test_cumulative_simpson_is_bitwise_scipy(period, intervals):
    t = np.linspace(0.0, period, intervals + 1)
    y = 1.0 + 0.5 * np.sin(TWO_PI * t / period) * np.exp(np.cos(3.0 * t))
    expected = integrate.cumulative_simpson(y, x=t, initial=0.0)
    assert np.array_equal(cumulative_simpson(y, t), expected)


@pytest.mark.parametrize("a0, b0", [
    (PeriodicScalar.harmonic(1.0, 0.5, 0.3, 1.0),
     PeriodicScalar.harmonic(1.2, 0.3, 1.1, 1.0)),
    (PeriodicScalar.table([[0.0, 0.35], [0.5, 0.45], [1.0, 0.35]], 1.0),
     PeriodicScalar.constant(1.0, 1.0)),
], ids=["harmonic", "table"])
def test_logistic_orbit_matches_the_time_map(a0, b0):
    orb = logistic_orbit(a0, b0)
    ref = logistic_periodic(a0, b0)
    assert np.array_equal(orb.times, ref.times)
    assert np.max(np.abs(orb.values - ref.values) / ref.values) < 1e-8
    assert orb.tol < 1e-14


@pytest.mark.parametrize("rate, period", [(-0.5, 2000.0), (-400.0, 2.0)])
def test_nonhomogeneous_refuses_an_overflowing_integrating_factor(rate, period):
    with pytest.raises(NumericalGuardError, match=r"e\^E overflows, E in \["):
        nonhomogeneous_periodic(PeriodicScalar.constant(rate, period),
                                PeriodicScalar.constant(1.0, period),
                                period=period)


@pytest.mark.parametrize("rate, period", [(0.5, 2000.0), (400.0, 2.0)])
def test_logistic_orbit_refuses_an_overflowing_integrating_factor(rate, period):
    with pytest.raises(NumericalGuardError, match=r"e\^E overflows, E in \["):
        logistic_orbit(PeriodicScalar.constant(rate, period),
                       PeriodicScalar.constant(1.0, period))


def test_nonhomogeneous_constant_equilibrium():
    orb = nonhomogeneous_periodic(PeriodicScalar.constant(-1.0),
                                  PeriodicScalar.constant(1.0), period=1.0)
    assert np.allclose(orb.values, 1.0, atol=1e-12)


def test_nonhomogeneous_zero_forcing():
    orb = nonhomogeneous_periodic(PeriodicScalar.constant(-1.0),
                                  PeriodicScalar.constant(0.0), period=1.0)
    assert np.allclose(orb.values, 0.0, atol=1e-14)


def test_nonhomogeneous_analytic_solution():
    # u' = -u + 1 + cos(2 pi t) has the periodic solution
    # 1 + (cos + 2 pi sin)/(1 + 4 pi^2)
    orb = nonhomogeneous_periodic(lambda t: -1.0 + 0.0 * np.asarray(t),
                                  lambda t: 1.0 + np.cos(TWO_PI * np.asarray(t)),
                                  period=1.0)
    t = orb.times
    exact = 1.0 + (np.cos(TWO_PI * t) + TWO_PI * np.sin(TWO_PI * t)) / (
        1.0 + TWO_PI ** 2)
    assert np.max(np.abs(orb.values - exact)) < 1e-9


def test_nonhomogeneous_positive_forcing_gives_positive_orbit():
    orb = nonhomogeneous_periodic(
        lambda t: -0.8 + 0.3 * np.sin(TWO_PI * np.asarray(t)),
        lambda t: 0.5 + 0.5 * np.cos(TWO_PI * np.asarray(t)) ** 2,
        period=1.0)
    assert np.min(orb.values) > 0.0


def test_nonhomogeneous_rejects_nonnegative_mean():
    with pytest.raises(PreconditionError):
        nonhomogeneous_periodic(PeriodicScalar.constant(0.1),
                                PeriodicScalar.constant(1.0), period=1.0)


def test_coexistence_symmetric_weak(weak_set):
    u, v = coexistence_homogeneous(weak_set)
    assert np.allclose(u.values, 2.0 / 3.0, atol=1e-9)
    assert np.allclose(v.values, 2.0 / 3.0, atol=1e-9)


def test_coexistence_second_constant_case():
    cs = constant_set(1, 1, 0.25, 1, 0.25, 1)
    u, v = coexistence_homogeneous(cs)
    assert np.allclose(u.values, 0.8, atol=1e-9)
    assert np.allclose(v.values, 0.8, atol=1e-9)


def test_coexistence_precondition_boundary():
    with pytest.raises(PreconditionError):
        coexistence_homogeneous(constant_set(2, 1, 0.5, 1, 0.5, 1))


def test_coexistence_orbit_satisfies_the_system():
    cs = constant_set(1, 1, 0.5, 1, 0.5, 1).replace_field(
        "a1", CoefficientField(PeriodicScalar.harmonic(1.0, 0.2)))
    u, v = coexistence_homogeneous(cs)
    t = u.times[:-1]
    n = t.size
    freq = np.fft.rfftfreq(n, d=1.0 / n)

    def deriv(vals):
        return np.fft.irfft(2j * np.pi * freq * np.fft.rfft(vals[:-1]), n)

    a1 = cs.a1.baseline(t)
    res_u = deriv(u.values) - u.values[:-1] * (
        a1 - u.values[:-1] - 0.5 * v.values[:-1])
    res_v = deriv(v.values) - v.values[:-1] * (
        1.0 - 0.5 * u.values[:-1] - v.values[:-1])
    assert np.max(np.abs(res_u)) < 1e-6
    assert np.max(np.abs(res_v)) < 1e-6


def test_only_periodic_orbits_calls_logistic_orbit():
    # Every other module takes a resident orbit from resident_orbit, which
    # reads the species role table, instead of pairing coefficients itself.
    callers = set()
    for path in Path(compspread.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.attr if isinstance(func, ast.Attribute)
                        else getattr(func, "id", None))
                if name == "logistic_orbit":
                    callers.add(path.name)
    assert callers == {"periodic_orbits.py"}
