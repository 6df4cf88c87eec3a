"""The benchmark's own tests: each reference reproduces a closed form, and
each check accepts a right answer and rejects a perturbed one.

    python3 -m pytest perfbench/tests -q

Nothing here imports compspread.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import references as ref  # noqa: E402
import workloads  # noqa: E402

SMALL_RANDOM = (-10.0, 10.0, 101)
SMALL_KERNEL = (-10.0, 10.0, 101)
NO_BUMP = (0.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind, radius", [("random", None), ("nonlocal", 1.0)])
def test_dense_exponent_of_homogeneous_problem_is_its_time_mean(kind, radius):
    baseline = (0.3, 0.2, 1.1)
    lam = ref.dense_exponent(kind, SMALL_RANDOM, 64, NO_BUMP, baseline, radius)
    assert abs(lam - 0.3) < 1e-12


def test_dense_exponent_matches_power_iteration_on_the_step_matrix():
    lo, hi, n = SMALL_RANDOM
    bump = (0.4, 2.0, 0.5)
    steps = 64
    x = np.linspace(lo, hi, n)
    dt = 1.0 / steps
    half = np.exp(0.5 * dt * ref.plateau_bump(x, *bump))
    s = half[:, None] * ref.dispersal_matrix("random", n, x[1] - x[0], dt) \
        * half[None, :]
    u = np.ones(n)
    for _ in range(20000):
        su = s @ u
        rho = float(np.max(su))
        u = su / rho
    lam_power = steps * math.log(rho)
    lam = ref.dense_exponent("random", SMALL_RANDOM, steps, bump,
                             (0.0, 0.0, 0.0))
    assert abs(lam - lam_power) < 1e-10
    assert lam > 0.0


def test_dense_dispersal_matrices_conserve_constants():
    for kind in ("random", "nonlocal"):
        d = ref.dispersal_matrix(kind, 101, 0.2, 1.0 / 64, 1.0)
        assert np.allclose(d @ np.ones(101), 1.0, atol=1e-13)


def test_minimizer_gives_two_sqrt_rate_for_random_dispersal():
    c = ref.minimal_speed(lambda mu: mu * mu + 0.8)
    assert abs(c - 2.0 * math.sqrt(0.8)) < 1e-9
    rate = ref.resident_invasion_exponent(1.0, 0.5, 0.4, 1.0)
    assert abs(ref.random_invasion_speed(rate) - c) < 1e-9


def test_nonlocal_invasion_speed_is_the_scalar_minimum():
    c = ref.nonlocal_invasion_speed(0.8)
    mus = np.linspace(0.05, 6.0, 200001)
    grid_min = np.min((np.sinh(mus) / mus - 1.0 + 0.8) / mus)
    assert abs(c - grid_min) < 1e-8
    assert abs(c - 0.79679) < 1e-5


def test_uniform_kernel_moment_matches_quadrature():
    z = np.linspace(-1.0, 1.0, 200001)
    for mu in (0.2, 0.5, 1.5):
        quad = np.trapezoid(0.5 * np.exp(mu * z), z)
        assert abs(ref.uniform_kernel_moment(mu) - quad) < 1e-9


def test_closed_forms():
    assert ref.interior_equilibrium(1.0, 1.0, 0.5, 1.0, 0.5, 1.0) == \
        pytest.approx((2.0 / 3.0, 2.0 / 3.0), abs=1e-15)
    assert ref.resident_invasion_exponent(0.4, 0.5, 1.0, 1.0) == \
        pytest.approx(-0.1, abs=1e-15)
    assert ref.tilted_homogeneous_exponent(0.5, 0.1, "random") == \
        pytest.approx(0.35)
    assert ref.tilted_homogeneous_exponent(0.5, 0.1, "nonlocal") == \
        pytest.approx(math.sinh(0.5) / 0.5 - 0.9)


def test_uniform_kernel_weights_have_unit_trapezoid_mass():
    w = ref.uniform_kernel_weights(1.0, 0.1)
    assert w.size == 23 and w[0] == 0.0 and w[-1] == 0.0
    assert abs(0.1 * w.sum() - 1.0) < 1e-15


# ---------------------------------------------------------------------------
# checks accept right answers and reject perturbed ones
# ---------------------------------------------------------------------------

def _op(workload, name):
    return next(op for op in workloads.build(workload, 0)
                if op["name"] == name)


def _passes(check, op, ans):
    return not checks.CHECKS[check](op, ans).problems


def test_kpp_check():
    op = _op("fronts", "kpp_control")
    ans = {"speed": 1.983, "u": np.linspace(0.0, 1.0, 11), "v": np.zeros(11)}
    assert _passes("kpp", op, ans)
    assert not _passes("kpp", op, {**ans, "speed": 2.2})
    assert not _passes("kpp", op, {**ans, "u": np.linspace(0.0, 1.01, 11)})


def test_interval_check():
    op = _op("fronts", "interval_random")
    c0 = 2.0 * math.sqrt(0.8)
    assert _passes("interval", op, {"lower": 0.99 * c0, "upper": c0})
    assert not _passes("interval", op, {"lower": 0.94 * c0, "upper": c0})
    nonlocal_op = _op("fronts", "interval_nonlocal")
    c0 = ref.nonlocal_invasion_speed(0.8)
    assert _passes("interval", nonlocal_op, {"lower": c0, "upper": c0})
    assert not _passes("interval", nonlocal_op,
                       {"lower": c0, "upper": 1.06 * c0})


def test_speed_and_dispersion_checks():
    op = _op("spectra", "speed_kernel")
    c0 = ref.nonlocal_invasion_speed(0.8)
    assert _passes("speed", op, {"value": 1.002 * c0})
    assert not _passes("speed", op, {"value": 1.1 * c0})
    op = _op("fronts", "dispersion_kernel")
    mu = np.linspace(0.1, 0.5, 41)
    lam = np.sinh(mu) / mu - 1.0 + 0.8
    assert _passes("dispersion", op, {"mu": mu, "lambda": lam + 1e-6})
    assert not _passes("dispersion", op, {"mu": mu, "lambda": lam + 2e-5})


def _small_dense_op(kind, radius):
    return {"problem": {"mu": 0.0, "kind": kind, "grid": SMALL_KERNEL,
                        "baseline": {"mean": 0.1, "amplitude": 0.2,
                                     "phase": 0.3},
                        "bump": {"amplitude": 0.5, "plateau": 1.5,
                                 "ramp": 0.5},
                        "kernel_radius": radius, "steps": 64}}


@pytest.mark.parametrize("kind, radius", [("random", None), ("nonlocal", 1.0)])
def test_dense_exponent_check(kind, radius):
    op = _small_dense_op(kind, radius)
    lam = ref.dense_exponent(kind, SMALL_KERNEL, 64, (0.5, 1.5, 0.5),
                             (0.1, 0.2, 0.3), radius)
    assert _passes("exponent_dense", op, {"lam": lam + 5e-6})
    assert not _passes("exponent_dense", op, {"lam": lam + 2e-5})


def test_tilted_exponent_check():
    op = _op("spectra", "tilted_kernel_0")
    p = op["problem"]
    lam = math.sinh(p["mu"]) / p["mu"] - 1.0 + p["baseline"]["mean"]
    assert _passes("exponent_tilted", op, {"lam": lam})
    assert not _passes("exponent_tilted", op, {"lam": lam - 2e-5})


def test_invasion_exponent_check():
    op = _op("residents", "invasion_exponent")
    b = workloads.FIXED_RESIDENT_BUMP
    lam = ref.dense_exponent("random", workloads.RESIDENTS_GRID, 256,
                             (b["amplitude"], b["width"] / 2.0, b["ramp"]),
                             (0.5, 0.0, 0.0))
    assert _passes("exponent_invasion", op, {"lam": lam})
    assert not _passes("exponent_invasion", op, {"lam": lam + 2e-5})


def test_destabilize_check():
    op = _op("spectra", "destabilize")
    m = math.ceil((4.0 + 25.0) / 0.1)
    grid = (-m * 0.1, m * 0.1, 2 * m + 1)
    lam_bump = ref.dense_exponent("random", grid, 256, (0.2, 4.0, 0.0),
                                  (0.0, 0.0, 0.0))
    ans = {"amplitude": 0.2, "width": 8.0, "threshold": 0.1,
           "lam_bump": lam_bump, "lam_total": lam_bump - 0.1}
    assert _passes("destabilize", op, ans)
    assert not _passes("destabilize", op,
                       {**ans, "lam_total": ans["lam_total"] + 2e-5})
    assert not _passes("destabilize", op, {**ans, "threshold": 0.2})
    assert not _passes("destabilize", op, {**ans, "lam_total": -0.01})


def _coexist_answer(level=2.0 / 3.0):
    x = np.linspace(-30.0, 30.0, 301)
    flat = np.full(301, level)
    return {"x": x, "u_upper": flat + 1e-6, "u_lower": flat.copy(),
            "v_upper": flat.copy(), "v_lower": flat + 1e-6,
            "max_monotonicity_violation": 0.0, "ordered": True}


def test_coexistence_checks():
    flat_op = _op("residents", "thm41_coexistence")
    bumped_op = _op("residents", "coexist_random")
    ans = _coexist_answer()
    assert _passes("coexist_flat", flat_op, ans)
    assert not _passes("coexist_flat", flat_op, _coexist_answer(0.6668))
    assert not _passes("coexist_flat", flat_op,
                       {**ans, "max_monotonicity_violation": 1e-9})
    assert not _passes("coexist_flat", flat_op, {**ans, "ordered": False})
    bumped = _coexist_answer()
    bumped["u_upper"] = bumped["u_upper"] + 0.3 * (np.abs(bumped["x"]) < 3)
    assert _passes("coexist_bumped", bumped_op, bumped)
    tail_off = {**bumped, "v_lower": bumped["v_lower"] + 2e-3}
    assert not _passes("coexist_bumped", bumped_op, tail_off)
    crossed = {**bumped, "u_lower": bumped["u_upper"] + 1e-6}
    assert not _passes("coexist_bumped", bumped_op, crossed)


def test_persistence_check():
    op = _op("residents", "persistence")
    trials = [{"eta": 0.6, "failed": False, "settled_period": 30}]
    assert _passes("persistence", op, {"eta": 0.6, "failures": 0,
                                       "trials": trials})
    assert not _passes("persistence", op, {"eta": 0.0, "failures": 0,
                                           "trials": trials})
    assert not _passes("persistence", op, {"eta": 2.0, "failures": 0,
                                           "trials": trials})
    assert not _passes("persistence", op, {"eta": 0.6, "failures": 1,
                                           "trials": trials})


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def test_workloads_are_seeded_and_faults_take_fixed_inputs():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 3), workloads.build(name, 3)
        assert a == b
        c = workloads.build(name, 4)
        names = [op["name"] for op in a]
        assert len(set(names)) == len(names)
        for op_a, op_c in zip(a, c):
            if op_a["fault"] is not None:
                assert op_a == op_c
