import hashlib

import numpy as np
import pytest

from compspread.coefficients import (CoefficientField, PeriodicScalar,
                                     SpatialBump)
from compspread.dispersal import Grid, Kernel
from compspread.errors import PreconditionError
from compspread.periodic_orbits import logistic_orbit
from compspread.semitrivial import compute_semitrivial
from compspread.simulator import (Problem, SystemState, make_front_data,
                                  make_scheme, run_transformed)
from compspread.verify import (SupersolutionSpec, ansatz_equation_residual,
                               build_ansatz_pair, build_supersolution,
                               check_ansatz_inequalities,
                               check_shifted_determinacy,
                               monotone_coexistence, persistence_probe,
                               shifted_set, supersolution_residual)
from reference_routes import constant_set, front_below_supersolution

MU_CANONICAL = np.sqrt(0.8)


# --- eps-inflated family ----------------------------------------------------

def test_shifted_set_moves_each_coefficient(canonical_set):
    sh = shifted_set(canonical_set, 0.05)
    t = 0.3
    assert sh.a1.baseline(t) == pytest.approx(1.05)
    assert sh.b1.baseline(t) == pytest.approx(0.95)
    assert sh.c1.baseline(t) == pytest.approx(0.45)
    assert sh.b2.baseline(t) == pytest.approx(0.55)
    assert sh.c2.baseline(t) == pytest.approx(1.05)
    # resident growth gains eps * (1 + 2 sup v0*) with sup v0* = 0.4
    assert sh.a2.baseline(t) == pytest.approx(0.4 + 0.05 * 1.8)


def test_shifted_determinacy_margins_positive(canonical_set):
    sh = shifted_set(canonical_set, 0.05)
    m1, m2 = check_shifted_determinacy(canonical_set, sh)
    assert m1 > 0 and m2 > 0


# --- ansatz pair ------------------------------------------------------------

def test_ansatz_canonical_values(canonical_set):
    pair = build_ansatz_pair(canonical_set, 0.0, MU_CANONICAL)
    assert pair.lam == pytest.approx(1.6, abs=1e-12)
    assert np.allclose(pair.phi.values, 1.0, atol=1e-12)
    assert np.allclose(pair.psi.values, 1.0 / 6.0, atol=1e-10)


def test_ansatz_zero_tilt_reduces_to_mean(canonical_set):
    pair = build_ansatz_pair(canonical_set, 0.0, 0.0)
    assert pair.lam == pytest.approx(0.8, abs=1e-12)


def test_ansatz_periodic_coefficient_same_mean(canonical_set):
    periodic = canonical_set.replace_field("a1", CoefficientField(
        PeriodicScalar.harmonic(1.0, 0.15, 0.0, 1.0)))
    pair = build_ansatz_pair(periodic, 0.0, MU_CANONICAL)
    assert pair.lam == pytest.approx(1.6, abs=1e-9)
    assert pair.phi.values.std() > 1e-3
    # normalized exponential form: log phi wraps to zero at the endpoints
    assert np.log(pair.phi.values[0]) == pytest.approx(0.0, abs=1e-12)
    assert np.log(pair.phi.values[-1]) == pytest.approx(0.0, abs=1e-9)


def test_ansatz_equations_satisfied(canonical_set):
    spec = build_supersolution(canonical_set, 0.05)
    res_phi, res_psi = ansatz_equation_residual(spec)
    assert res_phi < 1e-8
    assert res_psi < 1e-8


def test_ansatz_equations_satisfied_periodic_case(canonical_set):
    periodic = canonical_set.replace_field("a1", CoefficientField(
        PeriodicScalar.harmonic(1.0, 0.15, 0.3, 1.0)))
    spec = build_supersolution(periodic, 0.05)
    res_phi, res_psi = ansatz_equation_residual(spec)
    assert res_phi < 1e-8
    assert res_psi < 1e-8


def test_ansatz_rejects_eps_breaking_determinacy():
    # near the determinacy boundary even small inflation is rejected
    cs = constant_set(1.0, 1.0, 1.15, 1.0, 0.5, 1.0)
    with pytest.raises(PreconditionError):
        build_ansatz_pair(cs, 0.2, 0.5)


# --- inequalities -----------------------------------------------------------

def test_inequalities_hold_with_margin(canonical_set):
    spec = build_supersolution(canonical_set, 0.01)
    rep = check_ansatz_inequalities(spec)
    assert rep.holds
    # psi/phi = 1/6 sits far below b1/c1 = 0.99/0.49
    assert min(rep.margins) > 0.3


def test_inequality_margins_shrink_with_determinacy_margin():
    margins = []
    for c1 in (0.5, 0.8, 1.1):
        cs = constant_set(1.0, 1.0, c1, 0.4, 0.5, 1.0)
        spec = build_supersolution(cs, 0.01)
        rep = check_ansatz_inequalities(spec)
        margins.append(min(rep.margins))
    assert margins[0] > margins[1] > margins[2]


# --- super-solution residuals -------------------------------------------------

@pytest.fixture(scope="module")
def canonical_spec():
    cs = constant_set(1.0, 1.0, 0.5, 0.4, 0.5, 1.0)
    return build_supersolution(cs, 0.05)


def test_supersolution_residual_passes(canonical_spec):
    grid = Grid(-40.0, 160.0, 2001)
    times = np.linspace(0.0, 1.0, 9)
    report = supersolution_residual(canonical_spec, grid, times, dt=0.005)
    assert report.passed
    assert report.min_residual_v > 0.0


def test_supersolution_residual_empty_region(canonical_spec):
    grid = Grid(-40.0, -30.0, 101)  # entirely behind the cutoff
    with pytest.raises(PreconditionError):
        supersolution_residual(canonical_spec, grid, np.array([0.0]))


def test_doubling_K_shifts_cutoff_not_verdict(canonical_spec):
    spec2 = SupersolutionSpec(canonical_spec.pair, canonical_spec.c,
                              2.0 * canonical_spec.K, canonical_spec.k,
                              canonical_spec.M_star, canonical_spec.m_star,
                              canonical_spec.K_star)
    shift = spec2.xi(0.4) - canonical_spec.xi(0.4)
    assert shift == pytest.approx(np.log(2.0) / canonical_spec.mu, abs=1e-12)
    grid = Grid(-40.0, 160.0, 2001)
    times = np.linspace(0.0, 1.0, 5)
    assert supersolution_residual(spec2, grid, times, dt=0.005).passed


def test_nonlocal_supersolution_values_are_pinned():
    # The nonlocal path with a uniform kernel: decay rate, speed, amplitude
    # and residuals, pinned to the last bit.
    grid = Grid(-20.0, 60.0, 801)
    kernel = Kernel.build("uniform", 1.0, grid.h)
    cs = constant_set(1.0, 1.0, 0.5, 0.4, 0.5, 1.0)
    spec = build_supersolution(cs, 0.05, kernel)
    assert spec.mu == 1.8173660851024125
    assert spec.c == 0.838244669605977
    assert spec.K == 320.0
    report = supersolution_residual(spec, grid, np.linspace(0.0, 1.0, 5))
    assert report.passed
    assert report.points_checked == 2817
    assert report.min_residual_v == 0.3522249442572189


def test_cutoff_matches_defining_level(canonical_spec):
    for t in (0.0, 0.3, 0.9):
        x = canonical_spec.xi(t)
        assert canonical_spec.u_plus(t, x) == pytest.approx(
            canonical_spec.k * canonical_spec.M_star, abs=1e-8)


def test_front_stays_below_supersolution(canonical_set):
    grid = Grid(-40.0, 160.0, 2001)
    problem = Problem(canonical_set, grid)
    scheme = make_scheme(problem, steps_per_period=200)
    vstar = compute_semitrivial("v", problem, scheme)
    u_orb = logistic_orbit(canonical_set.a1.baseline, canonical_set.b1.baseline)
    v_orb = logistic_orbit(canonical_set.a2.baseline, canonical_set.c2.baseline)
    u0, vt0 = make_front_data(grid, 0.5 * u_orb.value(0), v_orb, -20.0, 2.0)
    spec = build_supersolution(canonical_set, 0.05,
                               initial_data=(u0, vt0, grid))
    state = SystemState(0.0, u0, vt0)
    snapshots = []
    for _ in range(15):
        state, _ = run_transformed(state, problem, scheme, vstar.frames, 1)
        snapshots.append(state)
    assert front_below_supersolution(spec, grid, snapshots)


# --- monotone coexistence -----------------------------------------------------

def test_monotone_coexistence_weak_homogeneous(weak_set):
    problem = Problem(weak_set, Grid(-15.0, 15.0, 151))
    result = monotone_coexistence(problem, make_scheme(problem,
                                                       steps_per_period=32))
    for comp in (*result.upper, *result.lower):
        assert np.allclose(comp, 2.0 / 3.0, atol=1e-4)
    assert result.max_monotonicity_violation <= 1e-10
    assert result.wrap_residual < 1e-6
    assert result.ordered


def test_monotone_coexistence_with_bump(weak_set):
    bumped = weak_set.with_bump_on("a1", SpatialBump(0.2, 1.5, 0.5))
    problem = Problem(bumped, Grid(-30.0, 30.0, 301))
    result = monotone_coexistence(problem, make_scheme(problem,
                                                       steps_per_period=32))
    x = problem.grid.x
    over = np.abs(x) <= 1.0
    tail = np.abs(x) >= 20.0
    u_up = result.upper[0]
    assert np.min(u_up[over]) > 2.0 / 3.0 + 0.02
    assert np.max(np.abs(u_up[tail] - 2.0 / 3.0)) < 1e-3
    assert np.max(np.abs(result.upper[1][tail] - 2.0 / 3.0)) < 1e-3
    assert result.ordered


def test_monotone_coexistence_with_a_stable_invader_far_field():
    # Away from its growth bump u cannot invade the v-resident (far-field
    # exponent 1 - 1.05 < 0), so its seed keeps the eigenvector's tails: a
    # seed floored there would shrink and break monotonicity at once.
    cs = constant_set(1.0, 1.0, 1.05, 1.0, 0.5, 1.0).with_bump_on(
        "a1", SpatialBump(0.3, 1.5, 0.5))
    problem = Problem(cs, Grid(-30.0, 30.0, 301))
    result = monotone_coexistence(problem, make_scheme(problem,
                                                       steps_per_period=32))
    assert result.max_monotonicity_violation <= 1e-10
    assert result.ordered


def test_monotone_coexistence_requires_double_instability(canonical_set):
    problem = Problem(canonical_set, Grid(-10.0, 10.0, 101))
    with pytest.raises(PreconditionError):
        monotone_coexistence(problem)


def _sha(field):
    return hashlib.sha256(np.ascontiguousarray(field).tobytes()).hexdigest()


def _bumped_weak_problem(weak_set, kind):
    grid = Grid(-25.0, 25.0, 251)
    kernel = Kernel.build("uniform", 1.0, grid.h) if kind == "nonlocal" else None
    problem = Problem(weak_set.with_bump_on("a1", SpatialBump(0.2, 1.5, 0.5)),
                      grid, kernel)
    return problem, make_scheme(problem, steps_per_period=32)


# Periods, violation, wrap residual and the sha256 of u_upper, v_upper,
# u_lower, v_lower, pinned to the last bit.
COEXISTENCE_PINS = {
    "random": (52, 0.0, 9.885463313485943e-07, (
        "087e58c7d75f5be7ca06465a33c7ddc6ed1a2099fd28a6c4853715e76a61ad49",
        "27d650678e7e1c0af1b4fafc97d9039337d43f6fbfaf61fd094f72e4394bc44f",
        "ba7893b02c73033d5357c8b42aed40668dd5580846ea75b625e55eecaaf8d88a",
        "a821003b519b3a3c54f6242a9b023abafb814aff9929d1e9b74e9aeab4b51504")),
    "nonlocal": (59, 0.0, 7.56254057820982e-07, (
        "be328fc81c19d2ba8a4d93a0dbbd79e7c73802c6af38298c837c344b8fc27eb6",
        "d10e57d83054e9fe070982dec358490e8e11bf99c7b7fda41c529c1d50d2a494",
        "981b3472df11fe48e090dc4fb317cdc0794bb39b2b47601681bb4732f6e9ad87",
        "433308040ac37bbdf874ff76f4070981217939799104c34cd662f5eb59b1b3ac")),
}


@pytest.mark.parametrize("kind", ["random", "nonlocal"])
def test_monotone_coexistence_values_are_pinned(weak_set, kind):
    result = monotone_coexistence(*_bumped_weak_problem(weak_set, kind))
    periods, violation, wrap, hashes = COEXISTENCE_PINS[kind]
    assert result.periods == periods
    assert result.max_monotonicity_violation == violation
    assert result.wrap_residual == wrap
    assert tuple(map(_sha, (*result.upper, *result.lower))) == hashes
    assert result.ordered


# --- persistence ---------------------------------------------------------------

def test_persistence_two_sided_weak(weak_set):
    problem = Problem(weak_set, Grid(-15.0, 15.0, 151))
    report = persistence_probe(problem, make_scheme(problem,
                                                    steps_per_period=32),
                               n_trials=4, seed=7)
    assert report.mode == "two-sided"
    assert report.failures == 0
    assert report.eta > 0.6


def test_persistence_one_sided_canonical(canonical_set):
    problem = Problem(canonical_set, Grid(-15.0, 15.0, 151))
    report = persistence_probe(problem, make_scheme(problem,
                                                    steps_per_period=32),
                               n_trials=3, seed=3)
    assert report.mode == "one-sided"
    assert report.failures == 0
    assert report.eta > 0.3


@pytest.mark.parametrize("max_periods, settled", [(2, False), (2000, True)])
def test_persistence_reports_unsettled_trials(weak_set, max_periods, settled):
    problem = Problem(weak_set, Grid(-15.0, 15.0, 151))
    report = persistence_probe(problem, make_scheme(problem,
                                                    steps_per_period=32),
                               n_trials=2, seed=7, max_periods=max_periods)
    assert [t.settled for t in report.trials] == [settled, settled]
    assert report.unsettled == (0 if settled else 2)
    assert report.to_json_dict()["unsettled"] == report.unsettled
    if settled:
        assert all(t.settled_period < max_periods for t in report.trials)
        assert all(abs(t.eta - 2.0 / 3.0) < 1e-3 for t in report.trials)
    else:
        assert all(t.settled_period == 2 for t in report.trials)


# (settled_period, eta, settled, sha256 of u, sha256 of v) per trial at
# seed 5, pinned to the last bit.  The trials settle at different periods,
# and a cut at 31 periods leaves the first one unsettled.
PERSISTENCE_PINS = {
    ("random", 2000): [
        (34, 0.5926802191345683, True,
         "eae66eecbbb43ffcb3b308a7d49d526585db568ed8602c5a09e4b6ee0f9c0277",
         "bda41336b47d0a931c8569074e8cc735df137a34f326f5772fa283c7bf791696"),
        (31, 0.5926807111312956, True,
         "c716146634ca6005188db4bf7a26ef283ef946f25976da94ec3a6c77883571c2",
         "5b668a1d4ae68ae2ef12696f793d3d0b082f6bc270db8f7d8bf7b8e5c10401b6"),
        (30, 0.5926820984747397, True,
         "204d8feb5f662dc5e8d8f229354224e1630fa5a87de5da0271af73d9cc6d9136",
         "836f41583a13b40ac72851a82285ef3a1f59c07a8ea8aaa2ad6f7d39ffc8bcad")],
    ("random", 31): [
        (31, 0.5926801449480097, False, "c7f7a3439af106f7",
         "14c370e1e96c6d6d"),
        (31, 0.5926807111312956, True, "c716146634ca6005",
         "5b668a1d4ae68ae2"),
        (30, 0.5926820984747397, True, "204d8feb5f662dc5",
         "836f41583a13b40a")],
    ("nonlocal", 2000): [
        (35, 0.5494471169710756, True,
         "0e6c1a7ca0315589e73e3fe21796dcf828a9727edc9d866b3b9665f09d1252ee",
         "ff6513c4bf759bee46c8561d0648d0cfcea18a9dfe060844e09c375396d71ff2"),
        (34, 0.549448244842564, True,
         "90699556dbc1b47f251e123d4c47c4841b2d0378d30473a190b43eb9fbf42dd8",
         "eaa8d6857c20dea3c7eb1c7dd21b41d4f38e4cc6bd0ab1df0288d4df46fa8235"),
        (33, 0.5494495680087337, True,
         "ede6f692bacfbd67d2bd8f149e6a8812dd2349f3c0e157717a769861997d0bd9",
         "b52a7107ecb2c0ae4a00fa1ed652b5432285bedd2e4530d888f8e0ae3807bf1d")],
}


@pytest.mark.parametrize("kind, max_periods", list(PERSISTENCE_PINS))
def test_persistence_trials_are_pinned(weak_set, kind, max_periods):
    report = persistence_probe(*_bumped_weak_problem(weak_set, kind),
                               n_trials=3, seed=5, max_periods=max_periods)
    assert report.mode == "two-sided"
    got = [(t.settled_period, t.eta, t.settled, _sha(t.u), _sha(t.v))
           for t in report.trials]
    pins = PERSISTENCE_PINS[kind, max_periods]
    width = len(pins[0][3])
    assert [g[:3] + (g[3][:width], g[4][:width]) for g in got] == pins
    assert report.eta == min(p[1] for p in pins)


def test_persistence_rejects_unknown_mode(canonical_set, monkeypatch):
    from compspread import verify

    def no_resident(*args, **kwargs):
        raise AssertionError("a resident was computed")

    monkeypatch.setattr(verify, "compute_semitrivial", no_resident)
    problem = Problem(canonical_set, Grid(-15.0, 15.0, 151))
    with pytest.raises(PreconditionError, match="two_sided"):
        persistence_probe(problem, mode="two_sided")


def test_persistence_needs_at_least_one_trial(canonical_set):
    problem = Problem(canonical_set, Grid(-15.0, 15.0, 151))
    with pytest.raises(PreconditionError, match="at least one trial"):
        persistence_probe(problem, make_scheme(problem, steps_per_period=32),
                          n_trials=0)
