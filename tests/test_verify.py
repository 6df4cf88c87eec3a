import numpy as np
import pytest

from compspread.coefficients import (CoefficientField, PeriodicScalar,
                                     SpatialBump, constant_set)
from compspread.dispersal import Grid
from compspread.errors import PreconditionError
from compspread.periodic_orbits import logistic_orbit
from compspread.semitrivial import compute_semitrivial
from compspread.simulator import (Problem, SystemState, make_front_data,
                                  make_scheme, run_transformed)
from compspread.verify import (SupersolutionSpec, ansatz_equation_residual,
                               build_ansatz_pair, build_supersolution,
                               check_ansatz_inequalities,
                               check_shifted_determinacy,
                               front_below_supersolution,
                               monotone_coexistence, persistence_probe,
                               shifted_set, supersolution_residual)

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
    spec = build_supersolution(canonical_set, 0.05, "random")
    res_phi, res_psi = ansatz_equation_residual(spec)
    assert res_phi < 1e-8
    assert res_psi < 1e-8


def test_ansatz_equations_satisfied_periodic_case(canonical_set):
    periodic = canonical_set.replace_field("a1", CoefficientField(
        PeriodicScalar.harmonic(1.0, 0.15, 0.3, 1.0)))
    spec = build_supersolution(periodic, 0.05, "random")
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
    spec = build_supersolution(canonical_set, 0.01, "random")
    rep = check_ansatz_inequalities(spec)
    assert rep.holds
    # psi/phi = 1/6 sits far below b1/c1 = 0.99/0.49
    assert min(rep.margins) > 0.3


def test_inequality_margins_shrink_with_determinacy_margin():
    margins = []
    for c1 in (0.5, 0.8, 1.1):
        cs = constant_set(1.0, 1.0, c1, 0.4, 0.5, 1.0)
        spec = build_supersolution(cs, 0.01, "random")
        rep = check_ansatz_inequalities(spec)
        margins.append(min(rep.margins))
    assert margins[0] > margins[1] > margins[2]


# --- super-solution residuals -------------------------------------------------

@pytest.fixture(scope="module")
def canonical_spec():
    cs = constant_set(1.0, 1.0, 0.5, 0.4, 0.5, 1.0)
    return build_supersolution(cs, 0.05, "random")


def test_supersolution_residual_passes(canonical_spec):
    grid = Grid(-40.0, 160.0, 2001)
    times = np.linspace(0.0, 1.0, 9)
    report = supersolution_residual(canonical_spec, grid, times, dt=0.005)
    assert report.passed
    assert report.min_residual_v > 0.0


def test_supersolution_residual_region_semantics(canonical_spec):
    grid = Grid(-40.0, 160.0, 2001)
    times = np.linspace(0.0, 1.0, 5)
    behind = supersolution_residual(canonical_spec, grid, times, dt=0.005,
                                    region="behind")
    assert behind.points_checked > 0  # reported, no sign requirement


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
    spec = build_supersolution(canonical_set, 0.05, "random",
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


def test_monotone_coexistence_requires_double_instability(canonical_set):
    problem = Problem(canonical_set, Grid(-10.0, 10.0, 101))
    with pytest.raises(PreconditionError):
        monotone_coexistence(problem)


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


def test_persistence_scalar_reduction(canonical_set):
    # an invader-only start reduces to the scalar logistic: its floor is the
    # resident level of the u-species
    problem = Problem(canonical_set, Grid(-15.0, 15.0, 151))
    n = problem.grid.n
    initials = [(np.full(n, 0.5), np.zeros(n))]
    report = persistence_probe(problem, make_scheme(problem,
                                                    steps_per_period=32),
                               mode="one-sided", initials=initials)
    u_orb = logistic_orbit(canonical_set.a1.baseline, canonical_set.b1.baseline)
    assert report.trials[0].eta <= u_orb.inf() + 1e-6
    assert report.trials[0].eta > 0.3


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
