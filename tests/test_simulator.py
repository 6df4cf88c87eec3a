import numpy as np
import pytest
from scipy.integrate import solve_ivp

from compspread import _accel
from compspread.coefficients import (CoefficientField, PeriodicScalar,
                                     SpatialBump, constant_set)
from compspread.dispersal import Grid, Kernel
from compspread.errors import ConfigError, NumericalGuardError, PreconditionError
from compspread.periodic_orbits import logistic_orbit
from compspread.semitrivial import compute_semitrivial
from compspread.simulator import (FrontObserver, Problem, SchemeConfig,
                                  SystemState, Stepper, front_position,
                                  make_front_data, make_scheme, ramp_profile,
                                  run_periods, run_transformed, step)
from compspread.verify import monotone_coexistence, persistence_probe


def _tiny_problem(cs):
    return Problem(cs, Grid(-1.0, 1.0, 11))


def test_zero_state_is_fixed(canonical_set):
    problem = _tiny_problem(canonical_set)
    scheme = make_scheme(problem)
    state = SystemState(0.0, np.zeros(11), np.zeros(11))
    out = step(state, problem, scheme)
    assert np.all(out.u == 0.0) and np.all(out.v == 0.0)


def test_logistic_equilibrium_holds(canonical_set):
    problem = _tiny_problem(canonical_set)
    scheme = make_scheme(problem)
    state = SystemState(0.0, np.ones(11), np.zeros(11))
    state, rec = run_periods(state, problem, scheme, 3)
    assert np.max(np.abs(state.u - 1.0)) < 1e-8
    assert np.all(rec.period_delta < 1e-8)


def test_exclusion_converges_to_u_resident(canonical_set):
    # strong asymmetry: u settles at 1, v is driven out
    problem = _tiny_problem(canonical_set)
    scheme = make_scheme(problem, steps_per_period=100)
    state = SystemState(0.0, np.full(11, 0.5), np.full(11, 0.2))
    state, _ = run_periods(state, problem, scheme, 200)
    assert np.max(np.abs(state.u - 1.0)) < 1e-4
    assert np.max(state.v) < 1e-4


def test_homogeneous_reduction_matches_ode(canonical_set):
    # fine steps: the split map converges to the coupled system
    problem = _tiny_problem(canonical_set)
    scheme = make_scheme(problem, steps_per_period=20000)
    u0, v0 = 0.5, 0.3
    state = SystemState(0.0, np.full(11, u0), np.full(11, v0))
    state, _ = run_periods(state, problem, scheme, 1)

    def rhs(t, y):
        u, v = y
        return [u * (1 - u - 0.5 * v), v * (0.4 - 0.5 * u - v)]

    sol = solve_ivp(rhs, (0, 1.0), [u0, v0], rtol=1e-12, atol=1e-14)
    assert abs(state.u[5] - sol.y[0, -1]) < 1e-6
    assert abs(state.v[5] - sol.y[1, -1]) < 1e-6


def test_run_zero_periods_returns_input(canonical_set):
    problem = _tiny_problem(canonical_set)
    scheme = make_scheme(problem)
    state = SystemState(0.0, np.full(11, 0.3), np.full(11, 0.1))
    out, rec = run_periods(state, problem, scheme, 0)
    assert out is state
    assert rec.times.size == 0


def test_dt_must_divide_period(canonical_set):
    problem = _tiny_problem(canonical_set)
    scheme = SchemeConfig(dt=0.03)
    with pytest.raises(ConfigError):
        scheme.validate(problem)


def test_blowup_guard(canonical_set):
    problem = _tiny_problem(canonical_set)
    scheme = make_scheme(problem)
    state = SystemState(0.0, np.full(11, np.inf), np.zeros(11))
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalGuardError):
            step(state, problem, scheme)


# --- front data -------------------------------------------------------------

def test_ramp_profile_degenerate_is_step():
    x = np.linspace(-2, 2, 41)
    prof = ramp_profile(x, 0.0, 0.0)
    assert set(np.unique(prof)) == {0.0, 1.0}
    assert prof[x <= 0].min() == 1.0


def test_front_data_levels(canonical_set):
    grid = Grid(-20.0, 20.0, 401)
    u_orb = logistic_orbit(canonical_set.a1.baseline, canonical_set.b1.baseline)
    v_orb = logistic_orbit(canonical_set.a2.baseline, canonical_set.c2.baseline)
    u0, vt0 = make_front_data(grid, u_orb.value(0) / 2, v_orb, 0.0, 1.0)
    assert np.max(u0) < u_orb.value(0)
    assert np.max(vt0) < v_orb.value(0)
    # beyond the ramp both components vanish identically, which transforms
    # back to the v-resident ahead of the front
    ahead = grid.x >= 1.0
    assert np.all(u0[ahead] == 0.0)
    assert np.all(vt0[ahead] == 0.0)


def test_front_data_margin_guard(canonical_set):
    grid = Grid(-5.0, 5.0, 101)
    v_orb = logistic_orbit(canonical_set.a2.baseline, canonical_set.c2.baseline)
    with pytest.raises(PreconditionError):
        make_front_data(grid, 0.5, v_orb, 4.9, 1.0)


def test_front_position_interpolates():
    g = Grid(0.0, 10.0, 11)
    vals = np.where(g.x <= 5.0, 1.0, 0.0).astype(float)
    vals[6] = 0.5
    pos = front_position(vals, g, 0.75)
    assert 5.0 <= pos <= 6.0


def test_front_observer_boundary_guard(canonical_set):
    grid = Grid(-2.0, 2.0, 41)
    obs = FrontObserver(grid, 0.5, "u")
    state = SystemState(0.0, np.ones(41), np.zeros(41))
    with pytest.raises(NumericalGuardError):
        obs.sample(state)


# --- order preservation -----------------------------------------------------

def _random_competitive_pair(rng, n, box):
    u_hi, v_hi = box
    u1 = rng.uniform(0.05, 0.5 * u_hi, n)
    u2 = u1 + rng.uniform(0.0, 0.4 * u_hi, n)
    v2 = rng.uniform(0.05, 0.5 * v_hi, n)
    v1 = v2 + rng.uniform(0.0, 0.4 * v_hi, n)
    return (u1, v1), (u2, v2)


def test_competitive_order_preserved(canonical_set, rng):
    problem = Problem(canonical_set, Grid(-10.0, 10.0, 101))
    scheme = make_scheme(problem)
    stepper = Stepper(problem, scheme)
    box = problem.box_bounds()
    for _ in range(5):
        (u1, v1), (u2, v2) = _random_competitive_pair(rng, 101, box)
        t = 0.0
        for _ in range(10 * stepper.spp):
            u1, v1 = stepper.step_arrays(u1, v1, t)
            u2, v2 = stepper.step_arrays(u2, v2, t)
            t += stepper.dt
            assert np.max(u1 - u2) <= 1e-10
            assert np.max(v2 - v1) <= 1e-10


def test_cooperative_order_preserved_in_transform(canonical_set, rng):
    grid = Grid(-10.0, 10.0, 101)
    problem = Problem(canonical_set, grid)
    scheme = make_scheme(problem)
    vstar = compute_semitrivial("v", problem, scheme)
    vt_cap = vstar.frames[0].min()
    for _ in range(3):
        u1 = rng.uniform(0.0, 0.4, grid.n)
        u2 = u1 + rng.uniform(0.0, 0.3, grid.n)
        vt1 = rng.uniform(0.0, 0.4 * vt_cap, grid.n)
        vt2 = vt1 + rng.uniform(0.0, 0.5 * vt_cap, grid.n)
        vt2 = np.minimum(vt2, vt_cap)
        s1, _ = run_transformed(SystemState(0.0, u1, vt1), problem, scheme,
                                vstar.frames, 5)
        s2, _ = run_transformed(SystemState(0.0, u2, vt2), problem, scheme,
                                vstar.frames, 5)
        assert np.max(s1.u - s2.u) <= 1e-10
        assert np.max(s1.v - s2.v) <= 1e-10


def test_transformed_box_invariance(canonical_set, rng):
    grid = Grid(-10.0, 10.0, 101)
    problem = Problem(canonical_set, grid)
    scheme = make_scheme(problem)
    vstar = compute_semitrivial("v", problem, scheme)
    u0 = rng.uniform(0.0, 0.5, grid.n)
    vt0 = rng.uniform(0.0, 1.0, grid.n) * vstar.frames[0]
    state, _ = run_transformed(SystemState(0.0, u0, vt0), problem, scheme,
                               vstar.frames, 20)
    assert np.all(state.v >= -1e-9)
    assert np.all(state.v <= vstar.frames[0] + 1e-6)


def test_transformed_resident_pair_is_stationary(canonical_set):
    grid = Grid(-10.0, 10.0, 101)
    problem = Problem(canonical_set, grid)
    scheme = make_scheme(problem)
    ustar = compute_semitrivial("u", problem, scheme, tol=1e-10)
    vstar = compute_semitrivial("v", problem, scheme, tol=1e-10)
    state = SystemState(0.0, ustar.frames[0].copy(), vstar.frames[0].copy())
    out, rec = run_transformed(state, problem, scheme, vstar.frames, 3)
    assert np.all(rec.period_delta < 1e-6)


def test_transformed_zero_is_fixed(canonical_set):
    grid = Grid(-10.0, 10.0, 101)
    problem = Problem(canonical_set, grid)
    scheme = make_scheme(problem)
    vstar = compute_semitrivial("v", problem, scheme)
    state = SystemState(0.0, np.zeros(grid.n), np.zeros(grid.n))
    out, _ = run_transformed(state, problem, scheme, vstar.frames, 2)
    assert np.max(np.abs(out.u)) == 0.0
    assert np.max(np.abs(out.v)) < 1e-7


def test_invariant_box(canonical_set, rng):
    problem = Problem(canonical_set, Grid(-10.0, 10.0, 101))
    scheme = make_scheme(problem)
    u_hi, v_hi = problem.box_bounds()
    state = SystemState(0.0, rng.uniform(0, u_hi, 101),
                        rng.uniform(0, v_hi, 101))
    state, _ = run_periods(state, problem, scheme, 10)
    assert np.max(state.u) <= u_hi + 1e-10
    assert np.max(state.v) <= v_hi + 1e-10
    assert np.min(state.u) >= 0.0
    assert np.min(state.v) >= 0.0


# --- per-phase coefficient tables and the step lattice ------------------------

def _harmonic_bump_set(canonical_set):
    return canonical_set.replace_field(
        "a1", CoefficientField(PeriodicScalar.harmonic(1.0, 0.2, 0.3),
                               SpatialBump(-0.3, 1.0, 0.5)))


def _tabulation_problem(case, canonical_set):
    grid = Grid(-5.0, 5.0, 101)
    if case == "harmonic-bump":
        return Problem(_harmonic_bump_set(canonical_set), grid)
    if case == "table":
        a2 = PeriodicScalar.table([[0.0, 0.35], [0.3, 0.5], [1.0, 0.35]], 1.0)
        cs = canonical_set.replace_field(
            "a2", CoefficientField(a2, SpatialBump(0.2, 0.5, 1.0)))
        return Problem(cs, grid)
    cs = canonical_set.replace_field(
        "c1", CoefficientField(PeriodicScalar.harmonic(0.5, 0.1, 1.1),
                               SpatialBump(0.1, 1.5, 0.0)))
    return Problem(cs, grid, Kernel.build("uniform", 1.0, grid.h))


def _reference_step(stepper, problem, u, v, k):
    """One split step forming baseline((k + 1/2) dt) + bump afresh."""
    t_mid = (k % stepper.spp + 0.5) * stepper.dt
    c = {}
    for name, fld in problem.coefficients.fields().items():
        c[name] = fld.baseline(t_mid)
        if fld.bump is not None:
            c[name] = c[name] + fld.bump(problem.grid.x)
    u = stepper._disperse(u)
    v = stepper._disperse(v)
    return (_accel.logistic_step(u, c["a1"] - c["c1"] * v, c["b1"], stepper.dt),
            _accel.logistic_step(v, c["a2"] - c["b2"] * u, c["c2"], stepper.dt))


@pytest.mark.parametrize("case", ["harmonic-bump", "table", "nonlocal"])
def test_tabulated_step_matches_per_step_coefficients(case, canonical_set, rng):
    problem = _tabulation_problem(case, canonical_set)
    stepper = Stepper(problem, make_scheme(problem))
    u = rng.uniform(0.1, 1.0, problem.grid.n)
    v = rng.uniform(0.1, 0.4, problem.grid.n)
    ru, rv = u, v
    for k in range(2 * stepper.spp + 3):
        u, v = stepper.step_arrays(u, v, stepper.time_at(k))
        ru, rv = _reference_step(stepper, problem, ru, rv, k)
    assert np.array_equal(u, ru) and np.array_equal(v, rv)


def test_off_lattice_time_is_a_precondition_error(canonical_set):
    problem = _tiny_problem(canonical_set)
    stepper = Stepper(problem, make_scheme(problem))
    u = np.full(11, 0.5)
    stepper.step_arrays(u, u, 3 * stepper.dt + 5e-10)
    with pytest.raises(PreconditionError):
        stepper.step_arrays(u, u, 3.5 * stepper.dt)


def test_period_marks_are_exact_multiples_of_the_period():
    period = 0.7
    cs = constant_set(1.0, 1.0, 0.5, 0.4, 0.5, 1.0, period=period)
    problem = _tiny_problem(cs)
    scheme = make_scheme(problem, steps_per_period=30)
    state = SystemState(0.0, np.full(11, 0.5), np.full(11, 0.2))
    end, rec = run_periods(state, problem, scheme, 7)
    assert np.array_equal(rec.times, np.arange(1, 8) * period)
    assert end.t == 7 * period
    frames = np.full((30, 11), 0.4)
    _, rec = run_transformed(end, problem, scheme, frames, 3)
    assert np.array_equal(rec.times, np.arange(8, 11) * period)


@pytest.mark.parametrize("kind", ["random", "nonlocal"])
def test_run_period_matches_step_loop(kind, canonical_set, rng):
    grid = Grid(-5.0, 5.0, 101)
    kernel = Kernel.build("uniform", 1.0, grid.h) if kind == "nonlocal" else None
    problem = Problem(_harmonic_bump_set(canonical_set), grid, kernel)
    stepper = Stepper(problem, make_scheme(problem))
    u = rng.uniform(0.1, 1.0, grid.n)
    v = rng.uniform(0.1, 0.4, grid.n)
    ru, rv = u, v
    frames = []
    for k in range(stepper.spp):
        ru, rv = stepper.step_arrays(ru, rv, k * stepper.dt)
        frames.append((ru, rv))
    pu, pv = stepper.run_period(u, v)
    assert np.array_equal(pu, ru) and np.array_equal(pv, rv)
    for (fu, fv), (su, sv) in zip(frames, stepper.period_steps(u, v)):
        assert np.array_equal(fu, su) and np.array_equal(fv, sv)


# --- one finite-value guard for every period loop ----------------------------

def _nan_mid_period(monkeypatch, min_points=0):
    """Make Stepper.step_arrays put a NaN into u halfway through each period
    on grids with more than min_points points."""
    real = Stepper.step_arrays

    def poisoned(self, u, v, t):
        u, v = real(self, u, v, t)
        if u.size > min_points and \
                self.step_index(t) % self.spp == self.spp // 2:
            u[u.size // 2] = np.nan
        return u, v

    monkeypatch.setattr(Stepper, "step_arrays", poisoned)


def _weak_problem(weak_set):
    problem = Problem(weak_set, Grid(-15.0, 15.0, 151))
    return problem, make_scheme(problem, steps_per_period=32)


@pytest.mark.parametrize("loop", ["run_periods", "run_transformed",
                                  "compute_semitrivial",
                                  "monotone_coexistence",
                                  "persistence_probe"])
def test_nonfinite_mid_period_is_a_guard_error(loop, canonical_set, weak_set,
                                               monkeypatch):
    if loop in ("monotone_coexistence", "persistence_probe"):
        # The homogeneous residents are computed on a 3-point grid, so only
        # the loop under test sees the NaN.
        problem, scheme = _weak_problem(weak_set)
        _nan_mid_period(monkeypatch, min_points=3)
        with pytest.raises(NumericalGuardError, match="nonfinite"):
            if loop == "monotone_coexistence":
                monotone_coexistence(problem, scheme)
            else:
                persistence_probe(problem, scheme, n_trials=1)
        return
    problem = _tiny_problem(canonical_set)
    scheme = make_scheme(problem, steps_per_period=30)
    state = SystemState(0.0, np.full(11, 0.5), np.full(11, 0.2))
    _nan_mid_period(monkeypatch)
    with pytest.raises(NumericalGuardError, match="nonfinite"):
        if loop == "run_periods":
            run_periods(state, problem, scheme, 2, [FrontObserver(
                problem.grid, 0.25, guard=False)])
        elif loop == "run_transformed":
            run_transformed(state, problem, scheme, np.full((30, 11), 0.4), 2)
        else:
            compute_semitrivial("u", problem, scheme)
