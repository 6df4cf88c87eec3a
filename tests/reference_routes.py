"""Reference routes and checks that only the tests call.

No command, preset or benchmark runs these, so they live beside the
tests rather than in ``compspread``:

- ``logistic_periodic`` and ``coexistence_homogeneous``: the RK45
  time-map fixed points of the homogeneous logistic and coexistence
  orbits, independent of the package's integrating-factor closed forms;
- ``constant_set``: a coefficient set of six constants, the tests'
  usual fixture;
- ``h2_constant_reduction`` and ``check_lv_determinacy``: the
  determinacy condition in its constant-coefficient and normalized
  two-rate forms;
- ``step``: one split step of the full system as a ``SystemState``;
- ``evolve_linear`` and ``spectrum_monotonicity_check``: the linear
  evolution on the step lattice, and the comparison principle for the
  principal spectrum point;
- ``dispersion_grid_scan``: the brute-force dispersion minimizer;
- ``front_below_supersolution``: a simulated front against the
  super-solution on its moving region;
- ``record_periods_full_grid``: the period loop of the front runs
  stepping every grid point, the reference for the co-moving window of
  ``simulator._record_periods``;
- ``box_bounds``, ``sampled_range``, ``margin_map`` and ``kernel_mass``:
  the invariant box of a problem, a baseline's range on a time sample,
  a verdict's margins by label and a kernel's quadrature mass.

Import it from a test module as ``import reference_routes`` (pytest puts
``tests/`` on the path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from compspread.coefficients import (SPECIES_ROLES, CoefficientField,
                                     CoefficientSet, HypothesisVerdict,
                                     PeriodicScalar, check_h0, check_h2,
                                     compute_envelopes)
from compspread.dispersal import Grid, Kernel
from compspread.errors import ConvergenceError, PreconditionError
from compspread.periodic_orbits import (PeriodicOrbit, _as_callable,
                                        _time_grid, periodic_mean,
                                        resident_orbit)
from compspread.simulator import (FrontObserver, Problem, RunRecords,
                                  SchemeConfig, Stepper, SystemState,
                                  _guard_finite)
from compspread.spectrum import (LinearProblem, _LinearStepper,
                                 homogeneous_growth_exponent,
                                 principal_spectrum_point)
from compspread.spreading import (DISPERSION_BRACKET, SpeedEstimate,
                                  _check_invasion_setting)
from compspread.verify import SupersolutionSpec

IVP_RTOL = 1e-10
IVP_ATOL = 1e-12
DAMPING = 0.5
MAX_PERIOD_ITERS = 10_000


def logistic_periodic(a0, b0, period: float | None = None,
                      seed: float | None = None) -> PeriodicOrbit:
    """Unique positive periodic solution of w' = w*(a0(t) - b0(t)*w), by the
    RK45 time map: a check on the closed form and the route past its domain.
    Requires positive mean growth; the orbit is globally attracting, so a
    damped period-map iteration from any positive seed converges."""
    from scipy.integrate import solve_ivp
    if period is None:
        if not isinstance(a0, PeriodicScalar):
            raise ValueError("period required when a0 is not a descriptor")
        period = a0.period
    fa, fb = _as_callable(a0), _as_callable(b0)
    mean_a = periodic_mean(fa, period)
    if mean_a <= 0.0:
        raise PreconditionError(
            f"mean growth {mean_a:.3e} is not positive; no positive orbit")

    def rhs(t, w):
        return w * (fa(t) - fb(t) * w)

    def period_map(w0: float) -> float:
        sol = solve_ivp(rhs, (0.0, period), [w0], method="RK45",
                        rtol=IVP_RTOL, atol=IVP_ATOL)
        if not sol.success:
            raise ConvergenceError("period-map integration failed")
        return float(sol.y[0, -1])

    w = seed if seed is not None else max(mean_a / max(periodic_mean(fb, period), 1e-12), 1e-6)
    for _ in range(MAX_PERIOD_ITERS):
        pw = period_map(w)
        if abs(pw - w) <= 1e-11 * max(abs(w), 1.0):
            break
        w = DAMPING * w + (1.0 - DAMPING) * pw
        if w <= 0.0:
            raise ConvergenceError("iterate left the positive cone")
    else:
        raise ConvergenceError("period map did not converge",
                               diagnostics={"last": w})

    times = _time_grid(period)
    sol = solve_ivp(rhs, (0.0, period), [w], method="RK45",
                    rtol=IVP_RTOL, atol=IVP_ATOL, t_eval=times)
    values = sol.y[0]
    resid = abs(values[-1] - values[0]) / max(abs(values[0]), 1e-30)
    return PeriodicOrbit(period, times, values, resid)


def coexistence_homogeneous(cs: CoefficientSet
                            ) -> tuple[PeriodicOrbit, PeriodicOrbit]:
    """Interior periodic orbit of the homogeneous two-species system, found
    by damped fixed-point iteration of the one-period RK45 map from half the
    single-species orbit levels."""
    from scipy.integrate import solve_ivp
    env = compute_envelopes(cs)
    if not check_h0(env).holds:
        raise PreconditionError("coefficient envelopes must be positive")
    cond1 = env.a1L - env.c1M * env.a2M / env.c2L
    cond2 = env.a2L - env.b2M * env.a1M / env.b1L
    if cond1 <= 0.0 or cond2 <= 0.0:
        raise PreconditionError(
            "coexistence condition fails "
            f"(margins {cond1:.3e}, {cond2:.3e} must both be positive)")

    a1, b1, c1 = cs.a1.baseline, cs.b1.baseline, cs.c1.baseline
    a2, b2, c2 = cs.a2.baseline, cs.b2.baseline, cs.c2.baseline
    period = cs.period

    def rhs(t, y):
        u, v = y
        return [u * (a1(t) - b1(t) * u - c1(t) * v),
                v * (a2(t) - b2(t) * u - c2(t) * v)]

    def period_map(y0):
        sol = solve_ivp(rhs, (0.0, period), y0, method="RK45",
                        rtol=IVP_RTOL, atol=IVP_ATOL)
        if not sol.success:
            raise ConvergenceError("period-map integration failed")
        return sol.y[:, -1]

    y = np.array([resident_orbit(cs, s).values[0] / 2.0 for s in "uv"])
    for _ in range(MAX_PERIOD_ITERS):
        py = period_map(y)
        if np.max(np.abs(py - y)) <= 1e-11 * max(float(np.max(np.abs(y))), 1.0):
            break
        y = DAMPING * y + (1.0 - DAMPING) * py
        if np.any(y <= 0.0):
            raise ConvergenceError("iterate left the positive cone")
    else:
        raise ConvergenceError("coexistence period map did not converge",
                               diagnostics={"last": y.tolist()})

    times = _time_grid(period)
    sol = solve_ivp(rhs, (0.0, period), y, method="RK45",
                    rtol=IVP_RTOL, atol=IVP_ATOL, t_eval=times)
    resid_u = abs(sol.y[0, -1] - sol.y[0, 0]) / max(abs(sol.y[0, 0]), 1e-30)
    resid_v = abs(sol.y[1, -1] - sol.y[1, 0]) / max(abs(sol.y[1, 0]), 1e-30)
    return (PeriodicOrbit(period, times, sol.y[0], resid_u),
            PeriodicOrbit(period, times, sol.y[1], resid_v))


def constant_set(a1, b1, c1, a2, b2, c2, period: float = 1.0) -> CoefficientSet:
    vals = (a1, b1, c1, a2, b2, c2)
    return CoefficientSet(*(CoefficientField(PeriodicScalar.constant(v, period))
                            for v in vals))


def h2_constant_reduction(a1, b1, c1, a2, b2, c2) -> HypothesisVerdict:
    """Constant-coefficient reduction of the linear determinacy condition."""
    m1 = a1 + a2 - a2 * c1 / c2 - a2 * b2 * c1 / (b1 * c2)
    m2 = a1 - a2 * c1 / c2
    return HypothesisVerdict(m1 > 0.0 and m2 > 0.0, (m1, m2),
                             ("determinacy-1", "determinacy-2"))


def lv_coefficient_set(r1: float, r2: float, a1_tilde: float, a2_tilde: float,
                       period: float = 1.0) -> CoefficientSet:
    """Constant set realizing the classical two-rate competition
    normalization."""
    return constant_set(r1, r1, a1_tilde * r1, r2, r2 * a2_tilde, r2,
                        period=period)


def check_lv_determinacy(r1: float, r2: float, a1_tilde: float,
                         a2_tilde: float) -> HypothesisVerdict:
    """Determinacy inequality in the normalized two-rate form, cross-checked
    against the general sampled condition on the induced constant set."""
    if not (a1_tilde < 1.0 <= a2_tilde):
        raise PreconditionError(
            "normalized interaction strengths must satisfy a1 < 1 <= a2")
    ratio = (a1_tilde * a2_tilde - 1.0) / (1.0 - a1_tilde)
    margin = r1 / r2 - ratio
    holds = margin >= 0.0
    cs = lv_coefficient_set(r1, r2, a1_tilde, a2_tilde)
    general = check_h2(cs, compute_envelopes(cs))
    # The normalized form is non-strict; agreement can only differ on the
    # exact boundary, which we report rather than flag.
    boundary = abs(margin) <= 1e-12 * max(1.0, abs(ratio))
    note = "agrees-with-general" if (general.holds == holds or boundary) \
        else "DISAGREES-with-general"
    return HypothesisVerdict(holds, (margin,), ("normalized-margin",), note)


def step(state: SystemState, problem: Problem,
         scheme: SchemeConfig) -> SystemState:
    """One split step; guards against nonfinite values."""
    stepper = Stepper(problem, scheme)
    k = stepper.step_index(state.t)
    u, v = stepper.step_arrays(state.u, state.v, k)
    t = stepper.time_at(k + 1)
    _guard_finite(u, v, t, stepper.grid)
    return SystemState(t, u, v)


def evolve_linear(u0: np.ndarray, p: LinearProblem, t0: float,
                  t1: float) -> np.ndarray:
    """Evolve the linear problem from t0 to t1 (both on the step lattice)."""
    if t1 < t0:
        raise PreconditionError("t1 must be >= t0")
    stepper = _LinearStepper(p)
    k0 = int(round(t0 / stepper.dt))
    k1 = int(round(t1 / stepper.dt))
    if abs(k0 * stepper.dt - t0) > 1e-9 or abs(k1 * stepper.dt - t1) > 1e-9:
        raise PreconditionError("t0 and t1 must lie on the time-step lattice")
    u = np.array(u0, dtype=float)
    if u.size != p.grid.n:
        raise PreconditionError("field length must match the grid")
    for k in range(k0, k1):
        u = stepper.step(u, k % stepper.spp)
    return u


@dataclass(frozen=True)
class MonotonicityVerdict:
    ok: bool
    lam_low: float
    lam_high: float
    gap: float


def spectrum_monotonicity_check(p1: LinearProblem, p2: LinearProblem,
                                tol: float = 1e-5) -> MonotonicityVerdict:
    """Check that a pointwise-larger coefficient yields a growth exponent at
    least as large (within tol).  The ordering is checked on the step
    lattice both period maps use."""
    if p1.mu != p2.mu or p1.kernel != p2.kernel or p1.grid != p2.grid:
        raise PreconditionError("problems must share tilt, kernel, and grid")
    spp = p1.resolved_steps()
    if (p1.period, spp) != (p2.period, p2.resolved_steps()):
        raise PreconditionError("problems must share the step lattice")
    for k in range(spp):
        if np.any(p1.reaction_coefficient(k, spp)
                  > p2.reaction_coefficient(k, spp) + 1e-12):
            raise PreconditionError(
                "coefficient ordering fails on the step lattice")
    r1 = principal_spectrum_point(p1)
    r2 = principal_spectrum_point(p2)
    gap = r2.lam - r1.lam
    return MonotonicityVerdict(r1.lam <= r2.lam + tol, r1.lam, r2.lam, gap)


def dispersion_grid_scan(cs: CoefficientSet, kernel: Optional[Kernel] = None,
                         bracket: tuple[float, float] = DISPERSION_BRACKET,
                         spacing: float = 1e-3) -> SpeedEstimate:
    """Brute-force scan of the dispersion curve at fixed mu spacing."""
    mean_alpha = _check_invasion_setting(cs)
    mus = np.arange(bracket[0], bracket[1] + spacing, spacing)
    lam = np.array([homogeneous_growth_exponent(m, mean_alpha, kernel)
                    for m in mus])
    vals = lam / mus
    i = int(np.argmin(vals))
    return SpeedEstimate(float(vals[i]), "theoretical", mu_star=float(mus[i]))


def front_below_supersolution(spec: SupersolutionSpec, grid: Grid,
                              snapshots: Sequence[SystemState],
                              tol: float = 1e-9) -> bool:
    """Check a simulated transformed front stays below (u+, v+) on the
    moving region."""
    for state in snapshots:
        mask = grid.x >= spec.xi(state.t)
        if not mask.any():
            continue
        up = spec.u_plus(state.t, grid.x)[mask]
        vp = spec.v_plus(state.t, grid.x)[mask]
        if np.any(state.u[mask] > up + tol) or np.any(state.v[mask] > vp + tol):
            return False
    return True


def record_periods_full_grid(stepper: Stepper, state: SystemState,
                             n_periods: int,
                             observers: Sequence[FrontObserver],
                             frame: Optional[np.ndarray] = None
                             ) -> tuple[SystemState, RunRecords]:
    """Advance n whole periods from state.t with :meth:`Stepper.run_period`.
    At each period end the observers sample the state.  With ``frame``,
    the resident at the phase of state.t and so of every period end, the
    state carries the cooperative transform (u, frame - v) of the stepped
    fields.  Every period steps the whole grid."""
    times: list[float] = []
    series: dict[str, list[float]] = {obs.name: [] for obs in observers}
    k = stepper.step_index(state.t)
    u, v = state.u, (state.v if frame is None else frame - state.v)
    for _ in range(n_periods):
        u, v = stepper.run_period(u, v, k)
        k += stepper.spp
        state = SystemState(stepper.time_at(k), u,
                            v if frame is None else frame - v)
        times.append(state.t)
        for obs in observers:
            series[obs.name].append(obs.sample(state))
    records = RunRecords(np.asarray(times),
                         {name: np.asarray(vals)
                          for name, vals in series.items()},
                         slice(0, stepper.grid.n))
    return state, records


def box_bounds(problem: Problem) -> tuple[float, float]:
    """Invariant box [0, u_max] x [0, v_max] preserved by the discrete
    dynamics."""
    cs = problem.coefficients
    return tuple(_field_sup(growth) / limit.min_value()
                 for growth, limit, _ in map(cs.roles, SPECIES_ROLES))


def _field_sup(fld) -> float:
    hi = fld.baseline.range_exact()[1]
    if fld.bump is not None:
        hi += max(0.0, fld.bump.amplitude)
    return hi


def sampled_range(scalar: PeriodicScalar,
                  samples: int) -> tuple[float, float]:
    t = np.linspace(0.0, scalar.period, samples, endpoint=False)
    if scalar.kind == "table":
        t = np.union1d(t, np.asarray(scalar.params, dtype=float)[:, 0])
    v = scalar(t)
    return float(np.min(v)), float(np.max(v))


def margin_map(verdict: HypothesisVerdict) -> dict[str, float]:
    return dict(zip(verdict.labels, verdict.margins))


def kernel_mass(kernel: Kernel) -> float:
    return kernel.h * float(np.sum(kernel.weights))
