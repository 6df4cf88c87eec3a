"""Constructive verification machinery: exponential super-solutions with
their periodic ansatz pair, residual inequalities on the moving region, the
monotone iteration to coexistence, and ensemble persistence probes.

The super-solution is (u+, v+) = K e^{-mu (x - c t)} (phi(t), psi(t)) built
from an eps-inflated coefficient family; ahead of the moving cutoff
xi(t; K) both modified reaction residuals are sign-definite up to
discretization slack, which squeezes simulated fronts below the
exponential envelope and bounds the spreading speed from above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .coefficients import (CoefficientField, CoefficientSet, compute_envelopes,
                           h2_expressions)
from .dispersal import Grid, Kernel, apply_nonlocal, apply_random
from .errors import ConvergenceError, NumericalGuardError, PreconditionError
from .periodic_orbits import (N_TIME_DEFAULT, PeriodicOrbit, cumulative_simpson,
                              logistic_orbit, nonhomogeneous_periodic,
                              periodic_mean)
from .semitrivial import compute_semitrivial, linearized_radius
from .simulator import (Problem, SchemeConfig, Stepper, SystemState, fixed_point,
                        make_scheme)
from .spectrum import homogeneous_growth_exponent
from .spreading import minimize_dispersion

# Time samples of the inflated determinacy margins.
DETERMINACY_SAMPLES = 1024
# How far the super-solution's cutoff must clear the localized region.
REGION_CLEARANCE = 2.0
# Monotonicity violation monotone_coexistence tolerates after its first
# period, and the fixed-point tolerance of the residents it starts from.
MONO_SLACK = 1e-10
RESIDENT_TOL = 1e-12
# Floor below which a persistence trial counts as a failure.
FAILURE_FLOOR = 1e-8


# ---------------------------------------------------------------------------
# eps-inflated coefficient family and the periodic ansatz pair
# ---------------------------------------------------------------------------

def shifted_set(cs: CoefficientSet, eps: float) -> CoefficientSet:
    """The eps-inflated homogeneous family: growth of the invader up,
    its self-limitation and competition down, and the resident terms up,
    with the resident growth also compensating twice the resident sup."""
    if eps < 0.0:
        raise PreconditionError("eps must be nonnegative")
    base = cs.baselines()
    sup_v0 = logistic_orbit(base.a2.baseline, base.c2.baseline).sup()
    return CoefficientSet(
        a1=CoefficientField(base.a1.baseline.shifted(+eps)),
        b1=CoefficientField(base.b1.baseline.shifted(-eps)),
        c1=CoefficientField(base.c1.baseline.shifted(-eps)),
        a2=CoefficientField(base.a2.baseline.shifted(+eps * (1.0 + 2.0 * sup_v0))),
        b2=CoefficientField(base.b2.baseline.shifted(+eps)),
        c2=CoefficientField(base.c2.baseline.shifted(+eps)),
    )


def check_shifted_determinacy(cs: CoefficientSet,
                              shifted: CoefficientSet) -> tuple[float, float]:
    """Margins of the determinacy condition for the inflated family; the
    resident envelope ratios stay those of the base family."""
    t = np.linspace(0.0, cs.period, DETERMINACY_SAMPLES, endpoint=False)
    e1, e2 = h2_expressions(shifted, compute_envelopes(cs.baselines()),
                            compute_envelopes(shifted), t)
    return float(np.min(e1)), float(np.min(e2))


@dataclass
class AnsatzPair:
    """Positive periodic pair (phi, psi) solving the decay-rate-mu
    linearization at the invaded state, with the growth exponent lam."""

    phi: PeriodicOrbit
    psi: PeriodicOrbit
    lam: float
    mu: float
    eps: float
    shifted: CoefficientSet
    v0: PeriodicOrbit
    kind: str
    kernel: Optional[Kernel] = None

    def tilt(self) -> float:
        return homogeneous_growth_exponent(self.mu, 0.0, self.kind, self.kernel)

    def alpha_phi(self, t):
        return (self.tilt() + self.shifted.a1.baseline(t)
                - self.shifted.c1.baseline(t) * self.v0.value(t))

    def alpha_psi(self, t):
        return (self.tilt() - self.lam + self.shifted.a2.baseline(t)
                - 2.0 * self.shifted.c2.baseline(t) * self.v0.value(t))

    def forcing(self, t):
        return (self.shifted.b2.baseline(t) * self.v0.value(t)
                * self.phi.value(t))


def build_ansatz_pair(cs: CoefficientSet, eps: float, mu: float,
                      kind: str = "random", kernel: Optional[Kernel] = None
                      ) -> AnsatzPair:
    """First component: phi(t) = exp(int_0^t (alpha - mean alpha)), the
    normalized positive periodic solution of the scalar reduction, with
    lam(mu) = mean alpha.  Second component: the unique periodic solution of
    the forced linear equation driven by the resident through phi."""
    base = cs.baselines()
    sh = shifted_set(base, eps)
    m1, m2 = check_shifted_determinacy(base, sh)
    if m1 <= 0.0 or m2 <= 0.0:
        raise PreconditionError(
            f"inflated determinacy margins ({m1:.3e}, {m2:.3e}) must be "
            "positive; reduce eps")
    v0 = logistic_orbit(base.a2.baseline, base.c2.baseline)
    period = cs.period
    # phi, psi and lam are filled in as they are solved for: alpha_phi
    # needs none of them, alpha_psi needs lam and forcing needs phi.
    pair = AnsatzPair(None, None, 0.0, mu, eps, sh, v0, kind, kernel)
    t = np.linspace(0.0, period, N_TIME_DEFAULT + 1)
    A = cumulative_simpson(pair.alpha_phi(t), t)
    pair.lam = float(A[-1] / period)
    phi_vals = np.exp(A - pair.lam * t)
    pair.phi = PeriodicOrbit(period, t, phi_vals,
                             abs(phi_vals[-1] - phi_vals[0]))
    mean_alpha_psi = periodic_mean(pair.alpha_psi, period)
    if mean_alpha_psi >= 0.0:
        raise PreconditionError(
            "the forced component needs a decaying homogeneous part "
            f"(mean {mean_alpha_psi:.3e} >= 0)")
    pair.psi = nonhomogeneous_periodic(pair.alpha_psi, pair.forcing, period)
    return pair


# ---------------------------------------------------------------------------
# super-solution specification
# ---------------------------------------------------------------------------

@dataclass
class SupersolutionSpec:
    """Everything needed to evaluate the exponential super-solution and its
    residual inequalities on the region x >= xi(t; K)."""

    pair: AnsatzPair
    c: float
    K: float
    k: int
    M_star: float
    m_star: float
    K_star: float

    @property
    def mu(self) -> float:
        return self.pair.mu

    @property
    def lam(self) -> float:
        return self.pair.lam

    def g1(self, v):
        """Nondecreasing Lipschitz clamp: identity below M*, constant M*
        above."""
        return np.minimum(v, self.M_star)

    def xi(self, t, K: Optional[float] = None) -> np.ndarray:
        """Moving cutoff where u+ crosses k*M*."""
        K = self.K if K is None else K
        phi = self.pair.phi.value(t)
        return self.c * t - np.log(self.k * self.M_star / (K * phi)) / self.mu

    def envelope(self, t, x):
        return np.exp(-self.mu * (np.asarray(x) - self.c * np.asarray(t)))

    def u_plus(self, t, x):
        return self.K * self.pair.phi.value(t) * self.envelope(t, x)

    def v_plus(self, t, x):
        return self.K * self.pair.psi.value(t) * self.envelope(t, x)


def build_supersolution(cs: CoefficientSet, eps: float,
                        kind: str = "random",
                        kernel: Optional[Kernel] = None,
                        K_init: float = 10.0,
                        initial_data: Optional[tuple[np.ndarray, np.ndarray, Grid]] = None
                        ) -> SupersolutionSpec:
    """Assemble the super-solution at the minimizing decay rate.  K starts
    at K_init and doubles until the cutoff clears the localized coefficient
    region by REGION_CLEARANCE (and any given initial data is dominated at
    t = 0)."""
    # The dispersion minimum of the inflated family, with the resident
    # orbit of the base family.
    base = cs.baselines()
    sh = shifted_set(base, eps)
    v0 = logistic_orbit(base.a2.baseline, base.c2.baseline)
    mean_alpha = periodic_mean(
        lambda t: sh.a1.baseline(t) - sh.c1.baseline(t) * v0.value(t),
        cs.period)
    if mean_alpha <= 0.0:
        raise PreconditionError("mean invasion rate must be positive")
    theo = minimize_dispersion(mean_alpha, kind, kernel)
    mu_star, c_star = theo.mu_star, theo.value
    pair = build_ansatz_pair(cs, eps, mu_star, kind, kernel)
    u0 = logistic_orbit(base.a1.baseline, base.b1.baseline)
    M_star = max(u0.sup(), pair.v0.sup())
    ratio = pair.psi.values / pair.phi.values
    m_star = float(np.min(ratio))
    if m_star <= 0.0:
        raise PreconditionError("ansatz ratio must be positive")
    k = int(np.ceil(1.0 / m_star - 1e-12))
    enve = compute_envelopes(pair.shifted)
    K_star = k * M_star * enve.b2M

    region_floor = cs.max_support_radius() + REGION_CLEARANCE
    K = K_init
    for _ in range(200):
        spec = SupersolutionSpec(pair, c_star, K, k, M_star, m_star, K_star)
        t_dense = pair.phi.times
        # The cutoff moves at speed c; its speed-detrended part must clear
        # the localized coefficient region at all phases.
        xi0 = spec.xi(t_dense) - spec.c * t_dense
        ok = float(np.min(xi0)) >= region_floor
        if ok and initial_data is not None:
            u_init, v_init, grid = initial_data
            ok = (np.all(u_init <= spec.u_plus(0.0, grid.x) + 1e-12) and
                  np.all(v_init <= spec.v_plus(0.0, grid.x) + 1e-12))
        if ok:
            return spec
        K *= 2.0
    raise ConvergenceError("could not choose the envelope amplitude K")


@dataclass(frozen=True)
class InequalityReport:
    holds: bool
    margins: tuple[float, ...]
    labels: tuple[str, ...]
    worst_t: tuple[float, ...]


def check_ansatz_inequalities(spec: SupersolutionSpec) -> InequalityReport:
    """Pointwise domination of the forced component by the first component,
    in both raw-coefficient and envelope-ratio form."""
    pair = spec.pair
    t = pair.phi.times
    phi, psi = pair.phi.values, pair.psi.values
    sh = pair.shifted
    enve = compute_envelopes(sh)
    checks = {
        "c1*psi<=b1*phi": sh.b1.baseline(t) * phi - sh.c1.baseline(t) * psi,
        "c2*psi<=b2*phi": sh.b2.baseline(t) * phi - sh.c2.baseline(t) * psi,
        "psi<=b1L/c1M*phi": (enve.b1L / enve.c1M) * phi - psi,
        "psi<=b2L/c2M*phi": (enve.b2L / enve.c2M) * phi - psi,
    }
    margins, labels, worst = [], [], []
    for label, slack in checks.items():
        i = int(np.argmin(slack))
        labels.append(label)
        margins.append(float(slack[i]))
        worst.append(float(t[i]))
    return InequalityReport(all(m >= 0.0 for m in margins), tuple(margins),
                            tuple(labels), tuple(worst))


def ansatz_equation_residual(spec: SupersolutionSpec) -> tuple[float, float]:
    """Sup-norm residuals of the two ansatz equations at all time samples,
    with spectral (FFT) time differentiation on the uniform periodic grid."""
    pair = spec.pair
    t = pair.phi.times
    n = t.size - 1
    period = pair.phi.period

    def fft_derivative(vals: np.ndarray) -> np.ndarray:
        v = vals[:-1]
        freq = np.fft.rfftfreq(n, d=period / n)
        dv = np.fft.irfft(2j * np.pi * freq * np.fft.rfft(v), n)
        return np.concatenate((dv, dv[:1]))

    dphi = fft_derivative(pair.phi.values)
    res_phi = dphi - (pair.alpha_phi(t) - spec.lam) * pair.phi.values
    dpsi = fft_derivative(pair.psi.values)
    res_psi = dpsi - pair.alpha_psi(t) * pair.psi.values - pair.forcing(t)
    return float(np.max(np.abs(res_phi))), float(np.max(np.abs(res_psi)))


@dataclass
class ResidualReport:
    passed: bool
    min_residual_u: float
    min_residual_v: float
    slack_scale: float
    points_checked: int
    region_mask: np.ndarray = field(repr=False, default=None)

    def to_json_dict(self) -> dict:
        return {"passed": bool(self.passed),
                "min_residual_u": self.min_residual_u,
                "min_residual_v": self.min_residual_v,
                "slack_scale": self.slack_scale,
                "points_checked": self.points_checked}


def supersolution_residual(spec: SupersolutionSpec, grid: Grid,
                           times: np.ndarray, dt: float = 0.0,
                           region: str = "ahead") -> ResidualReport:
    """Evaluate both super-solution residuals pointwise on the moving region
    x >= xi(t; K) (time derivatives analytic from the ansatz equations, the
    dispersal operator applied discretely) and report the minima.  PASS means
    both residuals stay above minus the discretization slack
    10*(h^2 + dt) scaled by the local envelope size."""
    pair = spec.pair
    sh = pair.shifted
    x = grid.x
    mu, lam, c = spec.mu, spec.lam, spec.c
    h = grid.h
    interior = np.ones(grid.n, dtype=bool)
    if pair.kind == "nonlocal":
        m = pair.kernel.half_width
        interior[:m] = interior[-m:] = False
    else:
        interior[0] = interior[-1] = False

    min_u, min_v = np.inf, np.inf
    min_u_slacked, min_v_slacked = np.inf, np.inf
    checked = 0
    slack_coef = 10.0 * (h * h + dt)
    masks = []
    for t in np.atleast_1d(times):
        up = spec.u_plus(t, x)
        vp = spec.v_plus(t, x)
        # Analytic time derivatives via the ansatz ODEs; alpha_psi already
        # carries the -lam term, alpha_phi does not.
        ut = up * (mu * c - lam + pair.alpha_phi(t))
        vt = vp * (mu * c + pair.alpha_psi(t)) \
            + spec.K * pair.forcing(t) * spec.envelope(t, x)
        if pair.kind == "nonlocal":
            Au = apply_nonlocal(up, grid, pair.kernel)
            Av = apply_nonlocal(vp, grid, pair.kernel)
        else:
            Au = apply_random(up, grid)
            Av = apply_random(vp, grid)
        g1v = spec.g1(vp)
        v0t = pair.v0.value(t)
        F = up * (sh.a1.baseline(t) - sh.b1.baseline(t) * up
                  - sh.c1.baseline(t) * (v0t - g1v))
        gap = v0t - g1v
        G = (sh.b2.baseline(t) * gap * up
             + vp * (sh.a2.baseline(t) - 2.0 * sh.c2.baseline(t) * v0t
                     + sh.c2.baseline(t) * g1v)
             + sh.b2.baseline(t) * 0.5 * (np.abs(gap) - gap) * up
             - spec.K_star * np.abs(gap))
        res_u = ut - Au - F
        res_v = vt - Av - G
        if region == "ahead":
            mask = interior & (x >= spec.xi(t))
        else:
            mask = interior & (x < spec.xi(t))
        masks.append(mask)
        if not mask.any():
            continue
        scale = np.maximum(np.maximum(up[mask], vp[mask]), 1e-30)
        min_u = min(min_u, float(np.min(res_u[mask])))
        min_v = min(min_v, float(np.min(res_v[mask])))
        min_u_slacked = min(min_u_slacked,
                            float(np.min(res_u[mask] + slack_coef * scale)))
        min_v_slacked = min(min_v_slacked,
                            float(np.min(res_v[mask] + slack_coef * scale)))
        checked += int(mask.sum())
    if checked == 0:
        raise PreconditionError("the evaluation region is empty on this grid")
    passed = min_u_slacked >= 0.0 and min_v_slacked >= 0.0
    return ResidualReport(passed, min_u, min_v, slack_coef, checked,
                          np.asarray(masks))


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


# ---------------------------------------------------------------------------
# monotone iteration to coexistence
# ---------------------------------------------------------------------------

@dataclass
class CoexistenceResult:
    upper: tuple[np.ndarray, np.ndarray]
    lower: tuple[np.ndarray, np.ndarray]
    periods: int
    max_monotonicity_violation: float
    wrap_residual: float
    ordered: bool


def monotone_coexistence(problem: Problem, scheme: Optional[SchemeConfig] = None,
                         seed_eps: float = 1e-2, tol: float = 1e-6,
                         max_periods: int = 3000) -> CoexistenceResult:
    """Squeeze a periodic coexistence state between the period-map iterates
    of an upper pair (u-resident, small invader) and a lower pair (small
    invader, v-resident).  Requires both homogeneous residents to be
    linearly unstable; the four per-period monotonicity relations are
    enforced every period.

    For nonlocal dispersal the limit is in general only semi-continuous in
    x; spatial continuity is guaranteed when
    inf_t b1(t,x) / sup_t b2(t,x) > sup_t c1(t,x) / inf_t c2(t,x) at every
    x.  The discrete iteration is agnostic to the distinction, which is
    recorded here rather than resolved."""
    if scheme is None:
        scheme = make_scheme(problem)
    ustar = compute_semitrivial("u", problem, scheme, tol=RESIDENT_TOL)
    vstar = compute_semitrivial("v", problem, scheme, tol=RESIDENT_TOL)
    ver_u = linearized_radius("u", problem, ustar)
    ver_v = linearized_radius("v", problem, vstar)
    if not (ver_u.unstable and ver_v.unstable):
        raise PreconditionError(
            "both resident states must be linearly unstable "
            f"(radii {ver_u.radius:.6f}, {ver_v.radius:.6f})")
    prof_v = ver_u.spectrum.profile
    prof_u = ver_v.spectrum.profile

    stepper = Stepper(problem, scheme)
    first_slack = max(MONO_SLACK, 10.0 * max(ustar.residual, vstar.residual))

    eps = seed_eps
    for _ in range(6):
        if np.all(eps * prof_u < ustar.frames[0]) and \
                np.all(eps * prof_v < vstar.frames[0]):
            break
        eps *= 0.5

    max_violation = 0.0
    period = 0

    def one_period(fields):
        nonlocal max_violation, period
        up_u, up_v, lo_u, lo_v = fields
        new_up = stepper.run_period(up_u, up_v)
        new_lo = stepper.run_period(lo_u, lo_v)
        slack = first_slack if period == 0 else MONO_SLACK
        period += 1
        viol = max(float(np.max(new_up[0] - up_u)),
                   float(np.max(up_v - new_up[1])),
                   float(np.max(lo_u - new_lo[0])),
                   float(np.max(new_lo[1] - lo_v)))
        max_violation = max(max_violation, viol)
        if viol > slack:
            raise NumericalGuardError(
                f"monotonicity violated by {viol:.3e} at period {period}")
        return (*new_up, *new_lo)

    # Upper pair (u-resident, small invader), lower pair (small invader,
    # v-resident).
    seeds = (ustar.frames[0].copy(), eps * prof_v,
             eps * prof_u, vstar.frames[0].copy())
    (up_u, up_v, lo_u, lo_v), periods, wrap = fixed_point(
        one_period, seeds, tol, max_periods)
    if wrap >= tol:
        raise ConvergenceError(
            f"monotone iteration did not converge in {max_periods} periods",
            diagnostics={"wrap": wrap})
    ordered = bool(np.all(lo_u <= up_u + 1e-9) and np.all(up_v <= lo_v + 1e-9))
    return CoexistenceResult((up_u, up_v), (lo_u, lo_v), periods,
                             max_violation, wrap, ordered)


# ---------------------------------------------------------------------------
# persistence probe
# ---------------------------------------------------------------------------

@dataclass
class PersistenceTrial:
    """One ensemble member: the period it stopped at, its floor, whether
    the floor is below the failure floor, and whether its last period
    changed the fields by less than the settle tolerance (an unsettled
    floor is a transient, not a persistence floor)."""

    settled_period: int
    eta: float
    failed: bool
    settled: bool


@dataclass
class PersistenceReport:
    mode: str
    eta: float
    trials: list[PersistenceTrial]
    failures: int

    @property
    def unsettled(self) -> int:
        return sum(not t.settled for t in self.trials)

    def to_json_dict(self) -> dict:
        return {"mode": self.mode, "eta": self.eta,
                "failures": self.failures, "unsettled": self.unsettled,
                "trials": [{"settled_period": t.settled_period,
                            "eta": t.eta, "failed": bool(t.failed),
                            "settled": bool(t.settled)}
                           for t in self.trials]}


def _random_positive_field(rng, n: int, x: np.ndarray, level: float) -> np.ndarray:
    modes = 1.0 + 0.4 * sum(
        rng.uniform(-1.0, 1.0) * np.sin(2.0 * np.pi * k * (x - x[0])
                                        / (x[-1] - x[0]) + rng.uniform(0, 7))
        for k in range(1, 4))
    return level * np.clip(modes, 0.2, None)


def persistence_probe(problem: Problem, scheme: Optional[SchemeConfig] = None,
                      n_trials: int = 5, seed: int = 0,
                      mode: str = "auto", settle_tol: float = 1e-6,
                      max_periods: int = 2000,
                      initials: Optional[Sequence[tuple[np.ndarray, np.ndarray]]] = None
                      ) -> PersistenceReport:
    """Run an ensemble of strictly positive initial states and report the
    empirical uniform floor after settling: in two-sided mode the floor of
    both species, in one-sided (resident-exclusion) mode the floor of the
    invader and of the gap to the v-resident."""
    if scheme is None:
        scheme = make_scheme(problem)
    ustar = compute_semitrivial("u", problem, scheme, tol=1e-10)
    vstar = compute_semitrivial("v", problem, scheme, tol=1e-10)
    ver_u = linearized_radius("u", problem, ustar)
    ver_v = linearized_radius("v", problem, vstar)
    if mode == "auto":
        mode = "two-sided" if (ver_u.unstable and ver_v.unstable) else "one-sided"
    if mode == "two-sided" and not (ver_u.unstable and ver_v.unstable):
        raise PreconditionError("two-sided persistence needs both residents "
                                "linearly unstable")
    if mode == "one-sided" and not ver_v.unstable:
        raise PreconditionError("one-sided persistence needs the v-resident "
                                "linearly unstable")

    stepper = Stepper(problem, scheme)
    rng = np.random.default_rng(seed)
    x = problem.grid.x
    u_level = ustar.homogeneous_orbit.values[0] if ustar.homogeneous_orbit else 1.0
    v_level = vstar.homogeneous_orbit.values[0] if vstar.homogeneous_orbit else 1.0

    if initials is not None:
        ensemble = [(np.array(u0, dtype=float), np.array(v0, dtype=float))
                    for u0, v0 in initials]
    else:
        ensemble = [( _random_positive_field(rng, problem.grid.n, x, 0.6 * u_level),
                      _random_positive_field(rng, problem.grid.n, x, 0.6 * v_level))
                    for _ in range(n_trials)]
    trials = []
    failures = 0
    for u, v in ensemble:
        (u, v), periods, delta = fixed_point(
            lambda f: stepper.run_period(*f), (u, v), settle_tol, max_periods)
        if mode == "two-sided":
            eta = min(float(np.min(u)), float(np.min(v)))
        else:
            eta = min(float(np.min(u)),
                      float(np.min(vstar.frames[0] - v)))
        failed = eta < FAILURE_FLOOR
        failures += int(failed)
        trials.append(PersistenceTrial(periods, eta, failed,
                                       delta < settle_tol))
    return PersistenceReport(mode, min(t.eta for t in trials), trials,
                             failures)
