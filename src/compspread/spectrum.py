"""Principal spectrum points of tilted linear dispersal equations.

The growth exponent is ln(spectral radius of the one-period solution
operator)/T, computed by power iteration on the period map.  The evolution
scheme is a symmetrized split step: half an exact reaction exponential,
one dispersal substep, half an exact reaction exponential.  The random
dispersal substep is Crank-Nicolson in Cayley form, 2(I - rL)^-1 - I (one
prefactored tridiagonal solve); the nonlocal one is the second-order series
alpha*I + beta*C + dt^2/2*C^2 of exp(dt*(C - m*I)) in the kernel
correlation C, two correlations per substep.  Both are order-preserving
under the step bounds that :meth:`LinearProblem.resolved_steps` enforces.
The scalar action of the tilt on constants (mu^2 for random dispersal,
the tilted kernel mass minus one for nonlocal dispersal) is folded into
the reaction exponent, so spatially homogeneous problems are integrated
exactly in time and only kernel quadrature limits their accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import _accel
from .coefficients import PeriodicScalar, SpatialBump
from .dispersal import Grid, Kernel, kernel_moment
from .errors import ConvergenceError, NumericalGuardError, PreconditionError

DEFAULT_TOL = 1e-6
DEFAULT_MAX_PERIODS = 2000
MIN_STEPS_PER_PERIOD = 256
STABLE_PERIODS = 3


@dataclass
class LinearProblem:
    """u_t = A(mu) u + a(t, x) u on a truncated grid.

    The reaction coefficient is either ``baseline(t) + bump(x)`` or an
    explicit per-step table of midpoint values (shape: steps x n).  A
    positive tilt is only admitted for spatially homogeneous coefficients,
    where the tilted operators act on x-constant profiles exactly as
    written.
    """

    mu: float
    kind: str
    grid: Grid
    period: float
    baseline: PeriodicScalar | Callable | float = 0.0
    bump: Optional[SpatialBump | Callable] = None
    kernel: Optional[Kernel] = None
    coef_table: Optional[np.ndarray] = None
    steps_per_period: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("random", "nonlocal"):
            raise PreconditionError(f"unknown dispersal kind {self.kind!r}")
        if self.kind == "nonlocal" and self.kernel is None:
            raise PreconditionError("nonlocal dispersal requires a kernel")
        if self.mu < 0.0:
            raise PreconditionError("tilt must be nonnegative")
        if self.mu > 0.0 and (self.bump is not None or self.coef_table is not None):
            raise PreconditionError(
                "positive tilt is restricted to spatially homogeneous "
                "coefficients")

    def tilt_scalar(self) -> float:
        if self.mu == 0.0:
            return 0.0
        if self.kind == "random":
            return self.mu * self.mu
        return kernel_moment(self.kernel, self.mu) - 1.0

    def _auto_steps(self) -> int:
        if self.kind == "random":
            # Crank-Nicolson stays order-preserving for dt <= h^2.
            need = int(np.ceil(self.period / self.grid.h ** 2))
        else:
            m_mu = kernel_moment(self.kernel, self.mu)
            need = int(np.ceil(2.0 * self.period * max(m_mu, 1.0)))
        return max(MIN_STEPS_PER_PERIOD, need)

    def resolved_steps(self) -> int:
        spp = self.steps_per_period or self._auto_steps()
        dt = self.period / spp
        if self.kind == "random":
            if dt > self.grid.h ** 2 * (1.0 + 1e-12):
                raise NumericalGuardError(
                    f"dt={dt:.3e} violates the order-preservation bound "
                    f"h^2={self.grid.h ** 2:.3e}")
        else:
            m_mu = kernel_moment(self.kernel, self.mu)
            if dt * m_mu > 1.0 + 1e-12:
                raise NumericalGuardError(
                    f"dt={dt:.3e} violates the nonlocal positivity bound "
                    f"1/m(mu)={1.0 / m_mu:.3e}")
        if self.coef_table is not None and self.coef_table.shape != (spp, self.grid.n):
            raise PreconditionError("coefficient table shape must be (steps, n)")
        return spp

    def reaction_coefficient(self, step: int, spp: int) -> np.ndarray | float:
        """Reaction coefficient at the substep midpoint, tilt included."""
        tilt = self.tilt_scalar()
        if self.coef_table is not None:
            return self.coef_table[step] + tilt
        t_mid = (step + 0.5) * self.period / spp
        base = self.baseline(t_mid) if callable(self.baseline) else float(self.baseline)
        if self.bump is None:
            return base + tilt
        return base + tilt + self.bump(self.grid.x)


@dataclass
class SpectrumResult:
    """Growth exponent with the dominant profile and power-iteration
    diagnostics."""

    lam: float
    profile: np.ndarray
    ratios: list = field(default_factory=list)
    periods: int = 0
    residual: float = np.inf


class _LinearStepper:
    def __init__(self, p: LinearProblem):
        self.p = p
        self.spp = p.resolved_steps()
        self.dt = p.period / self.spp
        self.n = p.grid.n
        if p.kind == "random":
            self._factor = _accel.TridiagFactor(
                self.n, 0.5 * self.dt / p.grid.h ** 2)
        else:
            w = (p.kernel.tilted_weights(p.mu) if p.mu > 0.0
                 else p.kernel.weights) * p.kernel.h
            self._weights = w
            dm = self.dt * float(np.sum(w))
            # I + dt*B + dt^2/2*B^2 with B = C - m*I, regrouped by powers
            # of the correlation C: alpha*I + beta*C + dt^2/2*C^2.
            self._alpha = 1.0 - dm + 0.5 * dm * dm
            self._beta = self.dt * (1.0 - dm)
            self._gamma = 0.5 * self.dt * self.dt
        # The coefficient repeats every period: tabulate the half-step
        # reaction exponentials once per phase.
        self._half = [np.exp((0.5 * self.dt)
                             * p.reaction_coefficient(k, self.spp))
                      for k in range(self.spp)]

    def _dispersal(self, u: np.ndarray) -> np.ndarray:
        if self.p.kind == "random":
            return self._factor.crank_nicolson(u)
        # alpha*u + beta*Cu + gamma*C(Cu): every coefficient is
        # nonnegative for dt*m <= 1.
        cu = _accel.correlate_ext(u, self._weights)
        out = _accel.correlate_ext(cu, self._weights)
        out *= self._gamma
        cu *= self._beta
        out += cu
        out += np.multiply(u, self._alpha, out=cu)
        return out

    def step(self, u: np.ndarray, k: int) -> np.ndarray:
        half = self._half[k]
        return self._dispersal(u * half) * half

    def run_period(self, u: np.ndarray) -> np.ndarray:
        for k in range(self.spp):
            u = self.step(u, k)
        return u


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


def principal_spectrum_point(p: LinearProblem, tol: float = DEFAULT_TOL,
                             max_periods: int = DEFAULT_MAX_PERIODS
                             ) -> SpectrumResult:
    """Power iteration on the period map from the positive constant field:
    evolve one period, record the sup-norm growth ratio, renormalize;
    stop when the ratio is stable over three consecutive periods."""
    if tol <= 0.0:
        raise PreconditionError("tolerance must be positive")
    stepper = _LinearStepper(p)
    u = np.ones(p.grid.n)
    ratios: list[float] = []
    stable = 0
    residual = np.inf
    for k in range(max_periods):
        u = stepper.run_period(u)
        r = float(np.max(np.abs(u)))
        if not np.isfinite(r) or r <= 0.0:
            raise NumericalGuardError(f"power iterate degenerated (ratio {r})")
        ratios.append(r)
        u /= r
        if len(ratios) >= 2:
            residual = abs(ratios[-1] - ratios[-2]) / abs(ratios[-2])
            stable = stable + 1 if residual < tol else 0
            if stable >= STABLE_PERIODS:
                lam = float(np.log(ratios[-1]) / p.period)
                return SpectrumResult(lam, u, ratios, k + 1, residual)
    raise ConvergenceError(
        f"period-map ratios did not stabilize in {max_periods} periods",
        diagnostics={"ratios": ratios})


def principal_spectrum_point_widened(p: LinearProblem, tol: float = DEFAULT_TOL,
                                     max_periods: int = DEFAULT_MAX_PERIODS,
                                     widen: float = 1.5,
                                     shift_tol: float = 1e-4
                                     ) -> tuple[SpectrumResult, float]:
    """Domain-adequacy guarded exponent for localized coefficients: recompute
    on a widened grid and fail if the exponent shifts more than shift_tol."""
    res = principal_spectrum_point(p, tol, max_periods)
    wide = LinearProblem(p.mu, p.kind, p.grid.widened(widen), p.period,
                         p.baseline, p.bump, p.kernel, None,
                         p.steps_per_period)
    res_wide = principal_spectrum_point(wide, tol, max_periods)
    shift = abs(res_wide.lam - res.lam)
    if shift > shift_tol:
        raise NumericalGuardError(
            f"domain too small: exponent shifts by {shift:.2e} when widened")
    return res, shift


def radius_threshold_test(p: LinearProblem, lam_threshold: float,
                          max_periods: int = 300) -> str:
    """Decide whether the growth exponent lies above or below a threshold
    without full power-iteration convergence, using the positive-operator
    ratio sandwich min(Pu/u) <= radius <= max(Pu/u) for strictly positive
    iterates.  Returns "above", "below", or "undecided"."""
    stepper = _LinearStepper(p)
    target = np.exp(lam_threshold * p.period)
    u = np.ones(p.grid.n)
    for _ in range(max_periods):
        pu = stepper.run_period(u)
        if np.any(pu <= 0.0) or not np.isfinite(pu).all():
            raise NumericalGuardError("iterate left the positive cone")
        ratio = pu / u
        if float(np.min(ratio)) > target:
            return "above"
        if float(np.max(ratio)) < target:
            return "below"
        u = pu / float(np.max(pu))
    return "undecided"


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
    if (p1.mu, p1.kind) != (p2.mu, p2.kind) or p1.grid != p2.grid:
        raise PreconditionError("problems must share tilt, kind, and grid")
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


def homogeneous_growth_exponent(mu: float, mean_a: float, kind: str,
                                kernel: Optional[Kernel] = None) -> float:
    """Closed-form exponent for x-independent coefficients: only the mean of
    the coefficient and the tilt scalar enter."""
    if kind == "random":
        return mu * mu + mean_a
    if kernel is None:
        raise PreconditionError("nonlocal exponent requires a kernel")
    return kernel_moment(kernel, mu) - 1.0 + mean_a
