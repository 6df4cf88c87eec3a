"""Principal spectrum points of tilted linear dispersal equations.

The growth exponent is ln(spectral radius of the one-period solution
operator P)/T.  P is entrywise nonnegative, so for every positive field u
the Collatz-Wielandt ratios bound it: min(Pu/u) <= rho(P) <= max(Pu/u).
:func:`principal_spectrum_point` reports the exponent with that bracket,
[lam_lo, lam_hi], by one of three routes:

- Separable coefficients, a scalar baseline a(t) with or without a
  bump(x), run no period map.  Each step is exp(dt*a_k) times one fixed
  step S = E D E, E = exp(dt/2*bump), so P = exp(dt*sum a_k) * S^spp and
  ln rho(P) = dt*sum a_k + spp*ln rho(S) (Hess, *Periodic-Parabolic
  Boundary Value Problems and Positivity*, 1991); the one-step ratios
  Su/u bracket it.  The constant field's bracket closes to rounding for
  spatially homogeneous problems.  With a bump, shifted inverse iteration
  on the pencil D y = sigma E^-2 y, one tridiagonal (random) or banded
  (nonlocal) solve per iteration, gives the dominant eigenpair, and one
  more step S of v = E^-1 y certifies it.
- A coefficient table T takes the same route when its own values show it
  separable: T[k, x] = beta_k + c(x) + r, with c the mean row, beta_k the
  row mean of T - c and delta = max|r|.  Each step is entrywise
  increasing in the coefficient, so |lam(T) - lam(beta + c)| <= delta,
  and the one-step bracket of beta_k + c(x), widened by delta on each
  side, bounds the table's exponent.  It is taken when 2*delta <= tol, or
  when the widened bracket decides the caller's question.  A stationary
  resident (time-constant coefficients) gives such a table.
- Other tables, and problems whose pencil does not settle, map the
  constant field once and, unless that bracket already settles, take
  ARPACK's Arnoldi method (loaded only then); the bracket comes from the
  next map of |Re v|.  At most POWER_STEPS power steps then narrow it
  while it is wider than the caller's ``tol``; a bracket left wider is
  reported, not forced shut.

The evolution scheme is a symmetrized split step: half an exact reaction
exponential, one dispersal substep, half an exact reaction exponential.
The random dispersal substep is Crank-Nicolson in Cayley form,
2(I - rL)^-1 - I (one prefactored tridiagonal solve); the nonlocal one is
the second-order series alpha*I + beta*C + dt^2/2*C^2 of exp(dt*(C - m*I))
in the kernel correlation C, two correlations per substep.  Both are
order-preserving under the step bounds that
:meth:`LinearProblem.resolved_steps` enforces.  The scalar action of the
tilt on constants (mu^2 for random dispersal, the tilted kernel mass minus
one for nonlocal dispersal) is folded into the reaction exponent, so
spatially homogeneous problems are integrated exactly in time and only
kernel quadrature limits their accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import _accel
from .coefficients import PeriodicScalar, SpatialBump
from .dispersal import Grid, Kernel, check_kernel_spacing, kernel_moment
from .errors import ConvergenceError, NumericalGuardError, PreconditionError

DEFAULT_TOL = 1e-6
DEFAULT_MAX_PERIODS = 2000
MIN_STEPS_PER_PERIOD = 256
POWER_STEPS = 10
# The widened-domain check: grid widening factor and the largest exponent
# shift it accepts.
WIDEN_FACTOR = 1.5
WIDEN_SHIFT_TOL = 1e-4
# Shifted inverse iterations the one-step pencil may take, and the
# relative width of the one-step bracket at which it has settled.
PENCIL_ITERATIONS = 30
PENCIL_SETTLE = 1e-14


@dataclass
class LinearProblem:
    """u_t = A(mu) u + a(t, x) u on a truncated grid.

    The kernel names the dispersal A: convolution minus identity with one,
    the Laplacian without (``kind`` must agree with it).  The reaction
    coefficient is either ``baseline(t) + bump(x)`` or an
    explicit per-step table of midpoint values (shape: steps x n).  The
    baseline is a float or a callable evaluated on an array of times, one
    value per time (as :class:`PeriodicScalar` is).  A
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
        if self.kind == "random" and self.kernel is not None:
            raise PreconditionError("random dispersal takes no kernel")
        check_kernel_spacing(self.kernel, self.grid)
        if self.mu < 0.0:
            raise PreconditionError("tilt must be nonnegative")
        if self.mu > 0.0 and (self.bump is not None or self.coef_table is not None):
            raise PreconditionError(
                "positive tilt is restricted to spatially homogeneous "
                "coefficients")

    @cached_property
    def tilt_scalar(self) -> float:
        """Evaluated once per problem: a kernel's tilted moment is a sum
        over its weights, and every phase adds the tilt."""
        if self.mu == 0.0:
            return 0.0
        return homogeneous_growth_exponent(self.mu, 0.0, self.kernel)

    def _auto_steps(self) -> int:
        if self.kernel is None:
            # Crank-Nicolson stays order-preserving for dt <= h^2.
            need = int(np.ceil(self.period / self.grid.h ** 2))
        else:
            m_mu = kernel_moment(self.kernel, self.mu)
            need = int(np.ceil(2.0 * self.period * max(m_mu, 1.0)))
        return max(MIN_STEPS_PER_PERIOD, need)

    def resolved_steps(self) -> int:
        spp = self.steps_per_period or self._auto_steps()
        dt = self.period / spp
        if self.kernel is None:
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

    @cached_property
    def bump_profile(self) -> np.ndarray:
        """The bump sampled on the grid, evaluated once per problem."""
        return self.bump(self.grid.x)

    def phase_baseline(self, step: int | np.ndarray, spp: int):
        """Baseline at the midpoint of substep ``step`` (an int or an array
        of them, one value each), tilt included."""
        t_mid = (np.asarray(step) + 0.5) * self.period / spp
        if not callable(self.baseline):
            base = np.full(t_mid.shape, float(self.baseline))
        else:
            base = self.baseline(t_mid)
            if np.shape(base) != t_mid.shape:
                raise PreconditionError(
                    "a callable baseline must return one value per time")
        return base + self.tilt_scalar

    def reaction_coefficient(self, step: int, spp: int) -> np.ndarray | float:
        """Reaction coefficient at the substep midpoint, tilt included."""
        if self.coef_table is not None:
            return self.coef_table[step] + self.tilt_scalar
        base = self.phase_baseline(step, spp)
        return base if self.bump is None else base + self.bump_profile


@dataclass
class SpectrumResult:
    """Growth exponent ``lam`` inside its Collatz-Wielandt bracket
    [lam_lo, lam_hi], the dominant profile (max 1) and the number of
    period maps spent: 0 on the one-step route of separable problems,
    which runs none.  ``widening`` is the delta added to each side of a
    coefficient table's one-step bracket (0.0 on every other route)."""

    lam: float
    lam_lo: float
    lam_hi: float
    profile: np.ndarray
    periods: int
    widening: float = 0.0

    @property
    def residual(self) -> float:
        """Width of the bracket."""
        return self.lam_hi - self.lam_lo


class _LinearStepper:
    def __init__(self, p: LinearProblem):
        self.p = p
        self.spp = p.resolved_steps()
        self.dt = p.period / self.spp
        self.n = p.grid.n
        if p.kernel is None:
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
        # The coefficient as phase scalars ``base`` (tilt included) plus a
        # ``profile`` in x (None without a bump).  A table T splits as
        # T[k, x] = base_k + c(x) + r: c is the mean row, base_k the row
        # mean of T - c, and ``widening`` = max|r| bounds how far its
        # exponent lies from that of base_k + c(x).
        if p.coef_table is None:
            self.base = p.phase_baseline(np.arange(self.spp), self.spp)
            self.profile = None if p.bump is None else p.bump_profile
            self.widening = 0.0
        else:
            self.profile = np.mean(p.coef_table, axis=0)
            rest = p.coef_table - self.profile
            self.base = np.mean(rest, axis=1)
            self.widening = float(np.max(np.abs(rest - self.base[:, None])))

    @cached_property
    def _half(self) -> list:
        """The half-step reaction exponential of every phase, tabulated on
        the first period map: the coefficient repeats every period."""
        return [np.exp((0.5 * self.dt) * self.p.reaction_coefficient(k, self.spp))
                for k in range(self.spp)]

    def _dispersal(self, u: np.ndarray) -> np.ndarray:
        if self.p.kernel is None:
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

    @cached_property
    def drift(self) -> float:
        """dt * sum of the phase baselines: the log of the scalar factor of
        a separable period map exp(drift) * S^spp, with one fixed step
        S = E D E, E = exp(dt/2*profile) (E = I without a profile)."""
        return self.dt * float(np.sum(self.base))

    @cached_property
    def _bump_half(self) -> Optional[np.ndarray]:
        if self.profile is None:
            return None
        return np.exp((0.5 * self.dt) * self.profile)

    def fixed_step(self, u: np.ndarray) -> np.ndarray:
        """S u for the fixed step S = E D E of the separable problem
        base_k + profile."""
        e = self._bump_half
        if e is None:
            return self._dispersal(u)
        return self._dispersal(u * e) * e

    def _dispersal_band(self) -> np.ndarray:
        """The nonlocal substep D = alpha*I + beta*C + gamma*C^2 in LAPACK
        band storage (``ab[bw + i - j, j] = D[i, j]``, bandwidth bw = 2m),
        probed column class by column class through :meth:`_dispersal`."""
        bw = self._weights.size - 1
        width = 2 * bw + 1
        rows = np.arange(self.n)
        ab = np.zeros((width, self.n))
        for r in range(min(width, self.n)):
            probe = np.zeros(self.n)
            probe[r::width] = 1.0
            col = rows + (r - rows + bw) % width - bw
            ok = (col >= 0) & (col < self.n)
            ab[bw + rows[ok] - col[ok], col[ok]] = self._dispersal(probe)[ok]
        return ab

    def pencil_solver(self, b: np.ndarray) -> Callable:
        """``solve(s, y)``: x with (D - s*diag(b)) x = b*y for the dispersal
        substep D, or None when the shifted matrix is singular."""
        if self.p.kernel is None:
            # D = M^-1 N with M = I - rL and N = I + rL, so the system is
            # the tridiagonal (N - s*M*diag(b)) x = M (b*y).
            r = 0.5 * self.dt / self.p.grid.h ** 2

            def solve(s, y):
                by = b * y
                rhs = by - r * _accel.second_diff(by, 1.0)
                upper = r + (s * r) * b[1:]
                upper[0] *= 2.0
                lower = r + (s * r) * b[:-1]
                lower[-1] *= 2.0
                diag = (1.0 - 2.0 * r) - (s * (1.0 + 2.0 * r)) * b
                x, info = _accel.dgtsv(lower, diag, upper, rhs, 1, 1, 1, 1)[3:]
                return _pencil_solution(x, info, "dgtsv")
            return solve

        ab = self._dispersal_band()
        bw = (ab.shape[0] - 1) // 2
        # dgbsv's band layout, as scipy.linalg.solve_banded builds it: bw
        # rows for the LU fill-in above the band (LAPACK sets them itself),
        # so the diagonal is row 2*bw.  One Fortran-ordered work array,
        # refilled by every solve, which dgbsv then factors in place.
        work = np.empty((3 * bw + 1, self.n), order="F")

        def solve(s, y):
            work[bw:] = ab
            work[2 * bw] -= s * b
            x, info = _accel.dgbsv(bw, bw, work, b * y, 1, 1)[2:]
            return _pencil_solution(x, info, "dgbsv")
        return solve

    def step(self, u: np.ndarray, k: int) -> np.ndarray:
        half = self._half[k]
        return self._dispersal(u * half) * half

    def run_period(self, u: np.ndarray) -> np.ndarray:
        for k in range(self.spp):
            u = self.step(u, k)
        return u


class _PeriodBudget(Exception):
    """Raised inside the period map once ``max_periods`` maps are spent."""


class _NoEigenpair(Exception):
    """ARPACK returned no converged Ritz pair."""


def _cw_bracket(u: np.ndarray, pu: np.ndarray, period: float,
                drift: float = 0.0, power: int = 1) -> tuple[float, float]:
    """Collatz-Wielandt bracket [drift + power*log min(Pu/u), drift +
    power*log max(Pu/u)]/T of the growth exponent of exp(drift)*P^power:
    valid for every positive u because P is entrywise nonnegative."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = pu / u
        return ((drift + power * float(np.log(np.min(ratio)))) / period,
                (drift + power * float(np.log(np.max(ratio)))) / period)


def _pencil_solution(x: np.ndarray, info: int,
                     routine: str) -> Optional[np.ndarray]:
    """x, or None when LAPACK found the shifted matrix singular (info > 0);
    info < 0 is an illegal argument, a bug."""
    if info < 0:
        raise NumericalGuardError(
            f"pencil solve failed ({routine} info={info})")
    return x if info == 0 else None


def _pencil_eigenpair(stepper: _LinearStepper, lam_hi: float,
                      u: np.ndarray) -> Optional[tuple[float, np.ndarray]]:
    """Dominant eigenpair of the step S = E D E of a separable problem.

    With y = E v, S v = sigma v is the pencil D y = sigma B y, B = E^-2.
    Shifted inverse iteration starts from y = E u at s = exp((lam_hi*T -
    dt*sum a_k)/spp) >= sigma_1 (lam_hi bounds the exponent from above).
    Each next shift is the one-step Collatz-Wielandt upper bound
    max(Dy/By) >= sigma_1 of the positive iterate, so s*B - D stays an
    M-matrix: its solves add terms of one sign, and the eigenvector's
    tails come out to relative, not absolute, accuracy.  The iteration
    has settled when the one-step bracket [min, max](Dy/By) is
    PENCIL_SETTLE-narrow.  Returns the exponent of the Rayleigh quotient
    (dt*sum a_k + spp*log sigma)/T and v (max 1), or None when an iterate
    is not strictly positive or the iteration does not settle."""
    p = stepper.p
    drift = stepper.drift
    half = stepper._bump_half
    b = np.exp(-stepper.dt * stepper.profile)
    solve = stepper.pencil_solver(b)
    s = float(np.exp((lam_hi * p.period - drift) / stepper.spp))
    y = half * u
    for _ in range(PENCIL_ITERATIONS):
        x = solve(s, y)
        if x is None:
            return None
        y = x / x[np.argmax(np.abs(x))]
        if not np.all(y > 0.0):
            return None
        dy = stepper._dispersal(y)
        by = b * y
        ratio = dy / by
        s = float(np.max(ratio))
        if s - float(np.min(ratio)) <= PENCIL_SETTLE * s:
            break
    else:
        return None
    sigma = float(y @ dy) / float(y @ by)
    v = y / half
    v /= np.max(v)
    return (drift + stepper.spp * float(np.log(sigma))) / p.period, v


def _arnoldi_eigenpair(period_map: Callable, u: np.ndarray, tol: float,
                       period: float) -> tuple[float, np.ndarray]:
    """Dominant Ritz pair of the period map by ARPACK from v0 = u: the
    exponent (-inf when the Ritz value is not positive) and |Re v| (max
    1), mapped once more if it has exact zeros."""
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs
    n = u.size
    op = LinearOperator((n, n), matvec=period_map, dtype=float)
    try:
        theta, vecs = eigs(op, k=1, which="LM", v0=u, tol=tol)
    except ArpackNoConvergence as exc:
        raise _NoEigenpair from exc
    theta = complex(theta[0]).real
    u = np.abs(vecs[:, 0].real)
    u /= np.max(u)
    if not np.all(u > 0.0):
        u = period_map(u)
        u /= np.max(u)
    return (float(np.log(theta)) / period if theta > 0.0 else -np.inf), u


def _one_step_point(stepper: _LinearStepper,
                    settled: Callable) -> Optional[SpectrumResult]:
    """The exponent of the separable problem base_k + profile from its
    fixed step S alone, with no period map: ln rho(P) = drift +
    spp*ln rho(S), so the one-step Collatz-Wielandt ratios Su/u bracket
    it.  The constant field's bracket settles every homogeneous problem; a
    profile takes the pencil's eigenvector v, and Sv/v brackets its Ritz
    value.  Each bracket is widened by the stepper's ``widening`` on each
    side: every step is entrywise increasing in the coefficient, so a
    table within delta of base_k + profile has its exponent within delta
    of theirs.  None when that bracket is needed and the pencil does not
    settle (or there is no profile)."""
    p = stepper.p
    delta = stepper.widening

    def bracket(u: np.ndarray) -> tuple[np.ndarray, float, float]:
        su = stepper.fixed_step(u)
        if not np.isfinite(su).all():
            raise NumericalGuardError("the fixed step produced a nonfinite value")
        return (su, *_cw_bracket(u, su, p.period, stepper.drift, stepper.spp))

    def point(lam: float, lo: float, hi: float,
              su: np.ndarray) -> SpectrumResult:
        return SpectrumResult(lam, lo - delta, hi + delta, su / np.max(su), 0,
                              delta)

    su, lo, hi = bracket(np.ones(p.grid.n))
    if not np.max(su) > 0.0:
        raise NumericalGuardError("the fixed step annihilates the constant field")
    if settled(lo - delta, hi + delta):
        return point(hi, lo, hi, su)
    pair = (_pencil_eigenpair(stepper, hi, su / np.max(su))
            if stepper.profile is not None else None)
    if pair is None:
        return None
    ritz, v = pair
    sv, lo, hi = bracket(v)
    return point(min(max(ritz, lo), hi), lo, hi, sv)


def _principal_point(p: LinearProblem, tol: float, max_periods: int,
                     decided: Optional[Callable] = None) -> SpectrumResult:
    """:func:`principal_spectrum_point`, stopping also as soon as
    ``decided(lam_lo, lam_hi)`` holds."""
    if tol <= 0.0:
        raise PreconditionError("tolerance must be positive")
    if max_periods < 1:
        raise PreconditionError("max_periods must be positive")

    def settled(lo: float, hi: float) -> bool:
        return hi - lo <= tol or (decided is not None and decided(lo, hi))

    stepper = _LinearStepper(p)
    # Within tol of separable (always, without a table), or possibly
    # decided by the widened bracket: try the one step first.
    separable = 2.0 * stepper.widening <= tol
    if separable or decided is not None:
        res = _one_step_point(stepper, settled)
        if res is not None and (separable or settled(res.lam_lo, res.lam_hi)):
            return res
    maps = 0

    def period_map(u: np.ndarray) -> np.ndarray:
        nonlocal maps
        if maps >= max_periods:
            raise _PeriodBudget
        maps += 1
        pu = stepper.run_period(u)
        if not np.isfinite(pu).all():
            raise NumericalGuardError(
                f"period map produced a nonfinite value at map {maps}")
        return pu

    u = np.ones(p.grid.n)
    pu = period_map(u)
    if not np.max(pu) > 0.0:
        raise NumericalGuardError(
            "the period map annihilates the constant field")
    lo, hi = _cw_bracket(u, pu, p.period)
    if settled(lo, hi):
        return SpectrumResult(hi, lo, hi, pu / np.max(pu), maps)

    try:
        ritz, u = _arnoldi_eigenpair(period_map, pu / np.max(pu), tol, p.period)
        pu = period_map(u)
        lo, hi = _cw_bracket(u, pu, p.period)
    except (_NoEigenpair, _PeriodBudget) as exc:
        raise ConvergenceError(
            f"no certified principal eigenpair within {max_periods} period "
            f"maps ({type(exc).__name__})",
            diagnostics={"periods": maps, "lam_lo": lo, "lam_hi": hi}) from exc
    for _ in range(POWER_STEPS):
        if settled(lo, hi) or maps >= max_periods:
            break
        u = pu / np.max(pu)
        pu = period_map(u)
        lo, hi = _cw_bracket(u, pu, p.period)
    return SpectrumResult(min(max(ritz, lo), hi), lo, hi, pu / np.max(pu),
                          maps)


def principal_spectrum_point(p: LinearProblem, tol: float = DEFAULT_TOL,
                             max_periods: int = DEFAULT_MAX_PERIODS
                             ) -> SpectrumResult:
    """Growth exponent ln(rho(P))/T of the period map P with a
    Collatz-Wielandt bracket [lam_lo, lam_hi] around it.

    A separable problem (scalar baseline, with or without a bump) runs no
    period map: the one-step bracket of the constant field settles it when
    at most ``tol`` wide (every spatially homogeneous one); otherwise the
    one-step pencil's eigenvector v is certified by one more step, and
    that bracket is reported as it is, about spp*PENCIL_SETTLE/T wide.  A
    coefficient table within delta of separable (beta_k + c(x), c the mean
    row), with 2*delta <= ``tol``, is solved the same way as beta_k + c(x),
    and its bracket is widened by ``widening`` = delta on each side.  A
    pencil that does not settle, and every other table, take period maps:
    the constant field's map,
    ARPACK's dominant Ritz pair from v0 = P1, one map of its positive
    profile and at most POWER_STEPS power steps while the bracket is
    wider than ``tol``.  A bracket left wider is still a bound and is
    reported as it is.  ``lam`` is the Ritz value clipped into the
    bracket; ``periods`` counts the period maps where they run, ARPACK's
    included, and every one counts against ``max_periods``."""
    return _principal_point(p, tol, max_periods)


def principal_spectrum_point_widened(p: LinearProblem, tol: float = DEFAULT_TOL
                                     ) -> tuple[SpectrumResult, float]:
    """Domain-adequacy guarded exponent for localized coefficients: recompute
    on a grid WIDEN_FACTOR times wider and fail if the exponent shifts more
    than WIDEN_SHIFT_TOL.  A coefficient table is sampled on its own grid
    and cannot be widened."""
    if p.coef_table is not None:
        raise PreconditionError(
            "the widened-domain check takes baseline-plus-bump problems, "
            "not a coefficient table")
    res = principal_spectrum_point(p, tol)
    wide = replace(p, grid=p.grid.widened(WIDEN_FACTOR))
    res_wide = principal_spectrum_point(wide, tol)
    shift = abs(res_wide.lam - res.lam)
    if shift > WIDEN_SHIFT_TOL:
        raise NumericalGuardError(
            f"domain too small: exponent shifts by {shift:.2e} when widened")
    return res, shift


def radius_threshold_test(p: LinearProblem, lam_threshold: float) -> str:
    """Decide whether the growth exponent lies above or below a threshold:
    from the Collatz-Wielandt bracket of the constant field (one step or
    one map, as :func:`principal_spectrum_point` routes the problem) when
    it excludes the threshold, otherwise from the bracket of its
    eigenpair, which stops as soon as its bracket excludes the threshold.
    A coefficient table tries the one step whatever its delta and keeps
    the widened bracket when that excludes the threshold.  Returns
    "above", "below", or "undecided"."""
    res = _principal_point(
        p, DEFAULT_TOL, DEFAULT_MAX_PERIODS,
        lambda lo, hi: lo > lam_threshold or hi < lam_threshold)
    if res.lam_lo > lam_threshold:
        return "above"
    if res.lam_hi < lam_threshold:
        return "below"
    return "undecided"


def homogeneous_growth_exponent(mu: float, mean_a: float,
                                kernel: Optional[Kernel] = None) -> float:
    """Closed-form exponent for x-independent coefficients: only the mean of
    the coefficient and the tilt scalar enter, mu^2 for the Laplacian and
    the tilted kernel mass minus one for a kernel."""
    tilt = mu * mu if kernel is None else kernel_moment(kernel, mu) - 1.0
    return tilt + mean_a
