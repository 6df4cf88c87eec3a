"""Spatially homogeneous periodic problems: the logistic periodic orbit,
the forced linear periodic solution, and the homogeneous coexistence orbit.

Scalar orbits come from their integrating-factor closed forms, by one
cumulative Simpson rule on a uniform time grid fine enough that downstream
uses see them as exact.  The RK45 time-map fixed points (``logistic_periodic``,
``coexistence_homogeneous``) are references that import scipy.integrate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet, PeriodicScalar, check_h0, compute_envelopes
from .errors import ConvergenceError, NumericalGuardError, PreconditionError

N_TIME_DEFAULT = 4096
IVP_RTOL = 1e-10
IVP_ATOL = 1e-12
DAMPING = 0.5
MAX_PERIOD_ITERS = 10_000


@dataclass(frozen=True)
class PeriodicOrbit:
    """One period of a scalar periodic trajectory on a uniform time grid
    (endpoint included; values[0] and values[-1] agree to ``tol``)."""

    period: float
    times: np.ndarray
    values: np.ndarray
    tol: float

    def value(self, t):
        tau = np.mod(t, self.period)
        return np.interp(tau, self.times, self.values)

    def sup(self) -> float:
        return float(np.max(self.values))

    def inf(self) -> float:
        return float(np.min(self.values))

    def to_csv(self, path, every: int = 1) -> None:
        rows = np.column_stack((self.times[::every], self.values[::every]))
        np.savetxt(path, rows, delimiter=",", header="t,value", comments="",
                   fmt="%.12g")


def _time_grid(period: float, n_samples: int) -> np.ndarray:
    return np.linspace(0.0, period, n_samples + 1)


def cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative Simpson integral of y on increasing nodes x (3 or more),
    from 0: bitwise ``scipy.integrate.cumulative_simpson(y, x=x, initial=0)``.
    Each interval takes the three-point panel that starts at it (forward,
    even intervals) or ends at it (backward, odd ones and the last)."""
    dx = np.diff(x)
    d, f = np.stack((dx, dx[::-1])), np.stack((y, y[::-1]))
    x21, x32 = d[:, :-1], d[:, 1:]
    x21_x31 = x21 / (x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    panels = x21 / 6 * ((3 - x21_x31) * f[:, :-2]
                        + (3 + x21x21_x31x32 + x21_x31) * f[:, 1:-1]
                        + -x21x21_x31x32 * f[:, 2:])
    backward = panels[1, ::-1]
    pieces = np.append(panels[0], backward[-1])
    pieces[1::2] = backward[::2]
    return np.concatenate(([0.0], np.cumsum(pieces)))


def _closed_orbit(period: float, t, E, values) -> PeriodicOrbit:
    if not np.all(np.isfinite(values)):  # e^E past float64: |E| > ~709.8
        raise NumericalGuardError(
            f"integrating factor e^E overflows, E in [{np.min(E):.4g}, {np.max(E):.4g}]")
    resid = abs(values[-1] - values[0]) / max(abs(values[0]), 1e-30)
    return PeriodicOrbit(period, t, values, resid)


def periodic_mean(fn, period: float, n_samples: int = N_TIME_DEFAULT) -> float:
    """Full-period trapezoid mean (spectrally accurate for smooth
    periodic integrands)."""
    t = np.linspace(0.0, period, n_samples, endpoint=False)
    return float(np.mean(fn(t)))


def _as_callable(coeff):
    if callable(coeff):
        return coeff
    value = float(coeff)
    return lambda t: value + 0.0 * np.asarray(t, dtype=float)


def logistic_periodic(a0, b0, period: float | None = None,
                      n_samples: int = N_TIME_DEFAULT,
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
    mean_a = periodic_mean(fa, period, n_samples)
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

    w = seed if seed is not None else max(mean_a / max(periodic_mean(fb, period, n_samples), 1e-12), 1e-6)
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

    times = _time_grid(period, n_samples)
    sol = solve_ivp(rhs, (0.0, period), [w], method="RK45",
                    rtol=IVP_RTOL, atol=IVP_ATOL, t_eval=times)
    values = sol.y[0]
    resid = abs(values[-1] - values[0]) / max(abs(values[0]), 1e-30)
    return PeriodicOrbit(period, times, values, resid)


def logistic_orbit(a0: PeriodicScalar, b0: PeriodicScalar,
                   n_samples: int = N_TIME_DEFAULT) -> PeriodicOrbit:
    """The logistic orbit over a0's period, by the closed form (uncached)."""
    return logistic_closed_form(a0, b0, a0.period, n_samples)


def logistic_closed_form(a0, b0, period: float,
                         n_samples: int = N_TIME_DEFAULT) -> PeriodicOrbit:
    """w(t) = e^{A(t)} w0 / (1 + w0 * int_0^t b0 e^{A}), A = int_0^t a0, w0
    pinned by periodicity.  Needs mean growth times period in (0, ~709): past
    it e^A overflows, ``NumericalGuardError`` (``logistic_periodic`` handles
    it).  Simpson's error grows like (a0 * period / n_samples)^4."""
    fa, fb = _as_callable(a0), _as_callable(b0)
    t = _time_grid(period, n_samples)
    A = cumulative_simpson(fa(t), t)
    if A[-1] <= 0.0:
        raise PreconditionError("nonpositive mean growth")
    with np.errstate(all="ignore"):
        I = cumulative_simpson(fb(t) * np.exp(A), t)
        w0 = np.expm1(A[-1]) / I[-1]
        values = np.exp(A) * w0 / (1.0 + w0 * I)
    return _closed_orbit(period, t, A, values)


def nonhomogeneous_periodic(alpha, h, period: float | None = None,
                            n_samples: int = N_TIME_DEFAULT) -> PeriodicOrbit:
    """Unique periodic solution of u' = alpha(t) u + h(t) for negative mean
    alpha, by the integrating-factor closed form.  |mean alpha| times period
    above about 709 overflows e^{-int alpha}: ``NumericalGuardError``."""
    if period is None:
        if not isinstance(alpha, PeriodicScalar):
            raise ValueError("period required when alpha is not a descriptor")
        period = alpha.period
    falpha, fh = _as_callable(alpha), _as_callable(h)
    t = _time_grid(period, n_samples)
    B = cumulative_simpson(falpha(t), t)
    if B[-1] >= 0.0:
        raise PreconditionError(
            f"mean of the decay coefficient is {B[-1] / period:.3e} >= 0")
    with np.errstate(all="ignore"):
        J = cumulative_simpson(fh(t) * np.exp(-B), t)
        eBT = np.exp(B[-1])
        u0 = eBT * J[-1] / (1.0 - eBT)
        values = np.exp(B) * (u0 + J)
    return _closed_orbit(period, t, B, values)


def coexistence_homogeneous(cs: CoefficientSet,
                            n_samples: int = N_TIME_DEFAULT
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

    ustar = logistic_orbit(a1, b1, n_samples)
    vstar = logistic_orbit(a2, c2, n_samples)
    y = np.array([ustar.values[0] / 2.0, vstar.values[0] / 2.0])
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

    times = _time_grid(period, n_samples)
    sol = solve_ivp(rhs, (0.0, period), y, method="RK45",
                    rtol=IVP_RTOL, atol=IVP_ATOL, t_eval=times)
    resid_u = abs(sol.y[0, -1] - sol.y[0, 0]) / max(abs(sol.y[0, 0]), 1e-30)
    resid_v = abs(sol.y[1, -1] - sol.y[1, 0]) / max(abs(sol.y[1, 0]), 1e-30)
    return (PeriodicOrbit(period, times, sol.y[0], resid_u),
            PeriodicOrbit(period, times, sol.y[1], resid_v))
