"""Spatially homogeneous periodic problems: the logistic periodic orbit
and the forced linear periodic solution.

Both come from their integrating-factor closed forms, by one cumulative
Simpson rule on a uniform time grid fine enough that downstream uses see
them as exact.  No RK45 route backs them up: past its domain a closed
form raises ``NumericalGuardError``.  The package does not import
scipy.integrate; the RK45 time-map fixed points that check the closed
forms are test references (``tests/reference_routes.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet, PeriodicScalar
from .errors import NumericalGuardError, PreconditionError

N_TIME_DEFAULT = 4096


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


def _time_grid(period: float) -> np.ndarray:
    return np.linspace(0.0, period, N_TIME_DEFAULT + 1)


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
    # scipy's x21/6 * (a + b + c), summed in place in the same order.
    panels = (3 - x21_x31) * f[:, :-2]
    panels += (3 + x21x21_x31x32 + x21_x31) * f[:, 1:-1]
    panels += -x21x21_x31x32 * f[:, 2:]
    panels *= x21 / 6
    backward = panels[1, ::-1]
    # The pieces and their running sum share the result's buffer: no
    # appended or concatenated copies.
    out = np.empty(y.size)
    out[0] = 0.0
    pieces = out[1:]
    pieces[:-1] = panels[0]
    pieces[-1] = backward[-1]
    pieces[1::2] = backward[::2]
    np.cumsum(pieces, out=pieces)
    return out


def _closed_orbit(period: float, t, E, values) -> PeriodicOrbit:
    if not np.all(np.isfinite(values)):  # e^E past float64: |E| > ~709.8
        raise NumericalGuardError(
            f"integrating factor e^E overflows, E in [{np.min(E):.4g}, {np.max(E):.4g}]")
    resid = abs(values[-1] - values[0]) / max(abs(values[0]), 1e-30)
    return PeriodicOrbit(period, t, values, resid)


def periodic_mean(fn, period: float) -> float:
    """Full-period trapezoid mean (spectrally accurate for smooth
    periodic integrands)."""
    t = np.linspace(0.0, period, N_TIME_DEFAULT, endpoint=False)
    return float(np.mean(fn(t)))


def _as_callable(coeff):
    if callable(coeff):
        return coeff
    value = float(coeff)
    return lambda t: value + 0.0 * np.asarray(t, dtype=float)


def logistic_orbit(a0: PeriodicScalar, b0: PeriodicScalar) -> PeriodicOrbit:
    """The logistic orbit over a0's period, by the closed form (uncached)."""
    return logistic_closed_form(a0, b0, a0.period)


def resident_orbit(cs: CoefficientSet, species: str) -> PeriodicOrbit:
    """Homogeneous orbit of ``species`` alone: the logistic orbit of its
    baseline growth and self-limitation."""
    growth, limit, _ = cs.roles(species)
    return logistic_orbit(growth.baseline, limit.baseline)


class InvasionRate:
    """growth(t) - suppress(t) * orbit(t) of the ``invader``'s baselines in
    ``cs``, callable on scalars and arrays.  The resident orbit is given,
    so it may come from another coefficient set."""

    def __init__(self, cs: CoefficientSet, invader: str, orbit: PeriodicOrbit):
        growth, _, suppress = cs.roles(invader)
        self.growth, self.suppress = growth.baseline, suppress.baseline
        self.orbit, self.period = orbit, cs.period

    def __call__(self, t):
        return self.growth(t) - self.suppress(t) * self.orbit.value(t)

    def mean(self) -> float:
        return periodic_mean(self, self.period)


def logistic_closed_form(a0, b0, period: float) -> PeriodicOrbit:
    """w(t) = e^{A(t)} w0 / (1 + w0 * int_0^t b0 e^{A}), A = int_0^t a0, w0
    pinned by periodicity.  Needs mean growth times period in (0, ~709): past
    it e^A overflows and the orbit raises ``NumericalGuardError``, which
    nothing catches.  Simpson's error grows like (a0 * period /
    N_TIME_DEFAULT)^4."""
    fa, fb = _as_callable(a0), _as_callable(b0)
    t = _time_grid(period)
    A = cumulative_simpson(fa(t), t)
    if A[-1] <= 0.0:
        raise PreconditionError("nonpositive mean growth")
    with np.errstate(all="ignore"):
        I = cumulative_simpson(fb(t) * np.exp(A), t)
        w0 = np.expm1(A[-1]) / I[-1]
        values = np.exp(A) * w0 / (1.0 + w0 * I)
    return _closed_orbit(period, t, A, values)


def nonhomogeneous_periodic(alpha, h, period: float) -> PeriodicOrbit:
    """Unique periodic solution of u' = alpha(t) u + h(t) for negative mean
    alpha, by the integrating-factor closed form.  |mean alpha| times period
    above about 709 overflows e^{-int alpha}: ``NumericalGuardError``."""
    falpha, fh = _as_callable(alpha), _as_callable(h)
    t = _time_grid(period)
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
