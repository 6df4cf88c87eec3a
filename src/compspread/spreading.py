"""Spreading speeds: dispersion-relation minimization and empirical front
tracking.

The theoretical invasion speed is inf over mu > 0 of lambda(mu)/mu for the
linearization at the invaded resident state; for x-independent
coefficients only the time mean of the effective growth rate enters, so
the dispersion curve is evaluated in closed form and minimized by
golden-section search after a coarse unimodality scan.  Empirical speeds
come from least-squares fits to tracked front positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coefficients import (CoefficientField, CoefficientSet, check_h0,
                           check_h1, check_h2, compute_envelopes)
from .dispersal import Kernel, boundary_margin
from .errors import PreconditionError
from .periodic_orbits import InvasionRate, resident_orbit
from .semitrivial import compute_semitrivial
from .simulator import (FrontObserver, Problem, SchemeConfig, SystemState,
                        make_front_data, run_transformed)
from .spectrum import homogeneous_growth_exponent

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# Dispersion minimizer: the default tilt bracket, points of the coarse
# unimodality scan and the golden-section interval width it stops at.
DISPERSION_BRACKET = (1e-2, 8.0)
COARSE_POINTS = 256
XTOL = 1e-8
# Front fits: periods discarded after the leading edge clears the localized
# region, the least span the fit window may cover (in periods), and the
# trailing fraction of the records a fit may use.
MIN_DISCARD_PERIODS = 20
MIN_WINDOW_PERIODS = 10
WINDOW_FRACTION = 0.4
# How far past the localized region the leading edge must be before a fit.
CLEARANCE = 50.0


@dataclass(frozen=True)
class SpeedEstimate:
    """Front speed with provenance: theoretical estimates carry the
    minimizing decay rate, empirical ones their fit diagnostics."""

    value: float
    kind: str
    mu_star: Optional[float] = None
    stderr: Optional[float] = None
    r_squared: Optional[float] = None
    window: Optional[tuple[float, float]] = None
    warning: Optional[str] = None


def invasion_mean_rate(cs: CoefficientSet) -> float:
    """Time mean of the invader growth rate at the resident state:
    a1 - c1 * (resident orbit of species v)."""
    return InvasionRate(cs, "u", resident_orbit(cs, "v")).mean()


def dispersion_curve(cs: CoefficientSet, kernel: Optional[Kernel],
                     mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mu, lambda(mu)) samples of the dispersion relation."""
    mean_alpha = invasion_mean_rate(cs)
    lam = np.array([homogeneous_growth_exponent(m, mean_alpha, kernel)
                    for m in mu])
    return mu, lam


def _check_invasion_setting(cs: CoefficientSet) -> float:
    env = compute_envelopes(cs.baselines())
    if not check_h0(env).holds:
        raise PreconditionError("coefficient envelopes must be positive")
    h1 = check_h1(env)
    if not h1.holds:
        bad = [lab for lab, m in zip(h1.labels, h1.margins) if m <= 0.0]
        raise PreconditionError(
            f"invasion envelope condition fails ({', '.join(bad)} margin(s) "
            "nonpositive)")
    mean_alpha = invasion_mean_rate(cs)
    if mean_alpha <= 0.0:
        raise PreconditionError(
            f"mean invasion rate {mean_alpha:.3e} is not positive")
    return mean_alpha


def golden_minimize(f, lo: float, hi: float) -> float:
    a, b = lo, hi
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > XTOL:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


def dispersion_speed(cs: CoefficientSet, kernel: Optional[Kernel] = None,
                     bracket: tuple[float, float] = DISPERSION_BRACKET
                     ) -> SpeedEstimate:
    """Minimize lambda(mu)/mu over mu > 0 by golden-section search after a
    coarse unimodality scan (grid minimum with a warning when the scan is
    not unimodal)."""
    return minimize_dispersion(_check_invasion_setting(cs), kernel, bracket)


def minimize_dispersion(mean_alpha: float, kernel: Optional[Kernel] = None,
                        bracket: tuple[float, float] = DISPERSION_BRACKET
                        ) -> SpeedEstimate:
    """The scan and refinement of :func:`dispersion_speed` for a given
    mean invasion rate, which only enters through lambda(mu)."""

    def speed_of(mu: float) -> float:
        return homogeneous_growth_exponent(mu, mean_alpha, kernel) / mu

    lo, hi = bracket
    warning = None
    for _ in range(4):
        mus = np.linspace(lo, hi, COARSE_POINTS)
        vals = np.array([speed_of(m) for m in mus])
        i = int(np.argmin(vals))
        if i < COARSE_POINTS - 1:
            break
        hi *= 2.0
    if i == 0:
        warning = "minimum at the lower bracket edge"
    elif i == COARSE_POINTS - 1:
        warning = "minimum still at the upper bracket edge after extension"
    diffs = np.diff(vals)
    unimodal = np.all(diffs[:max(i, 1)] <= 1e-12) and np.all(diffs[i:] >= -1e-12)
    if not unimodal:
        warning = "dispersion curve not unimodal on the scan grid"
        mu_star = float(mus[i])
    else:
        mu_star = golden_minimize(speed_of, mus[max(i - 1, 0)],
                                  mus[min(i + 1, COARSE_POINTS - 1)])
    return SpeedEstimate(speed_of(mu_star), "theoretical", mu_star=mu_star,
                         warning=warning)


def fit_front_speed(times: np.ndarray, positions: np.ndarray, period: float,
                    kind: str = "empirical-upper") -> SpeedEstimate:
    """Least-squares slope of front position against time over the trailing
    window (last WINDOW_FRACTION of the records after discarding at least
    MIN_DISCARD_PERIODS periods), which must span MIN_WINDOW_PERIODS."""
    times = np.asarray(times, dtype=float)
    positions = np.asarray(positions, dtype=float)
    keep = np.isfinite(positions)
    times, positions = times[keep], positions[keep]
    if times.size < 4:
        raise PreconditionError("too few finite front positions to fit")
    n = times.size
    discard_end = times[0] + MIN_DISCARD_PERIODS * period
    start = max(int(np.ceil((1.0 - WINDOW_FRACTION) * n)),
                int(np.searchsorted(times, discard_end)))
    if n - start < 2:
        raise PreconditionError("fit window is empty after the discard rule")
    t, x = times[start:], positions[start:]
    if (t[-1] - t[0]) < MIN_WINDOW_PERIODS * period - 1e-9:
        raise PreconditionError(
            f"fit window must span at least {MIN_WINDOW_PERIODS} periods")
    mono_tol = max(1e-9, 0.05 * float(np.median(np.abs(np.diff(x)))) + 1e-9)
    drops = np.diff(x) < -mono_tol
    if np.mean(drops) > 0.2:
        raise PreconditionError("front positions are not monotone in the window")
    tbar, xbar = t.mean(), x.mean()
    stt = float(np.sum((t - tbar) ** 2))
    slope = float(np.sum((t - tbar) * (x - xbar)) / stt)
    resid = x - (xbar + slope * (t - tbar))
    dof = max(t.size - 2, 1)
    stderr = float(np.sqrt(np.sum(resid ** 2) / dof / stt))
    sstot = float(np.sum((x - xbar) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / sstot if sstot > 0 else 1.0
    return SpeedEstimate(slope, kind, stderr=stderr, r_squared=r2,
                         window=(float(t[0]), float(t[-1])))


@dataclass
class SpeedIntervalResult:
    lower: SpeedEstimate
    upper: SpeedEstimate
    theoretical: SpeedEstimate


def speed_interval(problem: Problem, scheme: SchemeConfig, n_periods: int,
                   x0: float, ramp: float) -> SpeedIntervalResult:
    """Empirical lower and upper spreading estimates from a transformed
    front run: the lower speed tracks the rightmost point where both
    transformed components persist above half their plateau levels, the
    upper speed tracks the leading edge of the combined magnitude.  Fits
    start only after the leading edge has cleared the localized coefficient
    region by CLEARANCE length units.

    Before anything is simulated, the clearance time is bounded from below
    by the distance from ``x0`` to that gate outside the localized region
    (the region itself counts as crossed at once) over the theoretical
    speed c0*; a run that would leave fewer periods than a fit needs
    raises PreconditionError."""
    cs = problem.coefficients
    theo = dispersion_speed(cs.baselines(), problem.kernel)
    radius = cs.max_support_radius()
    gate = radius + CLEARANCE
    outside = max(gate - x0, 0.0) - max(radius - max(x0, -radius), 0.0)
    clear_periods = outside / theo.value / cs.period
    if n_periods - clear_periods < MIN_DISCARD_PERIODS + MIN_WINDOW_PERIODS:
        raise PreconditionError(
            f"the leading edge needs at least {clear_periods:.1f} periods to "
            f"clear the localized region by {CLEARANCE:g} at c0* = "
            f"{theo.value:.5f}, leaving "
            f"{n_periods - clear_periods:.1f} of {n_periods} periods where a "
            f"fit needs {MIN_DISCARD_PERIODS + MIN_WINDOW_PERIODS}; run "
            "longer or move x0")
    u_orbit = resident_orbit(cs, "u")
    u_level = 0.5 * float(u_orbit.value(0.0))
    vstar = compute_semitrivial("v", problem, scheme)
    v_orbit = vstar.homogeneous_orbit
    u0, vt0 = make_front_data(problem.grid, u_level, v_orbit, x0, ramp,
                              kernel=problem.kernel)
    vt_level = 0.5 * float(v_orbit.value(0.0))
    lu, lv = 0.5 * u_level, 0.5 * vt_level
    level = 0.5 * min(u_level, vt_level)
    _, records = run_transformed(
        SystemState(0.0, u0, vt0), problem, scheme, vstar.frames, n_periods,
        (FrontObserver("front_pair", problem.grid, 1.0,
                       lambda s: np.minimum(s.u / lu, s.v / lv)),
         FrontObserver("front_edge", problem.grid, level ** 2,
                       lambda s: s.u ** 2 + s.v ** 2,
                       boundary_margin(problem.grid, problem.kernel))))
    times = records.times
    pair, edge = records.series["front_pair"], records.series["front_edge"]
    cleared = edge >= gate
    if not cleared.any():
        raise PreconditionError(
            "front never cleared the localized region; run longer or move x0")
    sel = slice(int(np.argmax(cleared)), None)
    lower = fit_front_speed(times[sel], pair[sel], cs.period,
                            kind="empirical-lower")
    upper = fit_front_speed(times[sel], edge[sel], cs.period,
                            kind="empirical-upper")
    return SpeedIntervalResult(lower, upper, theo)


@dataclass
class SweepRow:
    eps: float
    speed: float
    mu_star: float
    delta_from_base: float


@dataclass
class SweepTable:
    base_speed: float
    rows: list[SweepRow]
    h2_holds: bool
    monotone: bool

    def to_rows(self):
        return [(r.eps, r.speed, r.mu_star, r.delta_from_base)
                for r in self.rows]


def continuity_sweep(cs: CoefficientSet, kernel: Optional[Kernel] = None,
                     eps_list: tuple[float, ...] = (0.2, 0.1, 0.05),
                     field_name: str = "a1") -> SweepTable:
    """Theoretical speeds of uniformly shifted coefficient families,
    reported against the unshifted speed.  Monotone approach of the
    deltas is recorded (expected under the determinacy condition)."""
    base = dispersion_speed(cs.baselines(), kernel)
    env = compute_envelopes(cs.baselines())
    h2 = check_h2(cs.baselines(), env).holds
    rows = []
    for eps in eps_list:
        fld = getattr(cs, field_name)
        shifted = cs.replace_field(
            field_name, CoefficientField(fld.baseline.shifted(eps), None))
        est = dispersion_speed(shifted.baselines(), kernel)
        rows.append(SweepRow(eps, est.value, est.mu_star,
                             est.value - base.value))
    order = np.argsort([-r.eps for r in rows])
    deltas = np.abs([rows[i].delta_from_base for i in order])
    monotone = bool(np.all(np.diff(deltas) <= 1e-12))
    return SweepTable(base.value, rows, h2, monotone)
