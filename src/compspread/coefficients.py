"""Time-periodic, spatially localized coefficients and hypothesis checks.

A coefficient field is an additive perturbation ``baseline(t) + bump(x)``
of a periodic baseline; the bump vanishes identically outside its support
radius, so every field is spatially homogeneous far from the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, PreconditionError

TWO_PI = 2.0 * np.pi
# Time samples where the determinacy condition is checked.
H2_SAMPLES = 256


@dataclass(frozen=True)
class PeriodicScalar:
    """Periodic scalar coefficient with a closed-form or tabular descriptor.

    Kinds: ``constant`` (value,), ``harmonic`` (mean, amplitude, phase),
    ``table`` (piecewise-linear knots over one period, wrapped modulo the
    period, matching endpoint values).
    """

    period: float
    kind: str
    params: tuple

    def __post_init__(self):
        # Each guard is written so that NaN fails it.
        if not self.period > 0.0:
            raise ConfigError("period must be positive")
        if self.kind == "table":
            knots = np.asarray(self.params, dtype=float)
            if (knots.ndim != 2 or knots.shape[1] != 2 or knots.shape[0] < 2
                    or not np.isfinite(knots).all()):
                raise ConfigError("table needs two or more finite (t, v) knots")
            t = knots[:, 0]
            if abs(t[0]) > 1e-12 or abs(t[-1] - self.period) > 1e-12:
                raise ConfigError("table knots must span [0, period]")
            if np.any(np.diff(t) <= 0):
                raise ConfigError("table knot times must increase")
            if abs(knots[0, 1] - knots[-1, 1]) > 1e-9:
                raise ConfigError("table endpoint values must match")
        elif self.kind not in ("constant", "harmonic"):
            raise ConfigError(f"unknown periodic descriptor kind {self.kind!r}")

    @staticmethod
    def constant(value: float, period: float = 1.0) -> "PeriodicScalar":
        return PeriodicScalar(period, "constant", (float(value),))

    @staticmethod
    def harmonic(mean: float, amplitude: float, phase: float = 0.0,
                 period: float = 1.0) -> "PeriodicScalar":
        return PeriodicScalar(period, "harmonic",
                              (float(mean), float(amplitude), float(phase)))

    @staticmethod
    def table(knots, period: float) -> "PeriodicScalar":
        pts = tuple((float(t), float(v)) for t, v in knots)
        return PeriodicScalar(period, "table", pts)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            return np.broadcast_to(self.params[0], t.shape).copy() if t.ndim else float(self.params[0])
        if self.kind == "harmonic":
            mean, amp, phase = self.params
            val = mean + amp * np.sin(TWO_PI * t / self.period + phase)
            return val if t.ndim else float(val)
        knots = np.asarray(self.params, dtype=float)
        tau = np.mod(t, self.period)
        val = np.interp(tau, knots[:, 0], knots[:, 1])
        return val if t.ndim else float(val)

    def shifted(self, delta: float) -> "PeriodicScalar":
        """The same descriptor with ``delta`` added everywhere."""
        if self.kind == "constant":
            return PeriodicScalar.constant(self.params[0] + delta, self.period)
        if self.kind == "harmonic":
            mean, amp, phase = self.params
            return PeriodicScalar(self.period, "harmonic", (mean + delta, amp, phase))
        pts = tuple((t, v + delta) for t, v in self.params)
        return PeriodicScalar(self.period, "table", pts)

    def range_exact(self) -> tuple[float, float]:
        """(inf, sup) over one period, exact for every descriptor kind."""
        if self.kind == "constant":
            c = self.params[0]
            return c, c
        if self.kind == "harmonic":
            mean, amp, _ = self.params
            return mean - abs(amp), mean + abs(amp)
        # Extrema of the linear interpolant sit at the knots.
        vals = np.asarray(self.params, dtype=float)[:, 1]
        return float(vals.min()), float(vals.max())


@dataclass(frozen=True)
class SpatialBump:
    """Compactly supported plateau profile: value ``amplitude`` on
    ``|x| <= plateau``, linear taper over ``ramp``, identically zero for
    ``|x| >= plateau + ramp``."""

    amplitude: float
    plateau: float
    ramp: float = 0.0

    def __post_init__(self):
        if not (self.plateau >= 0.0 and self.ramp >= 0.0
                and self.plateau + self.ramp > 0.0):
            raise ConfigError("bump needs plateau >= 0, ramp >= 0, support > 0")

    @property
    def support_radius(self) -> float:
        return self.plateau + self.ramp

    @staticmethod
    def square(amplitude: float, width: float) -> "SpatialBump":
        """Sharp-edged bump of given full width (no taper)."""
        return SpatialBump(amplitude, width / 2.0, 0.0)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        if self.ramp == 0.0:
            prof = (ax <= self.plateau).astype(float)
        else:
            prof = np.clip((self.plateau + self.ramp - ax) / self.ramp, 0.0, 1.0)
        val = self.amplitude * prof
        return val if x.ndim else float(val)


@dataclass(frozen=True)
class CoefficientField:
    """baseline(t) + optional bump(x); equals the baseline exactly outside
    the bump support."""

    baseline: PeriodicScalar
    bump: Optional[SpatialBump] = None

    @property
    def period(self) -> float:
        return self.baseline.period

    @property
    def support_radius(self) -> float:
        return self.bump.support_radius if self.bump is not None else 0.0

    def value(self, t, x):
        base = self.baseline(t)
        if self.bump is None:
            bump = np.zeros(np.shape(x)) if np.ndim(x) else 0.0
        else:
            bump = self.bump(x)
        return base + bump

    def with_bump(self, bump: Optional[SpatialBump]) -> "CoefficientField":
        return CoefficientField(self.baseline, bump)

    def min_value(self) -> float:
        lo = self.baseline.range_exact()[0]
        if self.bump is not None:
            lo += min(0.0, self.bump.amplitude)
        return lo


FIELD_NAMES = ("a1", "b1", "c1", "a2", "b2", "c2")
# Each species' roles: its growth, its self-limitation, and the field
# through which the other species suppresses it.
SPECIES_ROLES = {"u": ("a1", "b1", "c1"), "v": ("a2", "c2", "b2")}


@dataclass(frozen=True)
class CoefficientSet:
    """The six coefficient fields of the two-species system, sharing one
    period.  Interaction and self-limitation fields (b1, c1, b2, c2) must be
    strictly positive everywhere, bumps included."""

    a1: CoefficientField
    b1: CoefficientField
    c1: CoefficientField
    a2: CoefficientField
    b2: CoefficientField
    c2: CoefficientField

    def __post_init__(self):
        periods = [getattr(self, n).period for n in FIELD_NAMES]
        if max(periods) - min(periods) > 1e-12 * max(periods):
            raise ConfigError("all six coefficients must share the same period")
        for name in ("b1", "c1", "b2", "c2"):
            field = getattr(self, name)
            if not field.min_value() > 0.0:
                raise ConfigError(f"coefficient {name} must stay strictly positive")

    @property
    def period(self) -> float:
        return self.a1.period

    def fields(self) -> dict[str, CoefficientField]:
        return {n: getattr(self, n) for n in FIELD_NAMES}

    def roles(self, species: str) -> tuple[CoefficientField, ...]:
        """(growth, self-limitation, suppression) fields of ``species``."""
        return tuple(getattr(self, n) for n in SPECIES_ROLES[species])

    def baselines(self) -> "CoefficientSet":
        """The spatially homogeneous set with every bump removed."""
        return CoefficientSet(*(getattr(self, n).with_bump(None) for n in FIELD_NAMES))

    def max_support_radius(self) -> float:
        return max(getattr(self, n).support_radius for n in FIELD_NAMES)

    def replace_field(self, name: str, field: CoefficientField) -> "CoefficientSet":
        parts = {n: getattr(self, n) for n in FIELD_NAMES}
        parts[name] = field
        return CoefficientSet(**parts)

    def with_bump_on(self, name: str, bump: SpatialBump) -> "CoefficientSet":
        return self.replace_field(name, getattr(self, name).with_bump(bump))


@dataclass(frozen=True)
class EnvelopeTable:
    """Per-coefficient infimum (L) and supremum (M) of the baselines over one
    period."""

    a1L: float; a1M: float
    b1L: float; b1M: float
    c1L: float; c1M: float
    a2L: float; a2M: float
    b2L: float; b2M: float
    c2L: float; c2M: float

    def pairs(self) -> dict[str, tuple[float, float]]:
        return {n: (getattr(self, n + "L"), getattr(self, n + "M"))
                for n in FIELD_NAMES}


def compute_envelopes(cs: CoefficientSet) -> EnvelopeTable:
    """Baseline envelopes, exact for every descriptor kind (a table's
    extrema sit at its knots)."""
    entries = {}
    for name in FIELD_NAMES:
        entries[name + "L"], entries[name + "M"] = (
            getattr(cs, name).baseline.range_exact())
    return EnvelopeTable(**entries)


@dataclass(frozen=True)
class HypothesisVerdict:
    holds: bool
    margins: tuple[float, ...]
    labels: tuple[str, ...]
    note: str = ""


def check_h0(env: EnvelopeTable) -> HypothesisVerdict:
    """Strict positivity of all six baseline infima."""
    labels = tuple(n + "L" for n in FIELD_NAMES)
    margins = tuple(getattr(env, lab) for lab in labels)
    return HypothesisVerdict(all(m > 0.0 for m in margins), margins, labels)


def check_h1(env: EnvelopeTable) -> HypothesisVerdict:
    """Invasion/exclusion envelope condition: the u-species can invade the
    v-resident, and the v-species cannot withstand the u-resident."""
    if not check_h0(env).holds:
        raise PreconditionError("envelope positivity fails; condition undefined")
    m1 = env.a1L - env.c1M * env.a2M / env.c2L
    m2 = env.a1L * env.b2L / env.b1M - env.a2M
    return HypothesisVerdict(m1 > 0.0 and m2 > 0.0, (m1, m2),
                             ("invasion", "exclusion"))


def h2_expressions(cs: CoefficientSet, resident: EnvelopeTable,
                   competition: EnvelopeTable, t):
    """The two determinacy expressions of ``cs`` at times ``t``, with the
    resident ratios (a2, c2) from ``resident`` and the competition ratios
    (c1/b1, c2/b2) from ``competition``."""
    a1 = cs.a1.baseline(t)
    a2 = cs.a2.baseline(t)
    b2 = cs.b2.baseline(t)
    c1 = cs.c1.baseline(t)
    c2 = cs.c2.baseline(t)
    common = (a1 - c1 * resident.a2M / resident.c2L - a2
              + 2.0 * c2 * resident.a2L / resident.c2M)
    e1 = common - b2 * (resident.a2M / resident.c2L) * (
        competition.c1M / competition.b1L)
    e2 = common - b2 * (resident.a2M / resident.c2L) * (
        competition.c2M / competition.b2L)
    return e1, e2


def check_h2(cs: CoefficientSet, env: EnvelopeTable) -> HypothesisVerdict:
    """Linear determinacy condition: both pointwise-in-time expressions must
    stay strictly positive over one period."""
    if not check_h0(env).holds:
        raise PreconditionError("envelope positivity fails; condition undefined")
    t = np.linspace(0.0, cs.period, H2_SAMPLES, endpoint=False)
    e1, e2 = h2_expressions(cs, env, env, t)
    m1, m2 = float(np.min(e1)), float(np.min(e2))
    return HypothesisVerdict(m1 > 0.0 and m2 > 0.0, (m1, m2),
                             ("determinacy-1", "determinacy-2"))
