"""Time stepping for the full two-species system and its cooperative
transform.

One step is first-order operator splitting: a dispersal substep
(Crank-Nicolson tridiagonal solve for random dispersal, explicit for
nonlocal) followed by an exact pointwise logistic reaction substep with
the competitor frozen.  Both substeps preserve nonnegativity and the
competitive order, so the discrete dynamics obey the same comparison
principles as the continuous system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import _accel
from .coefficients import CoefficientSet
from .dispersal import Grid, Kernel, boundary_margin
from .errors import ConfigError, NumericalGuardError, PreconditionError
from .periodic_orbits import PeriodicOrbit


@dataclass(frozen=True)
class SystemState:
    t: float
    u: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class Problem:
    """Coefficient set bound to a grid (and kernel, for nonlocal runs)."""

    coefficients: CoefficientSet
    grid: Grid
    kernel: Optional[Kernel] = None

    @property
    def kind(self) -> str:
        return "nonlocal" if self.kernel is not None else "random"

    def bump_arrays(self) -> dict[str, np.ndarray | float]:
        x = self.grid.x
        return {name: (fld.bump(x) if fld.bump is not None else 0.0)
                for name, fld in self.coefficients.fields().items()}

    def box_bounds(self) -> tuple[float, float]:
        """Invariant box [0, u_max] x [0, v_max] preserved by the discrete
        dynamics."""
        cs = self.coefficients
        return (_field_sup(cs.a1) / cs.b1.min_value(),
                _field_sup(cs.a2) / cs.c2.min_value())


def _field_sup(fld) -> float:
    rng = fld.baseline.range_exact() or fld.baseline.sampled_range(1024)
    hi = rng[1]
    if fld.bump is not None:
        hi += max(0.0, fld.bump.amplitude)
    return hi


@dataclass(frozen=True)
class SchemeConfig:
    """Step size; dt must divide the period exactly so period maps are
    well defined.  The problem's kernel decides the dispersal substep."""

    dt: float

    def steps_per_period(self, period: float) -> int:
        spp = period / self.dt
        if abs(spp - round(spp)) > 1e-9 * max(spp, 1.0):
            raise ConfigError(f"dt={self.dt} does not divide the period {period}")
        return int(round(spp))

    def validate(self, problem: Problem) -> None:
        self.steps_per_period(problem.coefficients.period)
        if problem.kernel is None:
            bound = problem.grid.h ** 2
            if self.dt > bound * (1.0 + 1e-12):
                raise NumericalGuardError(
                    f"dt={self.dt:.4g} exceeds the monotone bound "
                    f"{bound:.4g} for random dispersal")
        elif self.dt > 0.5 + 1e-12:
            raise NumericalGuardError(
                f"dt={self.dt:.4g} exceeds the nonlocal bound 0.5")


def make_scheme(problem: Problem,
                steps_per_period: Optional[int] = None) -> SchemeConfig:
    """Choose a period-dividing dt within the stability bounds."""
    period = problem.coefficients.period
    if steps_per_period is None:
        bound = problem.grid.h ** 2 if problem.kernel is None else 0.5
        steps_per_period = max(8, int(np.ceil(period / bound)))
    scheme = SchemeConfig(period / steps_per_period)
    scheme.validate(problem)
    return scheme


_COEFFS = ("a1", "b1", "c1", "a2", "b2", "c2")


class Stepper:
    """Bound problem + scheme; advances raw (u, v) arrays one step or one
    period.

    Times live on the step lattice t = k*dt: the baselines repeat every
    period, so they are tabulated once at the step midpoints (k + 1/2)*dt
    and each step looks up its phase k mod steps_per_period."""

    def __init__(self, problem: Problem, scheme: SchemeConfig):
        scheme.validate(problem)
        self.problem = problem
        self.dt = scheme.dt
        self.period = problem.coefficients.period
        self.spp = scheme.steps_per_period(self.period)
        self.grid = problem.grid
        bumps = problem.bump_arrays()
        self._bumps = tuple(bumps[name] for name in _COEFFS)
        fields = problem.coefficients.fields()
        t_mid = (np.arange(self.spp) + 0.5) * self.dt
        # One tuple of six floats (in _COEFFS order) per phase.
        self._phase_coefs = list(zip(*(
            fields[name].baseline(t_mid).tolist()
            for name in _COEFFS)))
        if problem.kernel is None:
            self._r = 0.5 * self.dt * (1.0 / self.grid.h ** 2)
            self._cn = _accel.TridiagFactor(self.grid.n, self._r)
        else:
            self._weights = problem.kernel.weights * problem.kernel.h

    def step_index(self, t: float) -> int:
        """Lattice index k with t = k*dt; PreconditionError when t is more
        than 1e-9 off the lattice."""
        k = round(t / self.dt)
        if abs(k * self.dt - t) > 1e-9:
            raise PreconditionError(
                f"time {t!r} does not lie on the step lattice (dt={self.dt!r})")
        return k

    def time_at(self, k: int) -> float:
        """Time of lattice index k, exact at whole periods (no drift from
        accumulating dt)."""
        periods, phase = divmod(k, self.spp)
        return periods * self.period + phase * self.period / self.spp

    def _disperse(self, w: np.ndarray) -> np.ndarray:
        if self.problem.kernel is None:
            return self._cn.solve(_accel.cn_explicit_half(w, self._r))
        # w + dt*(K*w - w), operation for operation, in place.
        out = _accel.correlate_ext(w, self._weights)
        out -= w
        out *= self.dt
        out += w
        return out

    def step_arrays(self, u: np.ndarray, v: np.ndarray,
                    t: float) -> tuple[np.ndarray, np.ndarray]:
        """(u, v) one step after time t, which must lie on the step
        lattice.  The inputs are never modified."""
        base = self._phase_coefs[self.step_index(t) % self.spp]
        u = self._disperse(u)
        v = self._disperse(v)
        a1, b1, c1, a2, b2, c2 = (
            c + bump for c, bump in zip(base, self._bumps))
        # Frozen-competitor rates use the post-dispersal fields of both
        # species, keeping the update symmetric and order-preserving.  A
        # spatially constant b1 or c2 stays a scalar and broadcasts.
        u_new = _accel.logistic_step(u, a1 - c1 * v, b1, self.dt)
        v_new = _accel.logistic_step(v, a2 - b2 * u, c2, self.dt)
        return u_new, v_new

    def period_steps(self, u: np.ndarray, v: np.ndarray):
        """Yield (u, v) after each step of one period from phase 0.  The
        state ending the period is checked for nonfinite values before it
        is yielded; neither substep turns a nonfinite value finite, so the
        check covers the whole period."""
        for k in range(self.spp):
            u, v = self.step_arrays(u, v, self.time_at(k))
            if k + 1 == self.spp:
                _guard_finite(u, v, self.period, self.grid)
            yield u, v

    def run_period(self, u: np.ndarray,
                   v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(u, v) one whole period after phase 0: the period map."""
        for u, v in self.period_steps(u, v):
            pass
        return u, v


def _guard_finite(u: np.ndarray, v: np.ndarray, t: float, grid: Grid) -> None:
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        bad_u = np.flatnonzero(~np.isfinite(u))
        bad_v = np.flatnonzero(~np.isfinite(v))
        j = int(bad_u[0]) if bad_u.size else int(bad_v[0])
        raise NumericalGuardError(
            f"nonfinite value at t={t:.6g}, x={grid.x[j]:.6g} (index {j})")


def _sup_change(new: Sequence[np.ndarray], old: Sequence[np.ndarray]) -> float:
    """Largest sup-norm change over paired fields."""
    return max(float(np.max(np.abs(a - b))) for a, b in zip(new, old))


def fixed_point(period_map: Callable[[tuple], tuple], fields: tuple,
                tol: float, max_periods: int) -> tuple[tuple, int, float]:
    """Iterate a period map on a tuple of fields until the largest sup-norm
    change over the fields drops below tol, or for max_periods periods.
    Returns the last fields, the periods used and the last change (inf
    when no period ran); the caller decides whether missing tol is an
    error."""
    delta = np.inf
    for p in range(1, max_periods + 1):
        new = period_map(fields)
        delta = _sup_change(new, fields)
        fields = new
        if delta < tol:
            return fields, p, delta
    return fields, max_periods, delta


def step(state: SystemState, problem: Problem,
         scheme: SchemeConfig) -> SystemState:
    """One split step; guards against nonfinite values."""
    stepper = Stepper(problem, scheme)
    u, v = stepper.step_arrays(state.u, state.v, state.t)
    t = stepper.time_at(stepper.step_index(state.t) + 1)
    _guard_finite(u, v, t, stepper.grid)
    return SystemState(t, u, v)


# ---------------------------------------------------------------------------
# observers
# ---------------------------------------------------------------------------

class Observer:
    """Samples one scalar from the state at each period end."""

    name = "observer"

    def sample(self, state: SystemState) -> float:  # pragma: no cover
        raise NotImplementedError


def front_position(values: np.ndarray, grid: Grid, level: float) -> float:
    """Rightmost crossing of the level, linearly interpolated between the
    bracketing grid points; nan when the field never reaches the level."""
    above = values >= level
    if not above.any():
        return np.nan
    j = int(np.max(np.flatnonzero(above)))
    if j == grid.n - 1:
        return grid.x_max
    x = grid.x
    frac = (values[j] - level) / (values[j] - values[j + 1])
    return float(x[j] + frac * (x[j + 1] - x[j]))


class FrontObserver(Observer):
    """Front position of one component, with a boundary-contact guard."""

    def __init__(self, grid: Grid, level: float, component: str = "u",
                 kernel: Optional[Kernel] = None, guard: bool = True,
                 name: Optional[str] = None):
        self.grid = grid
        self.level = level
        self.component = component
        self.margin = boundary_margin(grid, kernel)
        self.guard = guard
        self.name = name or f"front_{component}"

    def sample(self, state: SystemState) -> float:
        pos = front_position(getattr(state, self.component), self.grid,
                             self.level)
        if self.guard and np.isfinite(pos) and pos > self.grid.x_max - self.margin:
            raise NumericalGuardError(
                f"front reached the boundary margin at t={state.t:.6g}")
        return pos


class PairFrontObserver(Observer):
    """Rightmost point where both components exceed their levels (the
    trailing persistence front)."""

    name = "front_pair"

    def __init__(self, grid: Grid, level_u: float, level_v: float):
        self.grid = grid
        self.level_u = level_u
        self.level_v = level_v

    def sample(self, state: SystemState) -> float:
        scaled = np.minimum(state.u / self.level_u, state.v / self.level_v)
        return front_position(scaled, self.grid, 1.0)


class MagnitudeFrontObserver(Observer):
    """Leading edge: rightmost point where u^2 + v^2 still reaches
    level^2."""

    name = "front_edge"

    def __init__(self, grid: Grid, level: float,
                 kernel: Optional[Kernel] = None, guard: bool = True):
        self.grid = grid
        self.level = level
        self.margin = boundary_margin(grid, kernel)
        self.guard = guard

    def sample(self, state: SystemState) -> float:
        pos = front_position(state.u ** 2 + state.v ** 2, self.grid,
                             self.level ** 2)
        if self.guard and np.isfinite(pos) and pos > self.grid.x_max - self.margin:
            raise NumericalGuardError(
                f"leading edge reached the boundary margin at t={state.t:.6g}")
        return pos


@dataclass
class RunRecords:
    times: np.ndarray
    series: dict[str, np.ndarray]
    period_delta: np.ndarray

    def to_csv(self, path) -> None:
        names = sorted(self.series)
        rows = np.column_stack([self.times] + [self.series[k] for k in names])
        np.savetxt(path, rows, delimiter=",",
                   header=",".join(["t"] + names), comments="", fmt="%.12g")


def _record_periods(stepper: Stepper, state: SystemState, n_periods: int,
                    observers: Sequence[Observer], advance: Callable
                    ) -> tuple[SystemState, RunRecords]:
    """Advance n whole periods with advance(u, v, k), which takes the
    fields from lattice index k to k + 1.  At each period end the state is
    checked for nonfinite values, the observers sample it and the sup
    change from the previous period end is recorded."""
    spp = stepper.spp
    times: list[float] = []
    series: dict[str, list[float]] = {obs.name: [] for obs in observers}
    deltas: list[float] = []
    k = stepper.step_index(state.t)
    for p in range(n_periods):
        u, v = state.u, state.v
        for _ in range(spp):
            u, v = advance(u, v, k)
            k += 1
        t = stepper.time_at(k)
        _guard_finite(u, v, t, stepper.grid)
        if p:
            deltas.append(_sup_change((u, v), (state.u, state.v)))
        state = SystemState(t, u, v)
        times.append(t)
        for obs in observers:
            series[obs.name].append(obs.sample(state))
    records = RunRecords(np.asarray(times),
                         {name: np.asarray(vals)
                          for name, vals in series.items()},
                         np.asarray(deltas))
    return state, records


def run_periods(state: SystemState, problem: Problem, scheme: SchemeConfig,
                n_periods: int, observers: Sequence[Observer] = ()
                ) -> tuple[SystemState, RunRecords]:
    """Advance n whole periods, sampling observers once per period and
    recording period-to-period sup deltas."""
    stepper = Stepper(problem, scheme)
    return _record_periods(
        stepper, state, n_periods, observers,
        lambda u, v, k: stepper.step_arrays(u, v, stepper.time_at(k)))


# ---------------------------------------------------------------------------
# transformed (cooperative) runs
# ---------------------------------------------------------------------------

def ramp_profile(x: np.ndarray, x0: float, width: float) -> np.ndarray:
    """1 left of x0, linear ramp to 0 at x0 + width, 0 beyond (step function
    when width = 0)."""
    if width == 0.0:
        return (x <= x0).astype(float)
    return np.clip((x0 + width - x) / width, 0.0, 1.0)


def make_front_data(grid: Grid, u_level: float, v_orbit: PeriodicOrbit,
                    x0: float, ramp: float,
                    v_level: Optional[float] = None,
                    kernel: Optional[Kernel] = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Front-like initial data in transformed variables: both components sit
    at a positive plateau left of x0 and vanish identically right of
    x0 + ramp.  The second-component level defaults to half the resident
    orbit, strictly below it as the front class requires."""
    margin = boundary_margin(grid, kernel)
    if not (grid.x_min + margin <= x0 and x0 + ramp <= grid.x_max - margin):
        raise PreconditionError("front interface violates the domain margins")
    prof = ramp_profile(grid.x, x0, ramp)
    if v_level is None:
        v_level = 0.5 * float(v_orbit.value(0.0))
    return u_level * prof, v_level * prof


def run_transformed(state: SystemState, problem: Problem, scheme: SchemeConfig,
                    vstar_frames: np.ndarray, n_periods: int,
                    observers: Sequence[Observer] = ()
                    ) -> tuple[SystemState, RunRecords]:
    """Evolve the cooperative transform: the state carries (u, vt) with
    vt = vstar - v.  Internally the original system is stepped; the resident
    periodic solution enters through its per-step frames over one period
    (shape (spp, n) or (spp + 1, n)).  Componentwise ordering of transformed
    trajectories and the box 0 <= vt <= vstar are preserved."""
    stepper = Stepper(problem, scheme)
    spp = stepper.spp
    if vstar_frames.ndim != 2 or vstar_frames.shape[0] not in (spp, spp + 1) \
            or vstar_frames.shape[1] != problem.grid.n:
        raise PreconditionError(
            "resident frames must have shape (steps_per_period[+1], n)")
    frames = vstar_frames[:spp]
    k0 = stepper.step_index(state.t)
    if np.any(state.v < -1e-12) or np.any(state.v > frames[k0 % spp] + 1e-9):
        raise PreconditionError("transformed component must satisfy 0 <= vt <= vstar")

    def advance(u, vt, k):
        u, v = stepper.step_arrays(u, frames[k % spp] - vt, stepper.time_at(k))
        return u, frames[(k + 1) % spp] - v

    return _record_periods(stepper, state, n_periods, observers, advance)


def snapshot_to_csv(path, grid: Grid, state: SystemState) -> None:
    rows = np.column_stack((grid.x, state.u, state.v))
    np.savetxt(path, rows, delimiter=",", header="x,u,v", comments="",
               fmt="%.12g")
