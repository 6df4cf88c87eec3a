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

import copy
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import _accel
from .coefficients import FIELD_NAMES, CoefficientSet
from .dispersal import (MAX_SIZE, Grid, Kernel, boundary_margin,
                        check_kernel_spacing)
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

    def __post_init__(self):
        check_kernel_spacing(self.kernel, self.grid)

    @property
    def kind(self) -> str:
        """The ``kind`` argument :class:`LinearProblem` takes."""
        return "nonlocal" if self.kernel is not None else "random"

    def bump_arrays(self) -> dict[str, np.ndarray | float]:
        x = self.grid.x
        return {name: (fld.bump(x) if fld.bump is not None else 0.0)
                for name, fld in self.coefficients.fields().items()}


@dataclass(frozen=True)
class SchemeConfig:
    """Step size; dt must divide the period exactly so period maps are
    well defined.  The problem's kernel decides the dispersal substep."""

    dt: float

    def steps_per_period(self, period: float) -> int:
        spp = period / self.dt
        if not spp <= MAX_SIZE:
            raise ConfigError(f"dt={self.dt!r} takes more than {MAX_SIZE} "
                              f"steps per period {period!r}")
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


class Stepper:
    """Bound problem + scheme; advances raw (u, v) arrays one step or one
    period.

    Steps are addressed by their lattice index k, the step from t = k*dt:
    the baselines repeat every period, so they are tabulated once at the
    step midpoints (k + 1/2)*dt and each step looks up its phase
    k mod steps_per_period.  A time from outside is put on the lattice
    once, by :meth:`step_index`, where a run starts.

    A stepper steps the whole grid; :meth:`window` gives one that steps
    ``points`` consecutive grid points from ``offset``, the fields then
    being those points alone, with the same boundary handling at the
    window's ends."""

    def __init__(self, problem: Problem, scheme: SchemeConfig):
        scheme.validate(problem)
        self.problem = problem
        self.dt = scheme.dt
        self.period = problem.coefficients.period
        self.spp = scheme.steps_per_period(self.period)
        self.grid = problem.grid
        self.points, self.offset = self.grid.n, 0
        bumps = problem.bump_arrays()
        self._grid_bumps = self._bumps = tuple(bumps[name]
                                               for name in FIELD_NAMES)
        fields = problem.coefficients.fields()
        t_mid = (np.arange(self.spp) + 0.5) * self.dt
        # One tuple of six floats (in FIELD_NAMES order) per phase.
        self._phase_coefs = list(zip(*(
            fields[name].baseline(t_mid).tolist()
            for name in FIELD_NAMES)))
        if problem.kernel is None:
            self._r = 0.5 * self.dt * (1.0 / self.grid.h ** 2)
            self._cn = _accel.TridiagFactor(self.grid.n, self._r)
        else:
            self._weights = problem.kernel.weights * problem.kernel.h

    def window(self, points: int) -> "Stepper":
        """This stepper on ``points`` consecutive grid points, from offset 0
        until :meth:`slide` moves it: same dt, phases and kernel weights, a
        tridiagonal factor of ``points`` rows."""
        win = copy.copy(self)
        win.points = points
        if self.problem.kernel is None:
            win._cn = _accel.TridiagFactor(points, self._r)
        win.slide(0)
        return win

    def slide(self, offset: int) -> None:
        """Step the window from grid index ``offset``: the bump arrays are
        sliced there, and a scalar bump stays a scalar."""
        self.offset = offset
        self._bumps = tuple(
            b if np.ndim(b) == 0 else b[offset:offset + self.points]
            for b in self._grid_bumps)

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
            return self._cn.solve(_accel.cn_explicit_half(w, self._r),
                                  overwrite_rhs=True)
        # w + dt*(K*w - w), operation for operation, in place.
        out = _accel.correlate_ext(w, self._weights)
        out -= w
        out *= self.dt
        out += w
        return out

    def step_arrays(self, u: np.ndarray, v: np.ndarray,
                    k: int) -> tuple[np.ndarray, np.ndarray]:
        """(u, v) after the step from lattice index k, from time k*dt to
        (k + 1)*dt.  The inputs are never modified.  Fields of shape (K, n)
        step K independent trajectories at once, each row bitwise as if
        stepped alone.

        A species with no nonzero entry skips both substeps and comes
        back as fresh +0.0 zeros: linear dispersal maps 0 to 0 and
        logistic_step(0, ...) is 0*e^x/(1 + 0), so the result is the
        stepped one, except where e^x would overflow and turn 0 into NaN.
        Its competitor then reacts at its own growth rate alone (a1 or
        a2): the interaction coefficient c is positive, so for finite c
        a - c*(+0.0) is a exactly.  A spatially constant rate stays a
        scalar, which logistic_step exponentiates once.

        Liveness is probed at the first entry before the whole field is
        scanned: a nonzero first entry, NaN included, proves the species
        live.  A NaN field counts as live and is stepped.  In a batch the
        skip needs every row of the species to be zero."""
        base = self._phase_coefs[k % self.spp]
        live_u = bool(u.flat[0]) or u.any()
        live_v = bool(v.flat[0]) or v.any()
        u = self._disperse(u) if live_u else np.zeros(u.shape)
        v = self._disperse(v) if live_v else np.zeros(v.shape)
        a1, b1, c1, a2, b2, c2 = (
            c + bump for c, bump in zip(base, self._bumps))
        # Frozen-competitor rates use the post-dispersal fields of both
        # species, keeping the update symmetric and order-preserving.  A
        # spatially constant b1 or c2 stays a scalar and broadcasts.
        u_new = (_accel.logistic_step(u, a1 - c1 * v if live_v else a1, b1,
                                      self.dt) if live_u else u)
        v_new = (_accel.logistic_step(v, a2 - b2 * u if live_u else a2, c2,
                                      self.dt) if live_v else v)
        return u_new, v_new

    def period_steps(self, u: np.ndarray, v: np.ndarray, k0: int = 0):
        """Yield (u, v) after each step of one period from lattice index k0,
        passing each step its own index.  The state ending it, at
        time_at(k0 + spp), is checked for nonfinite values before it is
        yielded; neither substep turns a nonfinite value finite, so the
        check covers the whole period."""
        for k in range(k0, k0 + self.spp):
            u, v = self.step_arrays(u, v, k)
            if k + 1 == k0 + self.spp:
                _guard_finite(u, v, self.time_at(k + 1), self.grid,
                              self.offset)
            yield u, v

    def run_period(self, u: np.ndarray, v: np.ndarray,
                   k0: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """(u, v) one whole period after lattice index k0: the period map,
        of one trajectory or of a (K, n) batch."""
        for u, v in self.period_steps(u, v, k0):
            pass
        return u, v


def _guard_finite(u: np.ndarray, v: np.ndarray, t: float, grid: Grid,
                  offset: int = 0) -> None:
    """NumericalGuardError naming the first nonfinite grid point of u, else
    of v, and its row when the fields are a (K, n) batch.  The fields
    start at grid index ``offset``; the error names the grid's own index
    and x."""
    finite_u = np.isfinite(u)
    if finite_u.all() and np.isfinite(v).all():
        return
    bad = ~finite_u if not finite_u.all() else ~np.isfinite(v)
    *row, j = np.argwhere(bad)[0].tolist()
    j += offset
    at = f"row {row[0]}, " if row else ""
    raise NumericalGuardError(
        f"nonfinite value at t={t:.6g}, {at}x={grid.x[j]:.6g} (index {j})")


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
        delta = max(float(np.max(np.abs(a - b))) for a, b in zip(new, fields))
        fields = new
        if delta < tol:
            return fields, p, delta
    return fields, max_periods, delta


# ---------------------------------------------------------------------------
# front observer and the record collector
# ---------------------------------------------------------------------------

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


@dataclass(frozen=True)
class FrontObserver:
    """Samples, at each period end, the front position of one profile of
    the state: the rightmost crossing of ``level`` by ``profile(state)``.
    With a ``margin``, a front that comes within it of the right boundary
    raises NumericalGuardError; None means no guard."""

    name: str
    grid: Grid
    level: float
    profile: Callable[[SystemState], np.ndarray]
    margin: Optional[float] = None

    def sample(self, state: SystemState) -> float:
        pos = front_position(self.profile(state), self.grid, self.level)
        if self.margin is not None and np.isfinite(pos) \
                and pos > self.grid.x_max - self.margin:
            raise NumericalGuardError(
                f"{self.name} reached the boundary margin at "
                f"t={state.t:.6g}",
                diagnostics={"observer": self.name, "t": state.t,
                             "position": pos,
                             "clearance": self.grid.x_max - pos,
                             "margin": self.margin})
        return pos


@dataclass
class RunRecords:
    """Period-end times and each observer's front positions.  ``window``
    is the slice of the grid the last period stepped: the whole grid
    unless the run followed its fronts (see :func:`_record_periods`)."""

    times: np.ndarray
    series: dict[str, np.ndarray]
    window: slice


# A front run steps a window of the grid that follows the front, from
# WINDOW_BEHIND length units behind the furthest observed front position
# to WINDOW_AHEAD ahead of it.  While the window can still move, each
# observer's profile at its right edge must stay below WINDOW_PRECURSOR
# times the observer's level.
WINDOW_BEHIND = 30.0
WINDOW_AHEAD = 80.0
WINDOW_PRECURSOR = 1e-10


def _window_points(grid: Grid, state: SystemState,
                   observers: Sequence[FrontObserver]) -> int:
    """Points of the window a run steps: WINDOW_BEHIND + WINDOW_AHEAD
    length units, or the whole grid when no observer has a front to follow,
    when the grid is no wider, or when the carried state is not
    identically zero right of the first window.  So every cell that enters
    the window carries the uninvaded far field: no invader, and the
    competitor at its state at the start, which is the resident at the
    period-start phase in a transformed run."""
    points = min(grid.n, round((WINDOW_BEHIND + WINDOW_AHEAD) / grid.h) + 1)
    if not observers or state.u[..., points:].any() \
            or state.v[..., points:].any():
        return grid.n
    return points


def _check_window(observers: Sequence[FrontObserver], state: SystemState,
                  window: slice, grid: Grid) -> None:
    """The guards of a window just stepped, at a period end:
    NumericalGuardError when an observer's profile at the right edge
    reaches WINDOW_PRECURSOR of its level while the window has grid left to
    move into, or lies below its level at the left edge while stale cells
    lie behind it, where its sample could then have found the front."""
    lo, hi = window.start, window.stop - 1
    x = grid.x
    for obs in observers:
        values = obs.profile(state)
        for edge, j, fails in (
                ("left", lo, lo > 0 and not values[lo] >= obs.level),
                ("right", hi, hi < grid.n - 1
                 and not values[hi] < WINDOW_PRECURSOR * obs.level)):
            if fails:
                ratio = values[j] / obs.level
                raise NumericalGuardError(
                    f"{obs.name} stands at {ratio:.3g} times its level at "
                    f"the {edge} edge of the window [{x[lo]:.6g}, "
                    f"{x[hi]:.6g}] at t={state.t:.6g}",
                    diagnostics={"observer": obs.name, "t": state.t,
                                 "edge": edge, "edge_x": x[j],
                                 "edge_to_level": ratio,
                                 "precursor_limit": WINDOW_PRECURSOR,
                                 "window": [x[lo], x[hi]]})


def _record_periods(stepper: Stepper, state: SystemState, n_periods: int,
                    observers: Sequence[FrontObserver],
                    frame: Optional[np.ndarray] = None
                    ) -> tuple[SystemState, RunRecords]:
    """Advance n whole periods with :meth:`Stepper.run_period` from the
    lattice index of state.t, the one time put on the lattice
    (PreconditionError when it lies more than 1e-9 off it).  At each
    period end the observers sample the state.  With ``frame``, the
    resident at the phase of state.t and so of every period end, the state
    carries the cooperative transform (u, frame - v) of the stepped fields.

    The full-length stepped fields are the state, and a period steps the
    window of :func:`_window_points` of them, written back at its end.
    After the observers sample a period end and the window guards pass
    (:func:`_check_window`), the window moves forward only, by whole cells,
    to put the furthest finite front position WINDOW_BEHIND inside its
    left edge, and stops at the grid's right end.  Cells the window has
    left keep the values they had then; only ``records.window`` and the
    cells right of it hold the run's state.  The whole grid is the widest
    window: it steps every cell with the stepper's own factor and bumps,
    both its edges are the grid's, so neither guard can fire, and it never
    moves."""
    grid = stepper.grid
    times: list[float] = []
    series: dict[str, list[float]] = {obs.name: [] for obs in observers}
    k = stepper.step_index(state.t)
    u = np.array(state.u, dtype=float)
    v = np.array(state.v, dtype=float) if frame is None else frame - state.v
    points = _window_points(grid, state, observers)
    win = stepper.window(points)
    window = slice(0, grid.n)
    for _ in range(n_periods):
        window = slice(win.offset, win.offset + points)
        u[..., window], v[..., window] = win.run_period(
            u[..., window], v[..., window], k)
        k += stepper.spp
        state = SystemState(stepper.time_at(k), u,
                            v if frame is None else frame - v)
        times.append(state.t)
        positions = [obs.sample(state) for obs in observers]
        for obs, pos in zip(observers, positions):
            series[obs.name].append(pos)
        _check_window(observers, state, window, grid)
        ahead = [pos for pos in positions if np.isfinite(pos)]
        if ahead:
            target = (max(ahead) - WINDOW_BEHIND - grid.x_min) // grid.h
            win.slide(min(max(win.offset, int(target)), grid.n - points))
    records = RunRecords(np.asarray(times),
                         {name: np.asarray(vals)
                          for name, vals in series.items()}, window)
    return state, records


def run_periods(state: SystemState, problem: Problem, scheme: SchemeConfig,
                n_periods: int, observers: Sequence[FrontObserver] = ()
                ) -> tuple[SystemState, RunRecords]:
    """Advance n whole periods, sampling the observers once per period."""
    return _record_periods(Stepper(problem, scheme), state, n_periods,
                           observers)


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
                    kernel: Optional[Kernel] = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Front-like initial data in transformed variables: both components sit
    at a positive plateau left of x0 and vanish identically right of
    x0 + ramp.  The second-component level is half the resident orbit,
    strictly below it as the front class requires."""
    margin = boundary_margin(grid, kernel)
    if not (grid.x_min + margin <= x0 and x0 + ramp <= grid.x_max - margin):
        raise PreconditionError("front interface violates the domain margins")
    prof = ramp_profile(grid.x, x0, ramp)
    v_level = 0.5 * float(v_orbit.value(0.0))
    return u_level * prof, v_level * prof


def run_transformed(state: SystemState, problem: Problem, scheme: SchemeConfig,
                    vstar_frames: np.ndarray, n_periods: int,
                    observers: Sequence[FrontObserver] = ()
                    ) -> tuple[SystemState, RunRecords]:
    """Evolve the cooperative transform: the state carries (u, vt) with
    vt = vstar - v.  The original system is stepped, and vt is formed only
    at the start and at period ends, from the resident's per-step frames
    (shape (spp, n) or (spp + 1, n)) at that phase.  Componentwise ordering
    of transformed trajectories and the box 0 <= vt <= vstar are preserved."""
    stepper = Stepper(problem, scheme)
    spp = stepper.spp
    if vstar_frames.ndim != 2 or vstar_frames.shape[0] not in (spp, spp + 1) \
            or vstar_frames.shape[1] != problem.grid.n:
        raise PreconditionError(
            "resident frames must have shape (steps_per_period[+1], n)")
    frame = vstar_frames[stepper.step_index(state.t) % spp]
    if np.any(state.v < -1e-12) or np.any(state.v > frame + 1e-9):
        raise PreconditionError("transformed component must satisfy 0 <= vt <= vstar")
    return _record_periods(stepper, state, n_periods, observers, frame)
