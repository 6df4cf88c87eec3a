"""Spatially varying single-resident periodic states and their linear
stability.

The resident state of each species is the globally attracting periodic
solution of its scalar equation with the competitor absent; far from the
localized coefficient variation it relaxes to the homogeneous periodic
orbit.  Stability verdicts use the decoupled scalar growth exponent of the
invading species, which bounds the full linearization radius from below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coefficients import CoefficientSet, SpatialBump
from .dispersal import Grid, Kernel
from .errors import ConvergenceError, NumericalGuardError, PreconditionError
from .periodic_orbits import PeriodicOrbit, logistic_orbit, periodic_mean
from .simulator import Problem, SchemeConfig, Stepper, fixed_point, make_scheme
from .spectrum import (LinearProblem, SpectrumResult, principal_spectrum_point,
                       principal_spectrum_point_widened, radius_threshold_test)

_SPECIES_COEFFS = {"u": ("a1", "b1"), "v": ("a2", "c2")}
# Period budget of the resident fixed point, and how far its tail may miss
# the homogeneous orbit.
RESIDENT_MAX_PERIODS = 5000
TAIL_TOL = 1e-4
# Bump amplitudes destabilizing_bump scans, smallest first.
BUMP_AMPLITUDES = np.round(np.arange(0.05, 1.0001, 0.05), 10)


@dataclass
class PeriodicField:
    """One period of a spatial field sampled at every scheme step
    (frames[k] is the field at phase k*dt; frames[spp] closes the period
    within ``residual``)."""

    period: float
    dt: float
    grid: Grid
    frames: np.ndarray
    residual: float
    homogeneous_orbit: Optional[PeriodicOrbit] = None

    @property
    def steps_per_period(self) -> int:
        return self.frames.shape[0] - 1

    def sup(self) -> float:
        return float(np.max(self.frames))

    def inf(self) -> float:
        return float(np.min(self.frames))

    def save_npz(self, path) -> None:
        np.savez_compressed(path, period=self.period, dt=self.dt,
                            x_min=self.grid.x_min, x_max=self.grid.x_max,
                            n=self.grid.n, frames=self.frames,
                            residual=self.residual)

    @staticmethod
    def load_npz(path) -> "PeriodicField":
        data = np.load(path)
        grid = Grid(float(data["x_min"]), float(data["x_max"]), int(data["n"]))
        return PeriodicField(float(data["period"]), float(data["dt"]), grid,
                             data["frames"], float(data["residual"]))

    def to_csv(self, path, every_steps: int = 1, every_points: int = 1) -> None:
        spp = self.steps_per_period
        with open(path, "w") as fh:
            fh.write("t,x,value\n")
            x = self.grid.x
            for k in range(0, spp + 1, every_steps):
                t = k * self.dt
                for j in range(0, self.grid.n, every_points):
                    fh.write(f"{t:.12g},{x[j]:.12g},{self.frames[k, j]:.12g}\n")


def _species_problem(problem: Problem, species: str) -> tuple:
    a_name, b_name = _SPECIES_COEFFS[species]
    cs = problem.coefficients
    return getattr(cs, a_name), getattr(cs, b_name)


def compute_semitrivial(species: str, problem: Problem,
                        scheme: Optional[SchemeConfig] = None,
                        tol: float = 1e-8,
                        tail_margin: float = 10.0,
                        seed_scale: float = 1.0) -> PeriodicField:
    """Attracting periodic state of one species alone, found by long-run
    integration from the homogeneous orbit level until the period map is
    stationary.  Spatially homogeneous coefficients take a scalar fast
    path; the stored frames always use the scheme's step lattice."""
    if species not in _SPECIES_COEFFS:
        raise PreconditionError("species must be 'u' or 'v'")
    if scheme is None:
        scheme = make_scheme(problem)
    a_field, b_field = _species_problem(problem, species)
    orbit = logistic_orbit(a_field.baseline, b_field.baseline)
    n = problem.grid.n
    homogeneous = a_field.bump is None and b_field.bump is None
    if homogeneous:
        # Both dispersal operators act as the identity on constants, so the
        # whole computation collapses to a scalar recursion on a tiny grid.
        work = Problem(problem.coefficients,
                       Grid(0.0, 2.0 * problem.grid.h, 3), problem.kernel)
    else:
        work = problem
    stepper = Stepper(work, scheme)
    spp = stepper.spp
    slot = 0 if species == "u" else 1
    absent = np.zeros(work.grid.n)  # step_arrays never mutates its inputs

    def with_absent(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (w, absent) if species == "u" else (absent, w)

    seed = np.full(work.grid.n, seed_scale * orbit.values[0])
    (w,), _, delta = fixed_point(
        lambda f: (stepper.run_period(*with_absent(f[0]))[slot],),
        (seed,), tol, RESIDENT_MAX_PERIODS)
    if delta >= tol:
        raise ConvergenceError(
            "resident state not periodic after "
            f"{RESIDENT_MAX_PERIODS} periods",
            diagnostics={"last_delta": delta})

    work_frames = np.empty((spp + 1, work.grid.n))
    work_frames[0] = w
    for k, pair in enumerate(stepper.period_steps(*with_absent(w))):
        work_frames[k + 1] = pair[slot]
    if homogeneous:
        frames = np.repeat(work_frames[:, :1], n, axis=1)
    else:
        frames = work_frames
    residual = float(np.max(np.abs(frames[-1] - frames[0])))

    support = max(a_field.support_radius, b_field.support_radius)
    x = problem.grid.x
    tail = np.abs(x) >= support + tail_margin
    if not tail.any():
        raise NumericalGuardError("domain too small for the tail check")
    t_frames = np.arange(spp + 1) * stepper.dt
    tail_err = float(np.max(np.abs(frames[:, tail] - orbit.value(t_frames)[:, None])))
    if tail_err > TAIL_TOL:
        raise NumericalGuardError(
            f"resident tail misses the homogeneous orbit by {tail_err:.2e} "
            "(domain too small)")
    return PeriodicField(problem.coefficients.period, stepper.dt,
                         problem.grid, frames, residual, orbit)


@dataclass(frozen=True)
class StabilityVerdict:
    """Scalar invasion exponent at a resident state, inside its
    Collatz-Wielandt bracket [lam_lo, lam_hi]; the verdict is inconclusive
    when the bracket contains 0."""

    lam: float
    lam_lo: float
    lam_hi: float
    radius: float
    unstable: bool
    inconclusive: bool
    spectrum: SpectrumResult


def _invasion_coefficient(problem: Problem, target: str):
    """Reaction coefficient pieces of the decoupled invading species:
    growth minus suppression by the resident."""
    cs = problem.coefficients
    if target == "u":
        growth, suppress = cs.a2, cs.b2
    else:
        growth, suppress = cs.a1, cs.c1
    return growth, suppress


def linearized_radius(target: str, problem: Problem,
                      resident: PeriodicField,
                      scheme: Optional[SchemeConfig] = None,
                      tol: float = 1e-6) -> StabilityVerdict:
    """Growth exponent of the invader linearized at the resident state
    (target 'u' = state with only species u present), the principal
    spectrum point of the scalar period map.  The resident state enters the
    coefficient pointwise; separable cases reduce to baseline-plus-bump
    problems.  ``scheme`` is not used: the linear period map runs on the
    resident's step lattice or chooses its own."""
    if target not in ("u", "v"):
        raise PreconditionError("target must be 'u' or 'v'")
    growth, suppress = _invasion_coefficient(problem, target)
    period = problem.coefficients.period
    orbit = resident.homogeneous_orbit
    resident_homog = orbit is not None and float(
        np.max(np.abs(resident.frames - resident.frames[:, :1]))) < 1e-9

    if resident_homog and suppress.bump is None:
        base = _CompositeBaseline(growth.baseline, suppress.baseline, orbit)
        p = LinearProblem(0.0, problem.kind, problem.grid, period,
                          baseline=base, bump=growth.bump,
                          kernel=problem.kernel)
        if growth.bump is not None:
            res, _ = principal_spectrum_point_widened(p, tol)
        else:
            res = principal_spectrum_point(p, tol)
    else:
        spp = resident.steps_per_period
        dt = resident.dt
        x = problem.grid.x
        table = np.empty((spp, problem.grid.n))
        for k in range(spp):
            t_mid = (k + 0.5) * dt
            w_mid = 0.5 * (resident.frames[k] + resident.frames[k + 1])
            table[k] = growth.value(t_mid, x) - suppress.value(t_mid, x) * w_mid
        p = LinearProblem(0.0, problem.kind, problem.grid, period,
                          coef_table=table, kernel=problem.kernel,
                          steps_per_period=spp)
        res = principal_spectrum_point(p, tol)

    radius = float(np.exp(res.lam * period))
    return StabilityVerdict(res.lam, res.lam_lo, res.lam_hi, radius,
                            radius > 1.0, res.lam_lo <= 0.0 <= res.lam_hi,
                            res)


class _CompositeBaseline:
    """growth(t) - suppress(t) * orbit(t), callable on scalars and arrays."""

    def __init__(self, growth, suppress, orbit: PeriodicOrbit):
        self.growth = growth
        self.suppress = suppress
        self.orbit = orbit

    def __call__(self, t):
        return self.growth(t) - self.suppress(t) * self.orbit.value(t)


@dataclass
class DestabilizationResult:
    bump: SpatialBump
    lam_bump: float
    lam_total: float
    threshold: float
    scanned: list


def destabilizing_bump(cs: CoefficientSet,
                       kernel_spec: Optional[tuple[str, float]] = None,
                       widths: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0),
                       h: float = 0.1, pad: float = 25.0
                       ) -> DestabilizationResult:
    """Find the smallest-amplitude compact growth bump on the v-species that
    flips the stable homogeneous resident (u alone) to linearly unstable.
    The search uses nonlocal dispersal with the kernel (shape, radius) when
    kernel_spec is given, random dispersal otherwise.

    Requires the homogeneous invasion exponent mean(a2 - b2*u_orbit) to be
    negative; the bump must contribute a growth exponent exceeding its
    magnitude.  Candidates are screened with the positive-operator ratio
    sandwich before a full principal-spectrum-point confirmation.
    """
    if cs.max_support_radius() > 0.0:
        raise PreconditionError(
            "the base coefficient set must be spatially homogeneous")
    u_orbit = logistic_orbit(cs.a1.baseline, cs.b1.baseline)
    base = _CompositeBaseline(cs.a2.baseline, cs.b2.baseline, u_orbit)
    mean_resid = periodic_mean(base, cs.period)
    if mean_resid >= 0.0:
        raise PreconditionError(
            "homogeneous resident is already unstable "
            f"(mean invasion exponent {mean_resid:.3e} >= 0)")
    threshold = -mean_resid
    kind = "random" if kernel_spec is None else "nonlocal"

    scanned = []
    for amp in BUMP_AMPLITUDES:
        for width in widths:
            bump = SpatialBump.square(float(amp), float(width))
            span = width / 2.0 + pad
            m = int(np.ceil(span / h))
            grid = Grid(-m * h, m * h, 2 * m + 1)
            kernel = (None if kernel_spec is None
                      else Kernel.build(kernel_spec[0], kernel_spec[1], grid.h))
            p = LinearProblem(0.0, kind, grid, cs.period, baseline=0.0,
                              bump=bump, kernel=kernel)
            verdict = radius_threshold_test(p, threshold)
            scanned.append((float(amp), float(width), verdict))
            if verdict == "below":
                continue
            res, _ = principal_spectrum_point_widened(p)
            if res.lam <= threshold:
                scanned[-1] = (float(amp), float(width), "confirmed-below")
                continue
            # The baseline is constant in space, so each half-step factor
            # exp(dt/2*base) is a scalar that commutes with dispersal: the
            # exponent with it is lam_bump plus the mean of base over the
            # step midpoints, exact up to rounding.
            spp = p.resolved_steps()
            lam_total = res.lam + float(np.mean(
                base((np.arange(spp) + 0.5) * cs.period / spp)))
            if lam_total <= 0.0:
                scanned[-1] = (float(amp), float(width), "total-below")
                continue
            return DestabilizationResult(bump, res.lam, lam_total, threshold,
                                         scanned)
    raise ConvergenceError("no bump in the family destabilizes the resident",
                           diagnostics={"scanned": scanned})
