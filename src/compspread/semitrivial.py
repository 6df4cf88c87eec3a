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

from .coefficients import SPECIES_ROLES, CoefficientSet, SpatialBump
from .dispersal import MAX_SIZE, Grid, Kernel
from .errors import (ConfigError, ConvergenceError, NumericalGuardError,
                     PreconditionError)
from .periodic_orbits import InvasionRate, PeriodicOrbit, resident_orbit
from .simulator import Problem, SchemeConfig, Stepper, fixed_point, make_scheme
from .spectrum import (LinearProblem, SpectrumResult, principal_spectrum_point,
                       principal_spectrum_point_widened, radius_threshold_test)

# Period budget of the resident fixed point, how far its tail may miss
# the homogeneous orbit, and the least distance of the tail from the bumps'
# support.
RESIDENT_MAX_PERIODS = 5000
TAIL_TOL = 1e-4
TAIL_MARGIN = 10.0
# Bump amplitudes destabilizing_bump scans, smallest first.
BUMP_AMPLITUDES = np.round(np.arange(0.05, 1.0001, 0.05), 10)


@dataclass
class PeriodicField:
    """One period of a spatial field sampled at every scheme step
    (frames[k] is the field at phase k*dt; frames[spp] closes the period
    within ``residual``), and the homogeneous orbit it relaxes to far
    from every bump."""

    period: float
    dt: float
    grid: Grid
    frames: np.ndarray
    residual: float
    homogeneous_orbit: PeriodicOrbit

    @property
    def steps_per_period(self) -> int:
        return self.frames.shape[0] - 1


def compute_semitrivial(species: str, problem: Problem,
                        scheme: Optional[SchemeConfig] = None,
                        tol: float = 1e-8,
                        seed_scale: float = 1.0) -> PeriodicField:
    """Attracting periodic state of one species alone, found by long-run
    integration from the homogeneous orbit level until the period map is
    stationary.  The absent competitor is an identically zero field, which
    :meth:`Stepper.step_arrays` passes through without dispersing or
    reacting it.  Spatially homogeneous coefficients take a scalar fast
    path; the stored frames always use the scheme's step lattice.  The
    tail, from halfway between the bumps' support and the nearer domain
    end outward, but at least TAIL_MARGIN beyond the support, must meet
    the homogeneous orbit within TAIL_TOL; a miss blames the time step if
    the run without bumps misses it too, else the domain."""
    if species not in SPECIES_ROLES:
        raise PreconditionError("species must be 'u' or 'v'")
    if scheme is None:
        scheme = make_scheme(problem)
    a_field, b_field, _ = problem.coefficients.roles(species)
    orbit = resident_orbit(problem.coefficients, species)
    homogeneous = a_field.bump is None and b_field.bump is None
    if homogeneous:
        # Both dispersal operators act as the identity on constants, so the
        # whole computation collapses to a scalar recursion on a tiny grid.
        work = Problem(problem.coefficients,
                       Grid(0.0, 2.0 * problem.grid.h, 3), problem.kernel)
    else:
        work = problem
    stepper = Stepper(work, scheme)
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

    frames = np.array([w, *(pair[slot]
                            for pair in stepper.period_steps(*with_absent(w)))])
    if homogeneous:
        frames = np.repeat(frames[:, :1], problem.grid.n, axis=1)
    residual = float(np.max(np.abs(frames[-1] - frames[0])))

    # The tail starts halfway from the support to the nearer domain end,
    # and never closer to the support than TAIL_MARGIN, so it recedes from
    # the bumps as the domain grows.
    support = max(a_field.support_radius, b_field.support_radius)
    grid = problem.grid
    x = grid.x
    start = max(support + TAIL_MARGIN,
                0.5 * (support + min(-grid.x_min, grid.x_max)))
    tail = np.abs(x) >= start
    if not tail.any():
        raise NumericalGuardError("domain too small for the tail check")
    t_frames = np.arange(stepper.spp + 1) * stepper.dt
    tail_err = float(np.max(np.abs(frames[:, tail] - orbit.value(t_frames)[:, None])))
    if tail_err > TAIL_TOL:
        if not homogeneous:  # raises if the scheme misses even without bumps
            compute_semitrivial(species, Problem(
                problem.coefficients.baselines(), problem.grid, problem.kernel),
                scheme, tol, seed_scale)
        cause = (f"time step too large: dt={stepper.dt:.4g}" if homogeneous
                 else "domain too small")
        raise NumericalGuardError(
            f"resident tail misses the homogeneous orbit by {tail_err:.2e} "
            f"({cause})")
    return PeriodicField(problem.coefficients.period, stepper.dt,
                         problem.grid, frames, residual, orbit)


@dataclass(frozen=True)
class StabilityVerdict:
    """Scalar invasion exponent at a resident state, inside its
    Collatz-Wielandt bracket [lam_lo, lam_hi].  The bracket decides the
    verdict: unstable when it lies above 0, inconclusive when it contains
    0, so never both."""

    lam: float
    lam_lo: float
    lam_hi: float
    spectrum: SpectrumResult

    @property
    def unstable(self) -> bool:
        return self.lam_lo > 0.0

    @property
    def inconclusive(self) -> bool:
        return self.lam_lo <= 0.0 <= self.lam_hi


def linearized_radius(target: str, problem: Problem,
                      resident: PeriodicField,
                      scheme: Optional[SchemeConfig] = None,
                      tol: float = 1e-6) -> StabilityVerdict:
    """Growth exponent of the invader linearized at the resident state
    (target 'u' = state with only species u present), the principal
    spectrum point of the scalar period map.  The resident state enters the
    coefficient pointwise; separable cases reduce to baseline-plus-bump
    problems.  A spatially varying resident gives a per-step coefficient
    table; a stationary one (time-constant coefficients) makes it separable
    up to rounding, and :func:`principal_spectrum_point` then solves it from
    one step, with the bracket widened by the table's distance from
    separable (``spectrum.widening``).  ``scheme`` is not used: the linear
    period map runs on the resident's step lattice or chooses its own."""
    if target not in SPECIES_ROLES:
        raise PreconditionError("target must be 'u' or 'v'")
    cs = problem.coefficients
    invader = "v" if target == "u" else "u"
    growth, _, suppress = cs.roles(invader)
    period = cs.period
    resident_homog = float(
        np.max(np.abs(resident.frames - resident.frames[:, :1]))) < 1e-9

    if resident_homog and suppress.bump is None:
        base = InvasionRate(cs, invader, resident.homogeneous_orbit)
        p = LinearProblem(0.0, problem.kind, problem.grid, period,
                          baseline=base, bump=growth.bump,
                          kernel=problem.kernel)
        if growth.bump is not None:
            res = principal_spectrum_point_widened(p, tol)
        else:
            res = principal_spectrum_point(p, tol)
    else:
        spp = resident.steps_per_period
        x = problem.grid.x
        t_mid = ((np.arange(spp) + 0.5) * resident.dt)[:, None]
        w_mid = 0.5 * (resident.frames[:-1] + resident.frames[1:])
        table = growth.value(t_mid, x) - suppress.value(t_mid, x) * w_mid
        p = LinearProblem(0.0, problem.kind, problem.grid, period,
                          coef_table=table, kernel=problem.kernel,
                          steps_per_period=spp)
        res = principal_spectrum_point(p, tol)

    return StabilityVerdict(res.lam, res.lam_lo, res.lam_hi, res)


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
    # The widest search grid has 2*ceil((width/2 + pad)/h) + 1 points.
    if not (max(widths) / 2.0 + pad) / h < MAX_SIZE // 2:
        raise ConfigError(f"widths {list(widths)!r}, pad {pad!r} and h {h!r} "
                          f"ask for a search grid of more than {MAX_SIZE} "
                          "points")
    if cs.max_support_radius() > 0.0:
        raise PreconditionError(
            "the base coefficient set must be spatially homogeneous")
    base = InvasionRate(cs, "v", resident_orbit(cs, "u"))
    mean_resid = base.mean()
    if mean_resid >= 0.0:
        raise PreconditionError(
            "homogeneous resident is already unstable "
            f"(mean invasion exponent {mean_resid:.3e} >= 0)")
    threshold = -mean_resid
    kind = "random" if kernel_spec is None else "nonlocal"
    # One search grid (and kernel) per width, shared by every amplitude.
    domains = []
    for width in widths:
        m = int(np.ceil((width / 2.0 + pad) / h))
        grid = Grid(-m * h, m * h, 2 * m + 1)
        domains.append((width, grid, None if kernel_spec is None else
                        Kernel.build(kernel_spec[0], kernel_spec[1], grid.h)))

    scanned = []
    for amp in BUMP_AMPLITUDES:
        for width, grid, kernel in domains:
            bump = SpatialBump.square(float(amp), float(width))
            p = LinearProblem(0.0, kind, grid, cs.period, baseline=0.0,
                              bump=bump, kernel=kernel)
            verdict = radius_threshold_test(p, threshold)
            scanned.append((float(amp), float(width), verdict))
            if verdict == "below":
                continue
            res = principal_spectrum_point_widened(p)
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
