"""Seeded inputs of the three benchmark workloads.

A workload is a list of operations.  Every operation is a plain dict, so the
parent process and the worker build the same list from the same seed:

``name``     unique within the workload;
``call``     ``"cli"`` (``argv`` for ``compspread.cli.main``, plus a generated
             ``config`` for ``--config`` runs), ``"spectrum"`` (a
             ``principal_spectrum_point`` call on ``problem`` with ``tol``)
             or ``"invasion"`` (``linearized_radius`` of u at the v-resident
             of ``config``, with ``tol``);
``check``    the name of the check in ``checks.py`` that judges the answer;
``preset``   true for shipped presets, whose output files are hashed;
``fault``    ``None``, or the known program fault that makes this operation
             fail on every run.  Such operations take no seeded input, so
             the failed share of a run never depends on the seed.

Seeded ranges are chosen so that no operation other than the two named
faults fails, and so that the work an operation does (periods iterated,
grid size) moves little from seed to seed; see README.md.
"""

from __future__ import annotations

import copy
import math

import numpy as np

WORKLOADS = ("fronts", "spectra", "residents")

# Coefficient sets of the shipped presets: the canonical set, in which u
# invades the v-resident (c0* = 2*sqrt(0.8) for random dispersal), and the
# weak-competition set with interior equilibrium (2/3, 2/3).
CANONICAL = {"period": 1.0,
             "a1": {"constant": 1.0}, "b1": {"constant": 1.0},
             "c1": {"constant": 0.5}, "a2": {"constant": 0.4},
             "b2": {"constant": 0.5}, "c2": {"constant": 1.0}}
WEAK = {"period": 1.0,
        "a1": {"constant": 1.0}, "b1": {"constant": 1.0},
        "c1": {"constant": 0.5}, "a2": {"constant": 1.0},
        "b2": {"constant": 0.5}, "c2": {"constant": 1.0}}

UNIFORM_KERNEL = {"shape": "uniform", "radius": 1.0}

NONLOCAL_INTERVAL_FAULT = {
    "text": "nonlocal speed_interval fails after all 100 periods with "
            "'fit window is empty after the discard rule'",
    "mended_by": "ROADMAP item 5 (clearance and fit-window defaults that "
                 "scale with c0*)"}
STOPPING_RULE_FAULT = {
    "text": "principal_spectrum_point stops on a stable ratio, not on an "
            "error bound, and returns an exponent more than 1e-5 off",
    "mended_by": "ROADMAP item 4 (stop on the Collatz-Wielandt bracket)"}


def _interval_config(a1: dict, kernel: dict | None = None) -> dict:
    """The canonical-h1h2 interval run with a replaced a1 field."""
    coeffs = copy.deepcopy(CANONICAL)
    coeffs["a1"] = a1
    raw = {"coefficients": coeffs,
           "grid": {"x_min": -40.0, "x_max": 260.0, "n": 3001},
           "scheme": {"steps_per_period": 200},
           "scenario": {"name": "interval", "periods": 100, "x0": -20.0,
                        "ramp": 2.0},
           "output": {"formats": ["csv", "json"]},
           "seed": 0}
    if kernel is not None:
        raw["kernel"] = dict(kernel)
    return raw


def _canonical_kernel_config(scenario: dict, grid: tuple) -> dict:
    """The canonical set under the uniform kernel, for the dispersion
    subcommands (spectrum, speed)."""
    return {"coefficients": copy.deepcopy(CANONICAL),
            "grid": {"x_min": grid[0], "x_max": grid[1], "n": grid[2]},
            "kernel": dict(UNIFORM_KERNEL), "scenario": scenario,
            "output": {"formats": ["csv", "json"]}, "seed": 0}


def _fronts(rng: np.random.Generator) -> list[dict]:
    a1 = {"harmonic": {"mean": 1.0,
                       "amplitude": float(rng.uniform(0.0, 0.2)),
                       "phase": float(rng.uniform(0.0, 2.0 * math.pi))},
          "bump": {"amplitude": float(rng.uniform(-0.2, 0.3)),
                   "width": float(rng.uniform(2.0, 6.0)), "ramp": 0.5}}
    # The failing nonlocal run takes fixed inputs: a mid-range harmonic
    # baseline and boost, so its failure never depends on the seed.
    a1_fixed = {"harmonic": {"mean": 1.0, "amplitude": 0.1, "phase": 0.0},
                "bump": {"amplitude": 0.3, "width": 4.0, "ramp": 0.5}}
    return [
        {"name": "kpp_control", "call": "cli", "preset": True,
         "argv": ["simulate", "--preset", "kpp-control"],
         "check": "kpp", "fault": None},
        {"name": "interval_random", "call": "cli", "preset": False,
         "argv": ["sweep"], "config": _interval_config(a1),
         "check": "interval", "fault": None},
        {"name": "interval_nonlocal", "call": "cli", "preset": False,
         "argv": ["sweep"],
         "config": _interval_config(a1_fixed, UNIFORM_KERNEL),
         "check": "interval", "fault": NONLOCAL_INTERVAL_FAULT},
        # The tilted exponents lambda(mu) behind the nonlocal front's c0*,
        # on a grid fine enough (h = 0.01) for the kernel quadrature to stay
        # well below the 1e-5 exponent tolerance up to mu = 0.5.
        {"name": "dispersion_kernel", "call": "cli", "preset": False,
         "argv": ["spectrum"],
         "config": _canonical_kernel_config(
             {"name": "spectrum", "bracket": [0.1, 0.5], "mu_points": 41},
             FINE_KERNEL_GRID),
         "check": "dispersion", "fault": None},
    ]


def _harmonic(rng: np.random.Generator) -> dict:
    return {"mean": float(rng.uniform(-0.2, 0.2)),
            "amplitude": float(rng.uniform(0.0, 0.3)),
            "phase": float(rng.uniform(0.0, 2.0 * math.pi))}


# Grids of the spectrum problems: ~512 points at h = 0.1 for random
# dispersal, 401 points at h = 0.1 for the uniform kernel, and 401 points at
# h = 0.01 for tilted nonlocal problems, where the trapezoid moment of the
# kernel must match sinh(mu)/mu to well below 1e-5.
RANDOM_GRID = (-25.55, 25.55, 512)
KERNEL_GRID = (-20.0, 20.0, 401)
FINE_KERNEL_GRID = (-2.0, 2.0, 401)
# 256 steps per period is the program's own choice for these grids
# (MIN_STEPS_PER_PERIOD), passed explicitly so the dense reference and the
# program step the same lattice.
STEPS = 256
# The default tolerance leaves errors near 1e-5 (ROADMAP item 4), which
# the fixed roadmap4 operation shows; seeded problems use a tighter one so
# that no seed fails.
SEEDED_TOL = 1e-8


def _spectrum_op(name: str, problem: dict, tol: float | None,
                 check: str, fault: dict | None = None) -> dict:
    return {"name": name, "call": "spectrum", "preset": False,
            "problem": problem, "tol": tol, "check": check, "fault": fault}


def _spectra(rng: np.random.Generator) -> list[dict]:
    # Bump ranges where the power iteration needs 35-50 periods at
    # SEEDED_TOL for every seed: weaker random-dispersal bumps, and wider
    # kernel bumps, need up to 160 (README.md, "Seeds and ranges").
    ops = [{"name": "destabilize", "call": "cli", "preset": True,
            "argv": ["destabilize", "--preset", "remark31-destabilize"],
            "check": "destabilize", "fault": None}]
    for i in range(3):
        ops.append(_spectrum_op(f"bump_random_{i}", {
            "mu": 0.0, "kind": "random", "grid": RANDOM_GRID,
            "baseline": _harmonic(rng),
            "bump": {"amplitude": float(rng.uniform(0.5, 0.6)),
                     "plateau": float(rng.uniform(2.0, 3.0)),
                     "ramp": float(rng.uniform(0.0, 1.0))},
            "kernel_radius": None, "steps": STEPS}, SEEDED_TOL,
            "exponent_dense"))
    for i in range(2):
        ops.append(_spectrum_op(f"bump_kernel_{i}", {
            "mu": 0.0, "kind": "nonlocal", "grid": KERNEL_GRID,
            "baseline": _harmonic(rng),
            "bump": {"amplitude": float(rng.uniform(0.5, 0.6)),
                     "plateau": float(rng.uniform(1.0, 2.0)),
                     "ramp": float(rng.uniform(0.0, 1.0))},
            "kernel_radius": 1.0, "steps": STEPS}, SEEDED_TOL,
            "exponent_dense"))
    for i in range(2):
        ops.append(_spectrum_op(f"tilted_random_{i}", {
            "mu": float(rng.uniform(0.2, 1.0)), "kind": "random",
            "grid": RANDOM_GRID, "baseline": _harmonic(rng), "bump": None,
            "kernel_radius": None, "steps": STEPS}, None,
            "exponent_tilted"))
        ops.append(_spectrum_op(f"tilted_kernel_{i}", {
            "mu": float(rng.uniform(0.2, 0.5)), "kind": "nonlocal",
            "grid": FINE_KERNEL_GRID, "baseline": _harmonic(rng),
            "bump": None, "kernel_radius": 1.0, "steps": STEPS}, None,
            "exponent_tilted"))
    # ROADMAP item 4's problem, with the default tolerance; fixed inputs.
    ops.append(_spectrum_op("roadmap4_square_bump", {
        "mu": 0.0, "kind": "random", "grid": RANDOM_GRID,
        "baseline": {"mean": 0.0, "amplitude": 0.0, "phase": 0.0},
        "bump": {"amplitude": 0.3, "plateau": 1.0, "ramp": 0.0},
        "kernel_radius": None, "steps": STEPS}, None, "exponent_dense",
        STOPPING_RULE_FAULT))
    # The nonlocal c0* from the dispersion relation at h = 0.1.
    ops.append({"name": "speed_kernel", "call": "cli", "preset": False,
                "argv": ["speed"],
                "config": _canonical_kernel_config({"name": "speed"},
                                                   KERNEL_GRID),
                "check": "speed", "fault": None})
    return ops


RESIDENTS_GRID = (-30.0, 30.0, 301)
FIXED_RESIDENT_BUMP = {"amplitude": 0.3, "width": 4.0, "ramp": 0.5}


def _residents_config(bump: dict, scenario: dict, kernel: dict | None = None,
                      seed: int = 0) -> dict:
    """The weak set with a bump on a1, on the thm41-coexistence grid and
    scheme."""
    coeffs = copy.deepcopy(WEAK)
    coeffs["a1"] = {"constant": 1.0, "bump": dict(bump)}
    lo, hi, n = RESIDENTS_GRID
    raw = {"coefficients": coeffs,
           "grid": {"x_min": lo, "x_max": hi, "n": n},
           "scheme": {"steps_per_period": 32},
           "scenario": scenario,
           "output": {"formats": ["csv", "json"]},
           "seed": seed}
    if kernel is not None:
        raw["kernel"] = dict(kernel)
    return raw


def _residents(rng: np.random.Generator, seed: int) -> list[dict]:
    # One seeded bump for all three runs.  Below amplitude 0.25 or width 4
    # the invader's spectral gap at the v-resident closes and the power
    # iteration needs up to twice the periods, so the work of a round would
    # depend on the seed (README.md, "Seeds and ranges").
    bump = {"amplitude": float(rng.uniform(0.25, 0.3)),
            "width": float(rng.uniform(4.0, 6.0)), "ramp": 0.5}
    coexist = {"name": "coexist", "seed_eps": 0.01}
    return [
        {"name": "thm41_coexistence", "call": "cli", "preset": True,
         "argv": ["coexist", "--preset", "thm41-coexistence"],
         "check": "coexist_flat", "fault": None},
        {"name": "coexist_random", "call": "cli", "preset": False,
         "argv": ["coexist"], "config": _residents_config(bump, coexist),
         "check": "coexist_bumped", "fault": None},
        {"name": "coexist_kernel", "call": "cli", "preset": False,
         "argv": ["coexist"],
         "config": _residents_config(bump, coexist, UNIFORM_KERNEL),
         "check": "coexist_bumped", "fault": None},
        {"name": "persistence", "call": "cli", "preset": False,
         "argv": ["persistence"],
         "config": _residents_config(
             bump, {"name": "persistence", "trials": 5}, seed=seed),
         "check": "persistence", "fault": None},
        # Fixed inputs: the invader u's exponent at the v-resident with a
        # growth bump on a1 (the first stability test of every coexist run),
        # and the nonlocal c0* on the residents' grid (h = 0.2).
        {"name": "invasion_exponent", "call": "invasion", "preset": False,
         "config": _residents_config(FIXED_RESIDENT_BUMP, coexist),
         "tol": SEEDED_TOL, "check": "exponent_invasion", "fault": None},
        {"name": "speed_kernel", "call": "cli", "preset": False,
         "argv": ["speed"],
         "config": _canonical_kernel_config({"name": "speed"},
                                            RESIDENTS_GRID),
         "check": "speed", "fault": None},
    ]


def build(workload: str, seed: int) -> list[dict]:
    """The operations of one workload for one seed (any integer)."""
    seed %= 2 ** 63
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "fronts":
        return _fronts(rng)
    if workload == "spectra":
        return _spectra(rng)
    if workload == "residents":
        return _residents(rng, seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
