"""Time the hot kernels and one split step at the grid sizes the package
uses.

Run as ``python -m compspread.bench``.  Each case is timed best-of-5 over
``repeats`` calls: the exact logistic reaction step, one Crank-Nicolson
substep as the simulator takes it (explicit half plus the prefactored
tridiagonal solve) and the kernel correlation (:func:`run`), then one
``Stepper.step_arrays`` call for random and for nonlocal dispersal
(:func:`run_steps`), then one linear period map behind a principal
spectrum point (:func:`run_linear_periods`).  End-to-end and per-layer
timings of whole workloads come from ``perfbench/run.py``.
"""

from __future__ import annotations

import time

import numpy as np

from . import _accel
from .coefficients import (CoefficientField, PeriodicScalar, SpatialBump,
                           constant_set)
from .dispersal import Grid, Kernel
from .simulator import Problem, Stepper, make_scheme
from .spectrum import LinearProblem, _LinearStepper

SIZES = (301, 3001, 4001)


def _time(fn, *args, repeats: int = 200) -> float:
    fn(*args)  # warm-up
    best = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(repeats):
            fn(*args)
        best = min(best, (time.perf_counter() - t0) / repeats)
    return best


def run(sizes=SIZES, kernel_taps: int = 201,
        repeats: int = 200) -> list[dict]:
    """One row per kernel and grid size: {"kernel", "n", "us"}."""
    rng = np.random.default_rng(0)
    w = rng.uniform(0.0, 1.0, kernel_taps)
    w /= w.sum()
    dt = 0.005
    r = 0.25
    rows = []
    for n in sizes:
        u = rng.uniform(0.1, 1.0, n)
        rate = rng.uniform(-0.5, 1.0, n)
        lim = rng.uniform(0.5, 1.5, n)
        factor = _accel.TridiagFactor(n, r)
        cases = [
            ("logistic reaction step", _accel.logistic_step,
             (u, rate, lim, dt)),
            ("Crank-Nicolson substep",
             lambda v: factor.solve(_accel.cn_explicit_half(v, r)), (u,)),
            ("kernel correlation", _accel.correlate_ext, (u, w)),
        ]
        for name, fn, args in cases:
            rows.append({"kernel": name, "n": n,
                         "us": _time(fn, *args, repeats=repeats) * 1e6})
    return rows


def run_steps(sizes=SIZES, h: float = 0.1, repeats: int = 200) -> list[dict]:
    """One row per dispersal kind and grid size: {"kernel", "n", "us"} for
    one split step of a system with a harmonic baseline and a bump, on a
    grid of spacing ``h`` with the default scheme."""
    cs = constant_set(1.0, 1.0, 0.5, 0.4, 0.5, 1.0).replace_field(
        "a1", CoefficientField(PeriodicScalar.harmonic(1.0, 0.1),
                               SpatialBump(-0.2, 2.0, 0.5)))
    rng = np.random.default_rng(0)
    rows = []
    for n in sizes:
        grid = Grid(-10.0, -10.0 + h * (n - 1), n)
        u = rng.uniform(0.1, 1.0, n)
        v = rng.uniform(0.1, 0.4, n)
        for kind, kernel in (("random", None),
                             ("nonlocal", Kernel.build("uniform", 1.0, h))):
            problem = Problem(cs, grid, kernel)
            stepper = Stepper(problem, make_scheme(problem))
            rows.append({"kernel": f"split step ({kind})", "n": n,
                         "us": _time(stepper.step_arrays, u, v, stepper.dt,
                                     repeats=repeats) * 1e6})
    return rows


def run_linear_periods(sizes=(("random", 512), ("nonlocal", 401)),
                       repeats: int = 20) -> list[dict]:
    """One row per (dispersal kind, grid size): {"kernel", "n", "us"} for
    one ``_LinearStepper.run_period`` call of a unit-period problem with a
    square bump, at the default steps per period.  The linear map's
    Crank-Nicolson substep (``TridiagFactor.crank_nicolson``) is timed
    here, inside the random-dispersal map."""
    # The spacing of RANDOM_GRID and KERNEL_GRID in perfbench/workloads.py;
    # FINE_KERNEL_GRID (h = 0.01) is not timed here.
    h = 0.1
    rng = np.random.default_rng(0)
    rows = []
    for kind, n in sizes:
        grid = Grid(-0.5 * h * (n - 1), 0.5 * h * (n - 1), n)
        kernel = Kernel.build("uniform", 1.0, h) if kind == "nonlocal" else None
        stepper = _LinearStepper(LinearProblem(
            0.0, kind, grid, 1.0, baseline=0.1,
            bump=SpatialBump.square(0.3, 2.0), kernel=kernel))
        u = rng.uniform(0.1, 1.0, n)
        rows.append({"kernel": f"linear period map ({kind})", "n": n,
                     "us": _time(stepper.run_period, u,
                                 repeats=repeats) * 1e6})
    return rows


def main() -> None:
    rows = run() + run_steps() + run_linear_periods()
    width = max(len(r["kernel"]) for r in rows)
    print(f"{'kernel':<{width}}  {'n':>6}  {'time [us]':>10}")
    for r in rows:
        print(f"{r['kernel']:<{width}}  {r['n']:>6}  {r['us']:>10.2f}")


if __name__ == "__main__":
    main()
