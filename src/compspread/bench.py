"""Time the hot kernels at the grid sizes the package uses.

Run as ``python -m compspread.bench``.  Each kernel is timed best-of-5
over ``repeats`` calls: the exact logistic reaction step, one
Crank-Nicolson substep (explicit half plus the prefactored tridiagonal
solve) and the kernel correlation.  End-to-end and per-layer timings of
whole workloads come from ``perfbench/run.py``.
"""

from __future__ import annotations

import time

import numpy as np

from . import _accel

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


def main() -> None:
    rows = run()
    width = max(len(r["kernel"]) for r in rows)
    print(f"{'kernel':<{width}}  {'n':>6}  {'time [us]':>10}")
    for r in rows:
        print(f"{r['kernel']:<{width}}  {r['n']:>6}  {r['us']:>10.2f}")


if __name__ == "__main__":
    main()
