"""Hot numeric kernels: numpy array expressions and one LAPACK
tridiagonal factorization.

Every kernel is a single vectorized expression or a LAPACK call, so the
per-call cost is a few numpy dispatches; :mod:`compspread.bench` times
each one at the grid sizes the package uses.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import NumericalGuardError

_SMALL_EXPONENT = 1e-12


def logistic_step(u, rate, selflim, dt):
    """Exact one-step solution of w' = w*(rate - selflim*w) with frozen
    coefficients.  Nonnegative input stays nonnegative for any dt.
    ``selflim`` may be a scalar or an array matching ``u``."""
    x = rate * dt
    small = np.abs(x) < _SMALL_EXPONENT
    safe_rate = np.where(small, 1.0, rate)
    phi = np.where(small, dt * (1.0 + 0.5 * x), np.expm1(x) / safe_rate)
    return u * np.exp(x) / (1.0 + selflim * u * phi)


def second_diff(u, inv_h2):
    """Second difference with reflecting (zero-flux) ghost values."""
    out = np.empty_like(u)
    out[1:-1] = (u[:-2] - 2.0 * u[1:-1] + u[2:]) * inv_h2
    out[0] = 2.0 * (u[1] - u[0]) * inv_h2
    out[-1] = 2.0 * (u[-2] - u[-1]) * inv_h2
    return out


def correlate_ext(u, weights):
    """sum_k weights[k+m]*u[j+k] with constant extension of the edges."""
    m = (weights.size - 1) // 2
    padded = np.concatenate((np.full(m, u[0]), u, np.full(m, u[-1])))
    return np.correlate(padded, weights, mode="valid")


class TridiagFactor:
    """Prefactored solver for the tridiagonal matrix I - r*L, where L is the
    reflecting-boundary discrete Laplacian (row pattern 2,-2 / 1,-2,1 / -2,2
    scaled by 1/h^2 folded into r).  The LU factors (LAPACK ``dgttrf``,
    partial pivoting) are computed once; each solve is one ``dgttrs``."""

    def __init__(self, n: int, r: float):
        diag = np.full(n, 1.0 + 2.0 * r)
        upper = np.full(n - 1, -r)
        lower = np.full(n - 1, -r)
        upper[0] = -2.0 * r
        lower[-1] = -2.0 * r
        *factors, info = dgttrf(lower, diag, upper)
        if info != 0:
            raise NumericalGuardError(
                f"tridiagonal factorization failed (dgttrf info={info}, "
                f"n={n}, r={r:.3e})")
        self._factors = factors

    def solve(self, rhs):
        x, info = dgttrs(*self._factors, rhs)
        if info != 0:
            raise NumericalGuardError(
                f"tridiagonal solve failed (dgttrs info={info})")
        return x


def cn_explicit_half(u, r):
    """(I + r*L) u for the reflecting-boundary Laplacian."""
    out = np.empty_like(u)
    out[1:-1] = u[1:-1] + r * (u[:-2] - 2.0 * u[1:-1] + u[2:])
    out[0] = u[0] + 2.0 * r * (u[1] - u[0])
    out[-1] = u[-1] + 2.0 * r * (u[-2] - u[-1])
    return out
