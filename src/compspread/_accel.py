"""Hot numeric kernels: numpy array expressions and one LAPACK
symmetric tridiagonal factorization.

Every kernel is a few vectorized numpy operations or a LAPACK call, so
the per-call cost is a few numpy dispatches; :mod:`compspread.bench` times
each one at the grid sizes the package uses.  The linear period map takes
a whole Crank-Nicolson substep as one prefactored solve and two in-place
passes (:meth:`TridiagFactor.crank_nicolson`); the simulator keeps the
explicit half (:func:`cn_explicit_half`) ahead of its solve.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import NumericalGuardError, PreconditionError

_SMALL_EXPONENT = 1e-12
_HALF_SQRT2 = np.sqrt(0.5)


def logistic_step(u, rate, selflim, dt):
    """Exact one-step solution of w' = w*(rate - selflim*w) with frozen
    coefficients.  Nonnegative input stays nonnegative for any dt.
    ``selflim`` may be a scalar or an array matching ``u``."""
    x = rate * dt
    small = np.abs(x) < _SMALL_EXPONENT
    if small.any():
        safe_rate = np.where(small, 1.0, rate)
        phi = np.where(small, dt * (1.0 + 0.5 * x), np.expm1(x) / safe_rate)
        return u * np.exp(x) / (1.0 + selflim * u * phi)
    # The expression above, operation for operation, in place.
    phi = np.expm1(x)
    phi /= rate
    den = selflim * u
    den *= phi
    den += 1.0
    out = np.exp(x)
    out *= u
    out /= den
    return out


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
    padded = np.empty(u.size + 2 * m)
    padded[:m] = u[0]
    padded[m:m + u.size] = u
    padded[m + u.size:] = u[-1]
    return np.correlate(padded, weights, mode="valid")


class TridiagFactor:
    """Prefactored solver for the tridiagonal matrix M = I - r*L, where L is
    the reflecting-boundary discrete Laplacian (row pattern 2,-2 / 1,-2,1 /
    -2,2 scaled by 1/h^2 folded into r).

    M is not symmetric, but W M W^-1 with W = diag(1/sqrt2, 1, ..., 1,
    1/sqrt2) is symmetric positive definite, so it is LDL^T-factored once
    with LAPACK ``dpttrf``; each solve scales the two boundary entries,
    calls ``dpttrs`` and scales them back.  All multipliers share one sign,
    so a nonnegative right-hand side gives a nonnegative solution.

    :meth:`crank_nicolson` applies the whole Crank-Nicolson matrix
    (I - rL)^-1 (I + rL) through its Cayley form 2(I - rL)^-1 - I: one
    solve, no explicit half."""

    def __init__(self, n: int, r: float):
        if n < 2:
            raise PreconditionError(
                f"tridiagonal solve needs at least 2 points (n={n})")
        w = np.ones(n)
        w[0] = w[-1] = _HALF_SQRT2
        upper = np.full(n - 1, -r)
        upper[0] = -2.0 * r
        d, e, info = dpttrf(np.full(n, 1.0 + 2.0 * r), w[:-1] * upper / w[1:])
        if info != 0:
            raise NumericalGuardError(
                f"tridiagonal factorization failed (dpttrf info={info}, "
                f"n={n}, r={r:.3e})")
        self._d = d
        self._e = e

    def solve(self, rhs):
        b = np.array(rhs, dtype=float)
        b[0] *= _HALF_SQRT2
        b[-1] *= _HALF_SQRT2
        x, info = dpttrs(self._d, self._e, b, overwrite_b=1)
        if info != 0:
            raise NumericalGuardError(
                f"tridiagonal solve failed (dpttrs info={info})")
        x[0] /= _HALF_SQRT2
        x[-1] /= _HALF_SQRT2
        return x

    def crank_nicolson(self, u):
        """(I - rL)^-1 (I + rL) u = 2 (I - rL)^-1 u - u.  With G = (I - rL)^-1
        entrywise nonnegative and G_ii >= 1/(1 + 2r), the map is
        order-preserving for r <= 1/2, i.e. dt <= h^2."""
        x = self.solve(u)
        x *= 2.0
        x -= u
        return x


def cn_explicit_half(u, r):
    """(I + r*L) u for the reflecting-boundary Laplacian."""
    out = np.empty_like(u)
    out[1:-1] = u[1:-1] + r * (u[:-2] - 2.0 * u[1:-1] + u[2:])
    out[0] = u[0] + 2.0 * r * (u[1] - u[0])
    out[-1] = u[-1] + 2.0 * r * (u[-2] - u[-1])
    return out
