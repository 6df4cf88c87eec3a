"""Hot numeric kernels: numpy array expressions and one LAPACK
symmetric tridiagonal factorization.

Every kernel is a few vectorized numpy operations or a LAPACK call, so
the per-call cost is a few numpy dispatches.  The linear period map takes
a whole Crank-Nicolson substep as one prefactored solve and two in-place
passes (:meth:`TridiagFactor.crank_nicolson`); the simulator keeps the
explicit half (:func:`cn_explicit_half`) ahead of its solve.

LAPACK comes from scipy's f2py extension module ``scipy.linalg._flapack``
(``dpttrf``, ``dpttrs`` here; ``dgtsv`` and ``dgbsv`` for the pencil
solves of :mod:`compspread.spectrum`).  The module is loaded straight from
its file in scipy's ``linalg`` directory, which skips the package import
of ``scipy.linalg`` (about 0.1 s, half of ``import compspread.cli``), and
is registered under its own name, so a later ``import scipy.linalg``
reuses it.  ``_flapack`` is a private name, checked against scipy 1.17.1;
when the file cannot be found or loaded, the module comes from the
ordinary ``from scipy.linalg import _flapack`` instead.  Both give the
same routines, so every result is the same either way.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import numpy as np

from .errors import NumericalGuardError, PreconditionError

_FLAPACK = "scipy.linalg._flapack"


def _load_flapack():
    """scipy's LAPACK extension module, without ``scipy.linalg``'s package
    import where its file can be loaded directly."""
    if _FLAPACK in sys.modules:
        return sys.modules[_FLAPACK]
    try:
        # find_spec of a top-level package locates it without running its
        # __init__.
        linalg = (Path(importlib.util.find_spec("scipy").origin).parent
                  / "linalg")
        path = next(linalg / f"_flapack{suffix}"
                    for suffix in importlib.machinery.EXTENSION_SUFFIXES
                    if (linalg / f"_flapack{suffix}").is_file())
        spec = importlib.util.spec_from_file_location(_FLAPACK, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except Exception:
        # No scipy spec, no such file, or a file that does not load: the
        # ordinary import either works or raises its own error.
        from scipy.linalg import _flapack
        return _flapack
    sys.modules[_FLAPACK] = module
    return module


_flapack = _load_flapack()
dpttrf, dpttrs, dgtsv, dgbsv = (_flapack.dpttrf, _flapack.dpttrs,
                                _flapack.dgtsv, _flapack.dgbsv)

_SMALL_EXPONENT = 1e-12
_HALF_SQRT2 = np.sqrt(0.5)


def logistic_step(u, rate, selflim, dt):
    """Exact one-step solution of w' = w*(rate - selflim*w) with frozen
    coefficients.  Nonnegative input stays nonnegative for any dt.
    ``rate`` and ``selflim`` may be scalars or arrays that broadcast
    against ``u``, such as one field's rate for a (K, n) batch.

    A scalar rate takes phi and e^x once, as float64 scalars, and applies
    them in five array passes.  numpy's exp and expm1 of a float64
    scalar are bitwise its array loop, so the result is bitwise that of
    the same rate given as a full array."""
    x = np.multiply(rate, dt)
    den = np.multiply(selflim, u)
    if x.ndim == 0:
        phi = (dt * (1.0 + 0.5 * x) if abs(x) < _SMALL_EXPONENT
               else np.expm1(x) / rate)
        den *= phi
        den += 1.0
        out = np.multiply(u, np.exp(x))
        out /= den
        return out
    small = np.abs(x) < _SMALL_EXPONENT
    if small.any() or den.shape != x.shape:
        safe_rate = np.where(small, 1.0, rate)
        phi = np.where(small, dt * (1.0 + 0.5 * x), np.expm1(x) / safe_rate)
        return u * np.exp(x) / (1.0 + den * phi)
    # The expression above, operation for operation, in place: x and den
    # already have the shape of the result.
    phi = np.expm1(x)
    phi /= rate
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
    """sum_k weights[k+m]*u[j+k] with constant extension of the edges.  A
    (K, n) batch is correlated row by row through one padded buffer."""
    m = (weights.size - 1) // 2
    padded = np.empty(u.shape[-1] + 2 * m)
    if u.ndim == 1:
        return _correlate_padded(u, weights, padded, m)
    out = np.empty(u.shape)
    for row, dst in zip(u, out):
        dst[:] = _correlate_padded(row, weights, padded, m)
    return out


def _correlate_padded(u, weights, padded, m):
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

    def solve(self, rhs, overwrite_rhs=False):
        """x with (I - rL) x = rhs, for one field of shape (n,) or a (K, n)
        batch of independent rows.  rhs is left unchanged unless
        overwrite_rhs, which lets a float C-contiguous rhs become x.

        The solve works on the transpose: a C-contiguous (K, n) batch is an
        (n, K) Fortran array, whose columns ``dpttrs`` solves one by one
        with the same recurrence, so each row comes out bitwise as if it
        were solved alone.  A field of shape (n,) is its own transpose."""
        b = (rhs if overwrite_rhs else np.array(rhs, dtype=float)).T
        b[0] *= _HALF_SQRT2
        b[-1] *= _HALF_SQRT2
        x, info = dpttrs(self._d, self._e, b, overwrite_b=1)
        if info != 0:
            raise NumericalGuardError(
                f"tridiagonal solve failed (dpttrs info={info})")
        x[0] /= _HALF_SQRT2
        x[-1] /= _HALF_SQRT2
        return x.T

    def crank_nicolson(self, u):
        """(I - rL)^-1 (I + rL) u = 2 (I - rL)^-1 u - u.  With G = (I - rL)^-1
        entrywise nonnegative and G_ii >= 1/(1 + 2r), the map is
        order-preserving for r <= 1/2, i.e. dt <= h^2."""
        x = self.solve(u)
        x *= 2.0
        x -= u
        return x


def cn_explicit_half(u, r):
    """(I + r*L) u for the reflecting-boundary Laplacian, row by row for a
    (K, n) batch."""
    out = np.empty(u.shape)
    # u[1:-1] + r*(u[:-2] - 2*u[1:-1] + u[2:]), operation for operation, in
    # place over the flattened rows; the first and last entry of each row,
    # where one row meets the next, are rewritten below.
    flat, flat_out = (u, out) if u.ndim == 1 else (u.reshape(-1),
                                                   out.reshape(-1))
    mid = flat_out[1:-1]
    np.multiply(flat[1:-1], 2.0, out=mid)
    np.subtract(flat[:-2], mid, out=mid)
    mid += flat[2:]
    mid *= r
    mid += flat[1:-1]
    # Transposed, index 0 is the first entry of every row (a scalar for a
    # single field).
    ut, ot = u.T, out.T
    ot[0] = ut[0] + 2.0 * r * (ut[1] - ut[0])
    ot[-1] = ut[-1] + 2.0 * r * (ut[-2] - ut[-1])
    return out
