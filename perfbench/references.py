"""Reference answers computed apart from compspread.

Nothing here imports the program.  Exponents of spatially varying problems
come from a dense eigen-solve of the one-step matrix that the scheme's
formulas define; everything else is a closed form or a scalar minimization
with scipy.  ``tests/test_references.py`` shows each reference reproducing
a closed form.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize_scalar

# u_t = u_xx + u(1 - u): the KPP minimal speed 2*sqrt(a1*D) with a1 = D = 1.
KPP_SPEED = 2.0


def random_invasion_speed(rate: float) -> float:
    """c0* = 2*sqrt(rate) under random dispersal, where rate is the mean
    growth of the invader at the resident (mean a1 - c1*a2/c2)."""
    return 2.0 * math.sqrt(rate)


def uniform_kernel_moment(mu: float, radius: float = 1.0) -> float:
    """Integral of exp(mu*z) against the uniform density on [-R, R]."""
    if mu == 0.0:
        return 1.0
    return math.sinh(mu * radius) / (mu * radius)


def minimal_speed(lam) -> float:
    """inf over mu > 0 of lam(mu)/mu by bounded scalar minimization."""
    res = minimize_scalar(lambda mu: lam(mu) / mu, bounds=(1e-3, 20.0),
                          method="bounded",
                          options={"xatol": 1e-12, "maxiter": 500})
    return float(res.fun)


def nonlocal_invasion_speed(rate: float, radius: float = 1.0) -> float:
    """min over mu > 0 of (M(mu) - 1 + rate)/mu for the uniform kernel."""
    return minimal_speed(
        lambda mu: uniform_kernel_moment(mu, radius) - 1.0 + rate)


def tilted_homogeneous_exponent(mu: float, mean: float, kind: str,
                                radius: float = 1.0) -> float:
    """mu^2 + mean (random) or M(mu) - 1 + mean (uniform kernel)."""
    if kind == "random":
        return mu * mu + mean
    return uniform_kernel_moment(mu, radius) - 1.0 + mean


def interior_equilibrium(a1, b1, c1, a2, b2, c2) -> tuple[float, float]:
    """(u, v) with a1 = b1*u + c1*v and a2 = b2*u + c2*v."""
    u, v = np.linalg.solve([[b1, c1], [b2, c2]], [a1, a2])
    return float(u), float(v)


def resident_invasion_exponent(a_inv: float, b_inv: float, a_res: float,
                               b_res: float) -> float:
    """Exponent of an invader with growth a_inv and suppression b_inv at
    the constant resident a_res/b_res."""
    return a_inv - b_inv * a_res / b_res


# ---------------------------------------------------------------------------
# dense exponents
# ---------------------------------------------------------------------------

def harmonic(t, mean: float, amplitude: float, phase: float,
             period: float = 1.0):
    return mean + amplitude * np.sin(2.0 * np.pi * np.asarray(t) / period
                                     + phase)


def plateau_bump(x, amplitude: float, plateau: float, ramp: float):
    """amplitude on |x| <= plateau, linear taper over ramp, zero beyond."""
    ax = np.abs(np.asarray(x, dtype=float))
    if ramp == 0.0:
        return amplitude * (ax <= plateau)
    return amplitude * np.clip((plateau + ramp - ax) / ramp, 0.0, 1.0)


def uniform_kernel_weights(radius: float, h: float) -> np.ndarray:
    """Uniform density sampled at offsets k*h: half weights at the support
    edge, a zero sample beyond it, trapezoid mass renormalized to one."""
    m = int(round(radius / h))
    w = np.full(2 * m + 1, 1.0 / (2.0 * radius))
    w[0] *= 0.5
    w[-1] *= 0.5
    w = np.concatenate(([0.0], w, [0.0]))
    return w / (h * w.sum())


def _reflecting_laplacian(n: int) -> np.ndarray:
    lap = np.zeros((n, n))
    i = np.arange(1, n - 1)
    lap[i, i - 1] = 1.0
    lap[i, i] = -2.0
    lap[i, i + 1] = 1.0
    lap[0, :2] = (-2.0, 2.0)
    lap[-1, -2:] = (2.0, -2.0)
    return lap


def _extension_correlation(n: int, taps: np.ndarray) -> np.ndarray:
    """(C u)_j = sum_k taps[k+m] * u[clip(j+k)]: correlation with the edge
    values extended as constants."""
    m = (taps.size - 1) // 2
    corr = np.zeros((n, n))
    rows = np.arange(n)
    for k in range(-m, m + 1):
        np.add.at(corr, (rows, np.clip(rows + k, 0, n - 1)), taps[k + m])
    return corr


def dispersal_matrix(kind: str, n: int, h: float, dt: float,
                     kernel_radius: float | None = None) -> np.ndarray:
    """One dispersal substep: the reflecting Crank-Nicolson matrix for
    random dispersal, the two-term series I + dt*B + dt^2/2*B^2 with
    B = C - mass*I for the constant-extension kernel."""
    eye = np.eye(n)
    if kind == "random":
        lap = (0.5 * dt / h ** 2) * _reflecting_laplacian(n)
        return np.linalg.solve(eye - lap, eye + lap)
    taps = uniform_kernel_weights(kernel_radius, h) * h
    b = _extension_correlation(n, taps) - taps.sum() * eye
    return eye + dt * b + 0.5 * dt * dt * (b @ b)


@lru_cache(maxsize=32)
def dense_exponent(kind: str, grid: tuple[float, float, int], steps: int,
                   bump: tuple[float, float, float],
                   baseline: tuple[float, float, float],
                   kernel_radius: float | None = None,
                   period: float = 1.0) -> float:
    """Growth exponent of u_t = A u + (baseline(t) + bump(x)) u under the
    split step 'half reaction, dispersal, half reaction'.

    The baseline is spatially constant, so each step is the scalar
    exp(dt*baseline(t_mid)) times S = E D E with E = exp(dt/2 * bump), and
    lambda = mean(baseline at the step midpoints) + steps*log(rho(S))/T.
    """
    lo, hi, n = grid
    x = np.linspace(lo, hi, n)
    h = (hi - lo) / (n - 1)
    dt = period / steps
    half = np.exp(0.5 * dt * plateau_bump(x, *bump))
    s = half[:, None] * dispersal_matrix(kind, n, h, dt, kernel_radius) \
        * half[None, :]
    rho = float(np.max(np.abs(np.linalg.eigvals(s))))
    t_mid = (np.arange(steps) + 0.5) * dt
    mean = float(np.mean(harmonic(t_mid, *baseline, period=period)))
    return mean + steps * math.log(rho) / period
