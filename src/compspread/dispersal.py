"""Discrete dispersal operators on a truncated uniform grid.

Random dispersal is the second-difference Laplacian with reflecting
(zero-flux) boundaries; nonlocal dispersal is trapezoid-rule convolution
against a compactly supported unit-mass kernel minus identity, with
constant extension of the boundary values.  Both annihilate constants
exactly, so mass is conserved for fields that are flat near the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _accel
from .errors import ConfigError, PreconditionError

KERNEL_SHAPES = ("uniform", "triangle", "raised-cosine")
# The most entries a configuration may ask for: grid points, steps per
# period or samples along one axis, and verify-super's time samples times
# grid points.  It is 250 times the largest shipped grid (4001 points), and
# one field of this size takes 8 MB.
MAX_SIZE = 10**6


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D grid on [x_min, x_max] with n points."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ConfigError("grid needs at least 3 points")
        if not 0.0 < self.x_max - self.x_min < np.inf:
            raise ConfigError("grid bounds must be finite and increasing")
        # Dispersal divides by h^2, and step bounds are set by it.
        h2 = self.h * self.h
        if not (0.0 < h2 < np.inf and 1.0 / h2 < np.inf):
            raise ConfigError(f"grid spacing h={self.h!r} is out of range: "
                              "h^2 and 1/h^2 must be finite and positive")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n)

    def holds_kernel(self, radius: float) -> bool:
        """Whether a kernel support radius stays below half the span."""
        return radius < 0.5 * (self.x_max - self.x_min)

    def widened(self, factor: float) -> "Grid":
        """Same spacing, symmetric extension of the span by ``factor``."""
        extra = 0.5 * (factor - 1.0) * (self.x_max - self.x_min)
        pad = int(np.ceil(extra / self.h))
        return Grid(self.x_min - pad * self.h, self.x_max + pad * self.h,
                    self.n + 2 * pad)


@dataclass(frozen=True)
class Kernel:
    """Symmetric unit-mass dispersal kernel sampled at grid offsets.

    ``weights[k + m]`` is the density at offset k*h for k = -m..m, with zero
    samples at the support edge; trapezoid mass is renormalized to 1 at
    construction so that discrete convolution of a constant is exact.
    """

    shape: str
    nominal_radius: float
    h: float
    weights: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, Kernel):
            return NotImplemented
        return ((self.shape, self.nominal_radius, self.h)
                == (other.shape, other.nominal_radius, other.h)
                and np.array_equal(self.weights, other.weights))

    @property
    def half_width(self) -> int:
        return (self.weights.size - 1) // 2

    @property
    def support_radius(self) -> float:
        return self.half_width * self.h

    @staticmethod
    def build(shape: str, radius: float, h: float) -> "Kernel":
        if shape not in KERNEL_SHAPES:
            raise ConfigError(f"unknown kernel shape {shape!r}")
        if radius <= 0.0 or h <= 0.0:
            raise ConfigError("kernel radius and spacing must be positive")
        m = int(round(radius / h))
        if m < 2 or abs(m * h - radius) > 1e-8 * radius:
            raise ConfigError("kernel radius must be a multiple of the grid "
                              "spacing with at least two cells per side")
        k = np.arange(-m, m + 1)
        z = k * h
        if shape == "uniform":
            # Half-weight edge samples plus a zero pad realize the sharp-edged
            # density with second-order accurate moments while keeping the
            # sampled kernel zero at its support edge.
            w = np.full(2 * m + 1, 1.0 / (2.0 * radius))
            w[0] *= 0.5
            w[-1] *= 0.5
            w = np.concatenate(([0.0], w, [0.0]))
        elif shape == "triangle":
            w = (1.0 - np.abs(z) / radius) / radius
        else:
            w = (1.0 + np.cos(np.pi * z / radius)) / (2.0 * radius)
            w[0] = 0.0
            w[-1] = 0.0
        w = np.abs(w)
        mass = h * float(np.sum(w))
        if mass <= 0.0:
            raise ConfigError("kernel mass vanished")
        w = w / mass
        return Kernel(shape, radius, h, w)

    def offsets(self) -> np.ndarray:
        m = self.half_width
        return np.arange(-m, m + 1) * self.h

    def tilted_weights(self, mu: float) -> np.ndarray:
        return self.weights * np.exp(-mu * self.offsets())


def kernel_moment(kernel: Kernel, mu: float) -> float:
    """Trapezoid integral of the kernel against exp(-mu*z)."""
    return kernel.h * float(np.sum(kernel.tilted_weights(mu)))


def check_kernel_spacing(kernel: Optional[Kernel], grid: Grid) -> None:
    """A kernel must be sampled at its grid's spacing."""
    if kernel is not None and abs(kernel.h - grid.h) > 1e-9 * grid.h:
        raise ConfigError("kernel sampling spacing must match the grid")


def _check_kernel_grid(kernel: Kernel, grid: Grid) -> None:
    check_kernel_spacing(kernel, grid)
    if not grid.holds_kernel(kernel.support_radius):
        raise PreconditionError("kernel support exceeds half the domain")


def apply_dispersal(u: np.ndarray, grid: Grid,
                    kernel: Optional[Kernel] = None) -> np.ndarray:
    """The dispersal operator.  Without a kernel: the second difference
    with reflecting ghost values.  With one: convolution against the
    kernel minus identity, boundary values extended as constants."""
    if kernel is None:
        return _accel.second_diff(u, 1.0 / grid.h ** 2)
    _check_kernel_grid(kernel, grid)
    return _accel.correlate_ext(u, kernel.weights * kernel.h) - u


def boundary_margin(grid: Grid, kernel: Optional[Kernel]) -> float:
    """Fronts must stay this far from the domain edge for the boundary
    handling to be faithful."""
    radius = kernel.support_radius if kernel is not None else 0.0
    return radius + 10.0 * grid.h
