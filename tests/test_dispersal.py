import numpy as np
import pytest

from compspread.dispersal import Grid, Kernel, apply_dispersal, kernel_moment
from compspread.errors import ConfigError, PreconditionError
from reference_routes import kernel_mass


@pytest.fixture
def grid():
    return Grid(-10.0, 10.0, 401)  # h = 0.05


@pytest.fixture
def uniform_kernel(grid):
    return Kernel.build("uniform", 1.0, grid.h)


def test_grid_spacing_and_points():
    g = Grid(-1.0, 3.0, 5)
    assert g.h == pytest.approx(1.0)
    assert np.allclose(g.x, [-1, 0, 1, 2, 3])


def test_grid_validation():
    with pytest.raises(ConfigError):
        Grid(0.0, 1.0, 2)
    with pytest.raises(ConfigError):
        Grid(1.0, 0.0, 11)


@pytest.mark.parametrize("x_min, x_max", [(-1e300, 1e300), (0.0, 1e-300),
                                          (0.0, 1e-160)])
def test_grid_spacing_squares_inside_the_float_range(x_min, x_max):
    # Dispersal divides by h^2: h^2 and 1/h^2 must both be finite and
    # positive.
    with pytest.raises(ConfigError, match="grid spacing"):
        Grid(x_min, x_max, 3)


def test_kernel_invariants(grid):
    for shape in ("uniform", "triangle", "raised-cosine"):
        k = Kernel.build(shape, 1.0, grid.h)
        assert kernel_mass(k) == pytest.approx(1.0, abs=1e-10)
        assert np.all(k.weights >= 0)
        assert k.weights[0] == 0.0 and k.weights[-1] == 0.0
        assert np.allclose(k.weights, k.weights[::-1])


def test_kernel_radius_must_align():
    with pytest.raises(ConfigError):
        Kernel.build("uniform", 1.003, 0.05)


def test_random_constant_is_zero(grid):
    out = apply_dispersal(np.full(grid.n, 3.7), grid)
    assert np.all(out == 0.0)


def test_random_exact_on_quadratics(grid):
    u = grid.x ** 2
    out = apply_dispersal(u, grid)
    assert np.allclose(out[1:-1], 2.0, atol=1e-9)


def test_random_second_order_convergence():
    errs = []
    for n in (201, 401):
        g = Grid(-1.0, 1.0, n)
        u = np.sin(np.pi * g.x)
        out = apply_dispersal(u, g)
        exact = -np.pi ** 2 * u
        errs.append(np.max(np.abs(out - exact)[1:-1]))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


def test_nonlocal_constant_is_zero(grid, uniform_kernel):
    out = apply_dispersal(np.full(grid.n, 2.5), grid, uniform_kernel)
    assert np.max(np.abs(out)) < 1e-12


def test_nonlocal_moves_mass_outward(grid, uniform_kernel):
    u = (np.abs(grid.x) <= 2.0).astype(float)
    out = apply_dispersal(u, grid, uniform_kernel)
    just_outside = (np.abs(grid.x) > 2.1) & (np.abs(grid.x) < 2.8)
    edge_inside = (np.abs(grid.x) > 1.2) & (np.abs(grid.x) < 1.95)
    assert np.all(out[just_outside] > 0)
    assert np.all(out[edge_inside] < 0)


def test_nonlocal_exponential_moment():
    g = Grid(-6.0, 6.0, 1201)  # h = 0.01 keeps the quadrature under 1e-6
    k = Kernel.build("uniform", 1.0, g.h)
    u = np.exp(0.1 * g.x)
    out = apply_dispersal(u, g, k)
    interior = np.abs(g.x) < 4.0
    expected = (np.sinh(0.1) / 0.1 - 1.0) * u
    assert np.max(np.abs(out - expected)[interior]) < 1e-6


def test_nonlocal_support_guard():
    g = Grid(-1.0, 1.0, 41)
    k = Kernel.build("uniform", 1.5, g.h)
    with pytest.raises(PreconditionError):
        apply_dispersal(np.ones(g.n), g, k)


def test_kernel_moment_normalization(uniform_kernel):
    assert kernel_moment(uniform_kernel, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_kernel_moment_uniform_closed_form():
    k = Kernel.build("uniform", 1.0, 0.005)
    assert kernel_moment(k, 1.0) == pytest.approx(np.sinh(1.0), abs=1e-5)
    assert kernel_moment(k, 2.0) == pytest.approx(np.sinh(2.0) / 2.0, abs=2e-5)


def test_kernel_moment_symmetry(uniform_kernel):
    for mu in (0.3, 1.0, 2.2):
        assert kernel_moment(uniform_kernel, mu) == pytest.approx(
            kernel_moment(uniform_kernel, -mu), rel=1e-12)


def test_mass_neutrality(grid, uniform_kernel, rng):
    # fields flat near the boundary: interior sums are conserved
    u = 1.0 + np.exp(-grid.x ** 2)
    for out in (apply_dispersal(u, grid),
                apply_dispersal(u, grid, uniform_kernel)):
        assert abs(np.sum(out) * grid.h) < 1e-8


def test_positivity_one_explicit_step(grid, uniform_kernel, rng):
    u = rng.uniform(0.0, 1.0, grid.n)
    dt_random = grid.h ** 2 / 2
    stepped = u + dt_random * apply_dispersal(u, grid)
    assert np.all(stepped >= 0)
    stepped_nl = u + 0.5 * apply_dispersal(u, grid, uniform_kernel)
    assert np.all(stepped_nl >= -1e-15)


def test_reflection_symmetry(grid, uniform_kernel):
    u = np.cosh(grid.x / 4.0)  # even profile
    for op in (lambda w: apply_dispersal(w, grid),
               lambda w: apply_dispersal(w, grid, uniform_kernel)):
        out = op(u)
        assert np.allclose(out, out[::-1], atol=1e-12)
