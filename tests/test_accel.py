import numpy as np
import pytest

from compspread import _accel, bench
from compspread.errors import NumericalGuardError


def _dense_reflecting(n, r):
    """Dense I - r*L for the reflecting-boundary Laplacian."""
    lap = (np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1)
           + np.diag(np.ones(n - 1), -1))
    lap[0, 1] = 2.0
    lap[-1, -2] = 2.0
    return np.eye(n) - r * lap


@pytest.mark.parametrize("n", [3, 301, 4001])
@pytest.mark.parametrize("r", [0.25, 5.0])
def test_tridiag_factor_matches_dense_solve(n, r, rng):
    b = rng.uniform(0.1, 1.0, n)
    x = _accel.TridiagFactor(n, r).solve(b)
    ref = np.linalg.solve(_dense_reflecting(n, r), b)
    np.testing.assert_allclose(x, ref, rtol=1e-12, atol=0.0)


def test_tridiag_factor_solve_leaves_rhs_unchanged(rng):
    b = rng.uniform(0.1, 1.0, 51)
    before = b.copy()
    _accel.TridiagFactor(51, 0.5).solve(b)
    assert np.array_equal(b, before)


def test_singular_tridiag_matrix_is_a_guard_error():
    # r = -1/2 at n = 3 gives rows (0, 1, 0), (1/2, 0, 1/2), (0, 1, 0).
    with pytest.raises(NumericalGuardError):
        _accel.TridiagFactor(3, -0.5)


def test_logistic_step_scalar_selflim_matches_field(rng):
    u = rng.uniform(0.0, 1.0, 64)
    rate = rng.uniform(-0.5, 1.0, 64)
    field = _accel.logistic_step(u, rate, np.full(64, 0.7), 0.01)
    assert np.array_equal(_accel.logistic_step(u, rate, 0.7, 0.01), field)


def test_bench_returns_one_row_per_kernel_and_size():
    rows = bench.run(sizes=(11, 21), kernel_taps=5, repeats=2)
    kernels = {r["kernel"] for r in rows}
    assert len(kernels) == 3
    assert sorted((r["kernel"], r["n"]) for r in rows) == sorted(
        (k, n) for k in kernels for n in (11, 21))
    assert all(r["us"] > 0.0 for r in rows)
