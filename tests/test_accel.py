import numpy as np
import pytest

from compspread import _accel, bench
from compspread.errors import NumericalGuardError, PreconditionError


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


def _logistic_formula(u, rate, selflim, dt):
    x = rate * dt
    small = np.abs(x) < 1e-12
    phi = np.where(small, dt * (1.0 + 0.5 * x),
                   np.expm1(x) / np.where(small, 1.0, rate))
    return u * np.exp(x) / (1.0 + selflim * u * phi)


@pytest.mark.parametrize("with_small", [False, True])
@pytest.mark.parametrize("scalar_selflim", [False, True])
def test_logistic_step_is_bitwise_the_written_out_formula(with_small,
                                                          scalar_selflim, rng):
    n = 4001
    u = rng.uniform(0.0, 1.5, n)
    rate = rng.uniform(-0.5, 1.0, n)
    if with_small:
        rate[::97] = 0.0
        rate[1::97] = 3e-11  # |rate*dt| = 1.5e-13
    selflim = 0.7 if scalar_selflim else rng.uniform(0.5, 1.5, n)
    dt = 0.005
    assert np.array_equal(_accel.logistic_step(u, rate, selflim, dt),
                          _logistic_formula(u, rate, selflim, dt))


@pytest.mark.parametrize("r", [0.25, 5.0])
def test_tridiag_factor_keeps_nonnegative_rhs_nonnegative(r, rng):
    n = 4001
    b = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.2)
    b[[0, 1, n // 2, -1]] = [0.0, 1e-300, 1.0, 0.0]
    assert np.all(_accel.TridiagFactor(n, r).solve(b) >= 0.0)


@pytest.mark.parametrize("r", [0.25, 5.0])
def test_tridiag_factor_two_points_solves_or_refuses(r, rng):
    b = rng.uniform(0.1, 1.0, 2)
    try:
        x = _accel.TridiagFactor(2, r).solve(b)
    except PreconditionError:
        return
    np.testing.assert_allclose(x, np.linalg.solve(_dense_reflecting(2, r), b),
                               rtol=1e-12, atol=0.0)


def test_bench_steps_returns_one_row_per_kind_and_size():
    rows = bench.run_steps(sizes=(41, 61), repeats=2)
    assert sorted((r["kernel"], r["n"]) for r in rows) == sorted(
        (f"split step ({kind})", n) for kind in ("random", "nonlocal")
        for n in (41, 61))
    assert all(r["us"] > 0.0 for r in rows)


@pytest.mark.parametrize("n", [2, 3, 301, 4001])
@pytest.mark.parametrize("r", [0.25, 0.5])
def test_crank_nicolson_matches_dense_product(n, r, rng):
    u = rng.uniform(0.1, 1.0, n)
    m = _dense_reflecting(n, r)
    ref = np.linalg.solve(m, (2.0 * np.eye(n) - m) @ u)  # I + rL = 2I - M
    np.testing.assert_allclose(_accel.TridiagFactor(n, r).crank_nicolson(u),
                               ref, rtol=1e-12, atol=0.0)


def test_crank_nicolson_leaves_input_unchanged(rng):
    u = rng.uniform(0.1, 1.0, 51)
    before = u.copy()
    _accel.TridiagFactor(51, 0.5).crank_nicolson(u)
    assert np.array_equal(u, before)


def test_crank_nicolson_is_nonnegative_at_the_step_bound():
    # r = 1/2 is dt = h^2, where I + rL has a zero diagonal.
    n = 41
    factor = _accel.TridiagFactor(n, 0.5)
    for j in range(n):
        assert np.all(factor.crank_nicolson(np.eye(n)[j]) >= 0.0), j


@pytest.mark.parametrize("n", [1, 2, 5, 401])
@pytest.mark.parametrize("taps", [1, 5, 23])
def test_correlate_ext_is_bitwise_the_concatenated_form(n, taps, rng):
    u = rng.uniform(0.1, 1.0, n)
    w = rng.uniform(0.0, 1.0, taps)
    m = (taps - 1) // 2
    padded = np.concatenate((np.full(m, u[0]), u, np.full(m, u[-1])))
    assert np.array_equal(_accel.correlate_ext(u, w),
                          np.correlate(padded, w, mode="valid"))


def test_bench_linear_periods_returns_one_row_per_case():
    cases = (("random", 21), ("nonlocal", 31))
    rows = bench.run_linear_periods(sizes=cases, repeats=1)
    assert [(r["kernel"], r["n"]) for r in rows] == [
        (f"linear period map ({kind})", n) for kind, n in cases]
    assert all(r["us"] > 0.0 for r in rows)
