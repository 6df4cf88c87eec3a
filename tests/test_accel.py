import numpy as np
import pytest

from compspread import _accel
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


@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize("scalar_selflim", [False, True])
def test_logistic_step_scalar_rate_is_bitwise_the_full_array(batch,
                                                             scalar_selflim,
                                                             rng):
    # A scalar rate takes phi and e^x once, as float64 scalars.  That is
    # bitwise the array form only while numpy's exp and expm1 of a float64
    # scalar equal their array loops; this fails if a numpy build breaks it.
    n = 301
    dt = 0.005
    u = rng.uniform(0.0, 1.5, (3, n) if batch else n)
    selflim = 0.7 if scalar_selflim else rng.uniform(0.5, 1.5, n)
    # |rate*dt| >= 1e-12 over [-5, 5], then 0.0, 3e-11 (|x| < 1e-12) and
    # a negative rate.
    rates = [*rng.uniform(-5.0, 5.0, 200) / dt, 0.0, 3e-11, -0.45]
    for rate in rates:
        out = _accel.logistic_step(u, rate, selflim, dt)
        assert np.array_equal(
            out, _accel.logistic_step(u, np.full(n, rate), selflim, dt))
        assert np.array_equal(out, _logistic_formula(u, rate, selflim, dt))


@pytest.mark.parametrize("with_small", [False, True])
@pytest.mark.parametrize("batched", ["u", "rate"])
def test_logistic_step_broadcasts_one_field_against_a_batch(with_small,
                                                            batched, rng):
    # Either path, a (K, n) batch against one (n,) field gives each row
    # bitwise as the single-field call.
    k, n = 3, 65
    u = rng.uniform(0.0, 1.5, (k, n) if batched == "u" else n)
    rate = rng.uniform(-0.5, 1.0, (k, n) if batched == "rate" else n)
    if with_small:
        rate[..., ::7] = 0.0
    selflim = rng.uniform(0.5, 1.5, n)
    dt = 0.005
    out = _accel.logistic_step(u, rate, selflim, dt)
    assert out.shape == (k, n)
    for i in range(k):
        row_u = u[i] if batched == "u" else u
        row_rate = rate[i] if batched == "rate" else rate
        assert np.array_equal(out[i], _accel.logistic_step(row_u, row_rate,
                                                           selflim, dt))


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


# --- (K, n) batches: each row bitwise as if alone ----------------------------

def _written_out_explicit_half(u, r):
    out = np.empty_like(u)
    out[1:-1] = u[1:-1] + r * (u[:-2] - 2.0 * u[1:-1] + u[2:])
    out[0] = u[0] + 2.0 * r * (u[1] - u[0])
    out[-1] = u[-1] + 2.0 * r * (u[-2] - u[-1])
    return out


@pytest.mark.parametrize("n", [2, 3, 301, 3001])
def test_cn_explicit_half_is_bitwise_the_written_out_formula(n, rng):
    u = rng.uniform(0.1, 1.0, n)
    assert np.array_equal(_accel.cn_explicit_half(u, 0.37),
                          _written_out_explicit_half(u, 0.37))


@pytest.mark.parametrize("n", [2, 3, 301])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_batched_kernels_match_row_by_row(n, k, rng):
    u = rng.uniform(0.1, 1.0, (k, n))
    before = u.copy()
    factor = _accel.TridiagFactor(n, 0.37)
    w = rng.uniform(0.0, 1.0, 7)
    batched = (_accel.cn_explicit_half(u, 0.37), factor.solve(u),
               _accel.correlate_ext(u, w))
    for i, row in enumerate(u):
        single = (_written_out_explicit_half(row, 0.37), factor.solve(row),
                  _accel.correlate_ext(row, w))
        for got, want in zip(batched, single):
            assert got.shape == (k, n)
            assert np.array_equal(got[i], want)
    assert np.array_equal(u, before)


@pytest.mark.parametrize("shape", [(51,), (3, 51)])
def test_tridiag_factor_solve_may_overwrite_its_rhs(shape, rng):
    b = rng.uniform(0.1, 1.0, shape)
    factor = _accel.TridiagFactor(51, 0.5)
    want = factor.solve(b)
    x = factor.solve(b, overwrite_rhs=True)
    assert np.array_equal(x, want)
    assert np.shares_memory(x, b)


# One tridiagonal solve and both pencil solves, saved to argv[1]; prints
# whether scipy.linalg was imported.  The fallback run hides scipy from
# importlib.util.find_spec, so _accel cannot find the _flapack file.
_SOLVES = """
import sys
import importlib.util
import numpy as np
if sys.argv[2] == "fallback":
    importlib.util.find_spec = lambda name, package=None: None
from compspread import _accel
from compspread.coefficients import SpatialBump
from compspread.dispersal import Grid, Kernel
from compspread.spectrum import LinearProblem, _LinearStepper
grid = Grid(-5.0, 5.0, 101)
u = np.random.default_rng(7).uniform(0.1, 1.0, grid.n)
out = {"tridiag": _accel.TridiagFactor(grid.n, 0.37).solve(u)}
for kind, kernel in (("random", None),
                     ("nonlocal", Kernel.build("uniform", 1.0, grid.h))):
    stepper = _LinearStepper(LinearProblem(
        0.0, kind, grid, 1.0, baseline=-0.1, bump=SpatialBump(0.5, 1.0, 0.5),
        kernel=kernel))
    out[kind] = stepper.pencil_solver(np.exp(-stepper.dt * stepper.profile))(
        1.2, u)
np.savez(sys.argv[1], **out)
print("scipy.linalg" in sys.modules)
"""


def test_fallback_lapack_solves_are_bitwise_equal(tmp_path, run_python):
    # Without the _flapack file, _accel imports the module through
    # scipy.linalg: the same routines, the same bits.
    direct, fallback = tmp_path / "direct.npz", tmp_path / "fallback.npz"
    assert run_python(_SOLVES, str(direct), "direct").strip() == "False"
    assert run_python(_SOLVES, str(fallback), "fallback").strip() == "True"
    with np.load(direct) as a, np.load(fallback) as b:
        assert sorted(a.files) == ["nonlocal", "random", "tridiag"]
        for name in a.files:
            assert np.array_equal(a[name], b[name]), name
