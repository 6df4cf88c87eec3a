"""The co-moving window of the front runs: windowed runs against the loop
that steps every grid point (``reference_routes.record_periods_full_grid``),
the cases where the window is the whole grid, and the window guards."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from compspread import simulator
from compspread.cli import main
from compspread.config import parse_config
from compspread.dispersal import Grid, boundary_margin
from compspread.errors import NumericalGuardError
from compspread.presets import preset_config
from compspread.simulator import (FrontObserver, Problem, Stepper,
                                  SystemState, make_scheme, ramp_profile,
                                  run_periods, run_transformed)
from compspread.spreading import fit_front_speed, speed_interval
from reference_routes import record_periods_full_grid

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _windowed_and_full(monkeypatch, run):
    """run() as it is, and with every period stepping the whole grid."""
    windowed = run()
    with monkeypatch.context() as m:
        m.setattr(simulator, "_record_periods", record_periods_full_grid)
        full = run()
    return windowed, full


def _front(grid, x0=-20.0):
    """simulate's front: u at 0.5 left of x0, ramping to 0 over 2, no v."""
    return SystemState(0.0, 0.5 * ramp_profile(grid.x, x0, 2.0),
                       np.zeros(grid.n))


def _observers(grid, *levels):
    return [FrontObserver(f"front_{level:g}", grid, level, lambda s: s.u,
                          boundary_margin(grid, None)) for level in levels]


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


# --- windowed runs against the full grid --------------------------------------

def test_kpp_control_positions_and_speed_are_bitwise_the_full_grid(
        monkeypatch):
    cfg = parse_config(preset_config("kpp-control"))
    problem = cfg.problem()
    grid = problem.grid
    obs = _observers(grid, 0.25)
    (_, win), (_, full) = _windowed_and_full(
        monkeypatch,
        lambda: run_periods(_front(grid), problem, cfg.scheme, 100, obs))
    assert win.window.stop - win.window.start == 1101 < grid.n
    assert win.window.stop < grid.n  # the window never reached the end
    assert _bits(win.times) == _bits(full.times)
    name = obs[0].name
    assert _bits(win.series[name]) == _bits(full.series[name])
    assert fit_front_speed(win.times, win.series[name], 1.0).value == \
        fit_front_speed(full.times, full.series[name], 1.0).value


def test_canonical_interval_json_is_the_full_grid_run(tmp_path, monkeypatch):
    def run():
        out = tmp_path / f"out{len(list(tmp_path.iterdir()))}"
        assert main(["sweep", "--preset", "canonical-h1h2", "--out",
                     str(out)]) == 0
        return (out / "interval.json").read_bytes()

    windowed, full = _windowed_and_full(monkeypatch, run)
    assert windowed == full


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_random_interval_matches_the_full_grid(monkeypatch, seed):
    # The benchmark's fronts interval: a harmonic a1 with a seeded bump.
    op, = [op for op in _load_workloads().build("fronts", seed)
           if op["name"] == "interval_random"]
    cfg = parse_config(op["config"])
    sc = cfg.scenario
    problem = cfg.problem()
    win, full = _windowed_and_full(
        monkeypatch, lambda: speed_interval(problem, cfg.scheme,
                                            sc["periods"], sc["x0"],
                                            sc["ramp"]))
    for side in ("lower", "upper"):
        a, b = getattr(win, side).value, getattr(full, side).value
        assert abs(a - b) <= 1e-12 * abs(b)


# --- the window as the whole grid ---------------------------------------------

def _assert_same_run(a, b):
    (end_a, rec_a), (end_b, rec_b) = a, b
    assert end_a.t == end_b.t
    assert _bits(end_a.u) == _bits(end_b.u)
    assert _bits(end_a.v) == _bits(end_b.v)
    assert _bits(rec_a.times) == _bits(rec_b.times)
    assert rec_a.series.keys() == rec_b.series.keys()
    for name in rec_a.series:
        assert _bits(rec_a.series[name]) == _bits(rec_b.series[name])


def test_grid_no_wider_than_the_window_is_the_old_loop(canonical_set,
                                                      monkeypatch):
    grid = Grid(-50.0, 60.0, 1101)
    problem = Problem(canonical_set, grid)
    scheme = make_scheme(problem, steps_per_period=200)
    windowed, full = _windowed_and_full(
        monkeypatch, lambda: run_periods(_front(grid), problem, scheme, 10,
                                         _observers(grid, 0.25)))
    _assert_same_run(windowed, full)
    assert windowed[1].window == slice(0, grid.n)


@pytest.mark.parametrize("case", ["no observers", "state ahead"])
def test_run_without_a_front_to_follow_is_the_old_loop(case, canonical_set,
                                                       monkeypatch):
    # With no observers there is no front to follow; a state that is not
    # zero right of the first window has no uninvaded far field to enter it.
    grid = Grid(-50.0, 150.0, 2001)
    problem = Problem(canonical_set, grid)
    scheme = make_scheme(problem, steps_per_period=200)
    state = _front(grid)
    observers = []
    if case == "state ahead":
        state = SystemState(0.0, state.u, np.full(grid.n, 1e-3))
        observers = _observers(grid, 0.25)
    windowed, full = _windowed_and_full(
        monkeypatch, lambda: run_periods(state, problem, scheme, 3,
                                         observers))
    _assert_same_run(windowed, full)
    assert windowed[1].window == slice(0, grid.n)


def test_transformed_run_without_observers_is_the_old_loop(canonical_set,
                                                           monkeypatch, rng):
    grid = Grid(-50.0, 150.0, 2001)
    problem = Problem(canonical_set, grid)
    scheme = make_scheme(problem, steps_per_period=100)
    frames = np.full((100, grid.n), 0.4)
    state = SystemState(0.0, rng.uniform(0.0, 1.0, grid.n),
                        rng.uniform(0.0, 0.4, grid.n))
    windowed, full = _windowed_and_full(
        monkeypatch, lambda: run_transformed(state, problem, scheme, frames,
                                             2))
    _assert_same_run(windowed, full)


# --- the window guards --------------------------------------------------------

def _wide_kpp(canonical_set):
    grid = Grid(-50.0, 150.0, 2001)
    problem = Problem(canonical_set, grid)
    return grid, problem, make_scheme(problem, steps_per_period=200)


def test_precursor_at_the_right_edge_is_a_guard_error(canonical_set,
                                                      monkeypatch):
    # A window 5 length units ahead of the front leaves the leading edge
    # far above WINDOW_PRECURSOR of the level at its right edge.
    monkeypatch.setattr(simulator, "WINDOW_AHEAD", 5.0)
    grid, problem, scheme = _wide_kpp(canonical_set)
    with pytest.raises(NumericalGuardError, match="right edge") as info:
        run_periods(_front(grid), problem, scheme, 3, _observers(grid, 0.25))
    diag = info.value.diagnostics
    assert diag["edge"] == "right" and diag["observer"] == "front_0.25"
    assert diag["edge_to_level"] >= simulator.WINDOW_PRECURSOR
    assert diag["window"][1] - diag["window"][0] == pytest.approx(35.0)
    assert diag["edge_x"] == diag["window"][1]


def test_front_behind_the_left_edge_is_a_guard_error(canonical_set,
                                                     monkeypatch):
    # The window follows the furthest front, at level 0.05; one length
    # unit behind it u is still below the other observer's level 0.45.
    monkeypatch.setattr(simulator, "WINDOW_BEHIND", 1.0)
    grid, problem, scheme = _wide_kpp(canonical_set)
    with pytest.raises(NumericalGuardError, match="left edge") as info:
        run_periods(_front(grid), problem, scheme, 3,
                    _observers(grid, 0.45, 0.05))
    diag = info.value.diagnostics
    assert diag["edge"] == "left" and diag["observer"] == "front_0.45"
    assert diag["edge_to_level"] < 1.0
    assert diag["edge_x"] == diag["window"][0] > grid.x_min


def test_window_at_the_grid_end_leaves_the_boundary_margin_guard(
        canonical_set):
    grid = Grid(-50.0, 70.0, 1201)
    problem = Problem(canonical_set, grid)
    scheme = make_scheme(problem, steps_per_period=200)
    obs = _observers(grid, 0.25)
    with pytest.raises(NumericalGuardError, match="boundary margin") as info:
        run_periods(_front(grid), problem, scheme, 60, obs)
    diag = info.value.diagnostics
    assert diag["margin"] == obs[0].margin
    assert 0.0 <= diag["clearance"] < diag["margin"]
    assert diag["position"] == pytest.approx(grid.x_max - diag["clearance"])


def test_nonfinite_guard_names_the_grid_index_in_a_moved_window(
        canonical_set, monkeypatch):
    grid, problem, scheme = _wide_kpp(canonical_set)
    real = Stepper.step_arrays
    offsets = []

    def poisoned(self, u, v, k):
        u, v = real(self, u, v, k)
        if self.offset > 0 and k % self.spp == self.spp - 1:
            offsets.append(self.offset)
            u[5] = np.nan  # after the last step, before the guard
        return u, v

    monkeypatch.setattr(Stepper, "step_arrays", poisoned)
    with pytest.raises(NumericalGuardError, match="nonfinite") as info:
        run_periods(_front(grid), problem, scheme, 5, _observers(grid, 0.25))
    j = offsets[0] + 5
    assert f"x={grid.x[j]:.6g} (index {j})" in str(info.value)
