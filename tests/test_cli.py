import ast
import copy
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from compspread import cli, spectrum
from compspread.cli import main
from compspread.config import load_config
from compspread.errors import ConfigError
from compspread.presets import PRESETS
from compspread.spreading import SpeedEstimate, SpeedIntervalResult
from reference_routes import coexistence_homogeneous

CANONICAL = {
    "period": 1.0,
    "a1": {"constant": 1.0},
    "b1": {"constant": 1.0},
    "c1": {"constant": 0.5},
    "a2": {"constant": 0.4},
    "b2": {"constant": 0.5},
    "c2": {"constant": 1.0},
}

WEAK = dict(CANONICAL, a2={"constant": 1.0})


def _write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def _speed_config(extra_scenario=None):
    return {
        "coefficients": CANONICAL,
        "scenario": {"name": "speed", **(extra_scenario or {})},
        "output": {"formats": ["csv", "json", "svg"]},
    }


def test_speed_subcommand(tmp_path, capsys):
    cfg = _write_config(tmp_path, _speed_config())
    out = tmp_path / "out"
    assert main(["speed", "--config", str(cfg), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "c0* = 1.78885, mu* = 0.89443" in printed
    assert (out / "dispersion.csv").exists()
    assert (out / "dispersion.svg").exists()
    speed = json.loads((out / "speed.json").read_text())
    assert abs(speed["value"] - 2 * np.sqrt(0.8)) < 1e-5
    manifest = json.loads((out / "manifest.json").read_text())
    assert "config_sha256" in manifest
    assert sorted(manifest["files"]) == manifest["files"]


def test_speed_outputs_are_deterministic(tmp_path):
    cfg = _write_config(tmp_path, _speed_config())
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["speed", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["speed", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("dispersion.csv", "speed.json", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_unknown_config_key_is_exit_2(tmp_path, capsys):
    bad = _speed_config()
    bad["grids"] = {}
    cfg = _write_config(tmp_path, bad)
    assert main(["speed", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("name, content, message", [
    ("absent.json", None, "cannot read"),
    (".", None, "cannot read"),
    ("binary.json", b"\xff\xfe{}", "invalid JSON in"),
], ids=["missing file", "directory", "not UTF-8"])
def test_unreadable_config_file_is_exit_2(tmp_path, capsys, name, content,
                                          message):
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    out = tmp_path / "o"
    assert main(["speed", "--config", str(path), "--out", str(out)]) == 2
    assert "ConfigError" in capsys.readouterr().err
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "ConfigError"
    assert f"{message} {path}" in record["message"]


def _coefficient(**fields):
    return {"coefficients": dict(CANONICAL, **fields)}


GRID = {"x_min": -10.0, "x_max": 10.0, "n": 101}


@pytest.mark.parametrize("patch, section", [
    (_coefficient(a1={"harmonic": {"amplitude": 0.1}}),
     "coefficients.a1.harmonic needs 'mean'"),
    (_coefficient(a1={"table": 5}), "coefficients.a1"),
    (_coefficient(a1={"table": [[0.0, 1.0, 2.0], [1.0, 1.0, 2.0]]}),
     "coefficients.a1"),
    (_coefficient(a1={"constant": "abc"}), "coefficients.a1"),
    ({"grid": {"x_min": -10.0, "x_max": 10.0}}, "grid needs 'n'"),
    ({"grid": GRID, "kernel": {"shape": "uniform"}}, "kernel needs 'radius'"),
    ({"scheme": {"dt": "x"}}, "scheme"),
    ({"scheme": {"steps_per_period": 0}}, "scheme"),
    (_coefficient(a1={"constant": 1.0, "bump": {"width": 2.0}}),
     "coefficients.a1.bump needs 'amplitude'"),
    ({"seed": "abc"}, "seed"),
    (_coefficient(a1=1.0), "coefficients.a1 must be a JSON object"),
    ({"output": {"formats": "json"}}, "output.formats must be a list"),
], ids=["harmonic without mean", "table as a number", "table of triples",
        "constant not a number", "grid without n", "kernel without radius",
        "dt not a number", "zero steps per period", "bump without amplitude",
        "seed not a number", "coefficient as a number", "formats as a string"])
def test_malformed_config_value_is_exit_2(tmp_path, capsys, patch, section):
    cfg = _write_config(tmp_path, {**_speed_config(), **patch})
    out = tmp_path / "o"
    assert main(["speed", "--config", str(cfg), "--out", str(out)]) == 2
    assert "ConfigError" in capsys.readouterr().err
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "ConfigError"
    assert section in record["message"]
    assert sorted(os.listdir(out)) == ["error.json"]


# Values a lenient reader would truncate, run on, or turn into another
# error: each stops the run with exit 2 naming its key path.  NaN and
# Infinity are written as the literals Python's json module reads.
@pytest.mark.parametrize("path, value, where", [
    (("grid", "n"), 301.9, "grid.n"),
    (("scheme", "steps_per_period"), 40.9, "scheme.steps_per_period"),
    (("scheme", "steps_per_period"), -32, "scheme.steps_per_period"),
    (("scheme",), {"dt": -0.03125}, "scheme.dt"),
    (("grid", "x_max"), float("inf"), "grid.x_max"),
    (("coefficients", "b1"), {"constant": float("nan")},
     "coefficients.b1.constant"),
    (("seed",), -1, "seed"),
    (("seed",), True, "seed"),
    (("kernel",), {"shape": "uniform", "radius": 100.0}, "kernel.radius"),
    (("kernel",), {"shape": "uniform", "radius": float("inf")},
     "kernel.radius"),
    (("coefficients", "a1"), {"table": [[0.0, 1.0], [0.5], [1.0, 1.0]]},
     "coefficients.a1.table[1]"),
    (("coefficients", "period"), "1", "coefficients.period"),
    (("grid", "n"), 10**12, "grid.n"),
    (("scheme", "steps_per_period"), 10**12, "scheme.steps_per_period"),
    (("scheme",), {"dt": 1e-300}, "steps per period"),
], ids=["fractional n", "fractional steps", "negative steps", "negative dt",
        "infinite x_max", "NaN b1", "negative seed", "boolean seed",
        "kernel wider than the grid", "infinite kernel radius",
        "knot not a pair", "period as a string", "unallocatable n",
        "unallocatable steps", "unallocatable dt"])
def test_out_of_kind_config_value_is_exit_2(tmp_path, capsys, path, value,
                                            where):
    raw = {"coefficients": dict(WEAK),
           "grid": {"x_min": -10.0, "x_max": 10.0, "n": 101},
           "scheme": {"steps_per_period": 32},
           "scenario": {"name": "persistence", "trials": 2},
           "output": {"formats": ["csv", "json"]}, "seed": 11}
    *parents, key = path
    section = raw
    for p in parents:
        section = section[p]
    section[key] = value
    cfg = _write_config(tmp_path, raw)
    out = tmp_path / "o"
    assert main(["persistence", "--config", str(cfg), "--out", str(out)]) == 2
    assert "ConfigError" in capsys.readouterr().err
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "ConfigError"
    assert where in record["message"]
    assert sorted(os.listdir(out)) == ["error.json"]


# One configuration with every section and every kind of coefficient field.
FULL = {
    "coefficients": {
        "period": 1.0,
        "a1": {"harmonic": {"mean": 1.0, "amplitude": 0.1, "phase": 0.0},
               "bump": {"amplitude": 0.3, "width": 4.0, "ramp": 0.5,
                        "M0": 2.5}},
        "b1": {"table": [[0.0, 1.0], [0.5, 1.2], [1.0, 1.0]]},
        "c1": {"constant": 0.5},
        "a2": {"constant": 1.0, "bump": {"amplitude": -0.1, "plateau": 1.0}},
        "b2": {"constant": 0.5}, "c2": {"constant": 1.0}},
    "grid": {"x_min": -10.0, "x_max": 10.0, "n": 101},
    "kernel": {"shape": "uniform", "radius": 1.0},
    "scheme": {"steps_per_period": 32},
    "scenario": {"name": "coexist"},
    "output": {"formats": ["csv", "json"]},
    "seed": 3,
}
ODD_VALUES = [0, -1, 1e300, -1e300, float("nan"), float("inf"),
              float("-inf"), "1", "", True, False, None, [], [1.0, 2.0],
              {}, {"a": 1}]


def _key_paths(value, path=()):
    yield path
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, sub in items:
            yield from _key_paths(sub, path + (key,))


def _replaced(value, path, new):
    if not path:
        return new
    out = copy.copy(value)
    out[path[0]] = _replaced(value[path[0]], path[1:], new)
    return out


def test_config_reader_raises_only_config_errors():
    from compspread.config import RunConfig, parse_config

    assert isinstance(parse_config(FULL), RunConfig)
    for path in _key_paths(FULL):
        for value in ODD_VALUES:
            try:
                parse_config(_replaced(FULL, path, value))
            except ConfigError:
                pass


@pytest.mark.parametrize("extra", [{"mode": "explicit"}, {"cadence": 10}])
def test_scheme_takes_only_a_step_size(tmp_path, capsys, extra):
    # The kernel section decides the dispersal substep and observers
    # sample once per period, so the scheme section has no other key.
    bad = _speed_config()
    bad["scheme"] = {"steps_per_period": 100, **extra}
    cfg = _write_config(tmp_path, bad)
    assert main(["speed", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_hypothesis_failure_is_exit_3(tmp_path, capsys):
    cfg_dict = _speed_config()
    cfg_dict["coefficients"] = dict(CANONICAL, a1={"constant": 0.1})
    cfg = _write_config(tmp_path, cfg_dict)
    assert main(["speed", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "invasion" in err or "exclusion" in err


def test_precondition_failure_writes_error_json(tmp_path):
    # The nonlocal interval run of the benchmark's fronts workload stops
    # before simulating; the output directory does not exist beforehand.
    coeffs = dict(CANONICAL, a1={
        "harmonic": {"mean": 1.0, "amplitude": 0.1, "phase": 0.0},
        "bump": {"amplitude": 0.3, "width": 4.0, "ramp": 0.5}})
    cfg = _write_config(tmp_path, {
        "coefficients": coeffs,
        "grid": {"x_min": -40.0, "x_max": 260.0, "n": 3001},
        "kernel": {"shape": "uniform", "radius": 1.0},
        "scheme": {"steps_per_period": 200},
        "scenario": {"name": "interval", "periods": 100, "x0": -20.0,
                     "ramp": 2.0},
        "output": {"formats": ["csv", "json"]}})
    out = tmp_path / "new" / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 3
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "PreconditionError"
    assert record["exit_code"] == 3
    assert "leaving 15.5 of 100 periods" in record["message"]
    assert "diagnostics" not in record
    assert sorted(os.listdir(out)) == ["error.json"]


def test_convergence_failure_writes_diagnostics(tmp_path):
    out = tmp_path / "o"
    assert main(["coexist", "--preset", "thm41-coexistence", "--periods", "1",
                 "--out", str(out)]) == 4
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "ConvergenceError"
    assert record["exit_code"] == 4
    assert "did not converge in 1 periods" in record["message"]
    assert record["diagnostics"]["wrap"] > 1e-6


@pytest.mark.parametrize("guard, keys", [
    ("boundary margin", {"observer", "t", "position", "clearance", "margin"}),
    ("right edge", {"observer", "t", "edge", "edge_x", "edge_to_level",
                    "precursor_limit", "window"})])
def test_front_guard_failure_writes_its_margins(tmp_path, monkeypatch, guard,
                                                keys):
    # A front that reaches the boundary margin of a short domain, and a
    # window 5 length units ahead of the front that its precursor reaches.
    x_max = 70.0
    if guard == "right edge":
        from compspread import simulator
        monkeypatch.setattr(simulator, "WINDOW_AHEAD", 5.0)
        x_max = 150.0
    cfg = _write_config(tmp_path, {
        "coefficients": CANONICAL,
        "grid": {"x_min": -50.0, "x_max": x_max,
                 "n": int(round((x_max + 50.0) / 0.1)) + 1},
        "scheme": {"steps_per_period": 200},
        "scenario": {"name": "simulate", "periods": 60,
                     "front": {"x0": -20.0, "ramp": 2.0, "u_level": 0.5}},
        "output": {"formats": ["csv", "json"]}})
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 5
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "NumericalGuardError"
    assert guard in record["message"]
    diag = record["diagnostics"]
    assert set(diag) == keys
    if guard == "boundary margin":
        assert 0.0 <= diag["clearance"] < diag["margin"]
    else:
        assert diag["edge_to_level"] >= diag["precursor_limit"]
        assert diag["edge_x"] == diag["window"][1]
    assert sorted(os.listdir(out)) == ["error.json"]


@pytest.mark.parametrize("command", ["coexist", "persistence"])
def test_undecided_invasion_verdict_is_exit_4(tmp_path, monkeypatch,
                                              command):
    # A growth pocket of u lowers the u-resident on it, so v invades there
    # and is suppressed elsewhere.  At tol=1.0 its exponent settles on a
    # bracket around 0, and a solver that reads it cannot decide.
    from compspread import semitrivial, verify

    def wide(target, problem, resident):
        return semitrivial.linearized_radius(target, problem, resident,
                                             tol=1.0)

    monkeypatch.setattr(verify, "linearized_radius", wide)
    coeffs = dict(CANONICAL, a1={"constant": 1.0, "bump": {
        "amplitude": -0.6, "width": 4.0}})
    cfg = _write_config(tmp_path, {
        "coefficients": coeffs,
        "grid": {"x_min": -30.0, "x_max": 30.0, "n": 301},
        "scenario": {"name": command},
        "output": {"formats": ["csv", "json"]}})
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 4
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "ConvergenceError"
    assert "undecided at the u-resident" in record["message"]
    (u_lo, u_hi), (v_lo, v_hi) = (record["diagnostics"]["u_resident"],
                                  record["diagnostics"]["v_resident"])
    assert u_lo <= 0.0 <= u_hi
    assert 0.0 < v_lo <= v_hi
    assert sorted(os.listdir(out)) == ["error.json"]


def test_error_json_diagnostics_are_plain_json(tmp_path, monkeypatch):
    from compspread import cli
    from compspread.errors import ConvergenceError

    def fail(cfg, out_dir, args):
        raise ConvergenceError("no luck", diagnostics={
            "last": np.array([[0.5, np.inf]]), "count": np.int64(3),
            "lam": np.float32(0.25), "delta": np.nan,
            "scanned": [(0.1, 2.0, "below")]})

    monkeypatch.setitem(cli._HANDLERS, "speed", fail)
    out = tmp_path / "o"
    assert main(["speed", "--preset", "continuity-sweep", "--out",
                 str(out)]) == 4

    def reject(name):
        raise AssertionError(f"non-standard JSON constant {name}")

    record = json.loads((out / "error.json").read_text(),
                        parse_constant=reject)
    assert record["diagnostics"] == {
        "last": [[0.5, "inf"]], "count": 3, "lam": 0.25, "delta": "nan",
        "scanned": [[0.1, 2.0, "below"]]}


def test_unknown_preset_is_exit_2(tmp_path):
    assert main(["speed", "--preset", "no-such-preset", "--out",
                 str(tmp_path / "o")]) == 2


def test_all_presets_parse():
    from compspread.config import parse_config
    from compspread.presets import preset_config
    for name in PRESETS:
        cfg = parse_config(preset_config(name))
        assert cfg.scenario["name"]


def test_spectrum_subcommand(tmp_path):
    cfg = _write_config(tmp_path, {
        "coefficients": CANONICAL,
        "scenario": {"name": "spectrum", "mu_points": 50},
        "output": {"formats": ["csv"]},
    })
    out = tmp_path / "o"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    rows = np.loadtxt(out / "dispersion.csv", delimiter=",", skiprows=1)
    assert rows.shape == (50, 3)
    assert np.allclose(rows[:, 2], rows[:, 1] / rows[:, 0])


def test_simulate_subcommand(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "coefficients": CANONICAL,
        "grid": {"x_min": -30.0, "x_max": 120.0, "n": 1501},
        "scheme": {"steps_per_period": 200},
        "scenario": {"name": "simulate", "variables": "original",
                     "periods": 40,
                     "front": {"x0": -10.0, "ramp": 2.0, "u_level": 0.5,
                               "v_level": 0.0},
                     "theta": 0.25},
        "output": {"formats": ["csv", "json"]},
    })
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    # scalar invasion control: the classical speed is 2
    assert abs(summary["front_speed"]["value"] - 2.0) < 0.15
    assert (out / "fronts.csv").exists()
    assert (out / "snapshot.csv").exists()


def test_sweep_subcommand(tmp_path):
    cfg = _write_config(tmp_path, {
        "coefficients": CANONICAL,
        "scenario": {"name": "sweep", "eps": [0.2, 0.1, 0.05], "field": "a1"},
        "output": {"formats": ["csv", "json"]},
    })
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1)
    assert rows.shape == (3, 4)
    for eps, speed, _, _ in rows:
        assert abs(speed - 2 * np.sqrt(0.8 + eps)) < 1e-4


@pytest.mark.parametrize("scenario", [
    {"name": "sweep", "field": "zz"},
    {"name": "interval", "intervals": [{"field": "a9", "amplitude": 0.1}]},
    {"name": "interval", "intervals": [{"field": "a1", "width": 4.0}]},
    {"name": "interval", "intervals": [{"field": "a1", "amplitude": "0.1"}]},
    {"name": "interval", "periods": 1, "intervals": [
        {"field": "a1", "amplitude": 0.1},
        {"field": "a2", "amplitude": 0.1},
        {"field": "a1", "amplitude": 0.1, "ramp": 1.0}]},
], ids=["unknown sweep field", "unknown interval field", "no amplitude",
        "non-numeric amplitude", "repeated job key"])
def test_sweep_bad_input_is_exit_2(tmp_path, capsys, scenario):
    # With a grid an interval job could run: a repeated key must stop the
    # command before any job does.
    cfg = _write_config(tmp_path, {"coefficients": CANONICAL, "grid": GRID,
                                   "scenario": scenario})
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert "ConfigError" in capsys.readouterr().err
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "ConfigError"
    assert sorted(os.listdir(out)) == ["error.json"]


# One malformed value per kind of scenario value of every subcommand: the
# message names the key, and the run stops before any output.
@pytest.mark.parametrize("command, scenario, argv, where", [
    ("speed", {"mu_points": "x"}, [], "scenario.mu_points"),
    ("speed", {"bracket": 5}, [], "scenario.bracket"),
    ("spectrum", {"mu_points": 2.5}, [], "scenario.mu_points"),
    ("spectrum", {"bracket": [4.0, 1.0]}, [], "scenario.bracket"),
    ("simulate", {"periods": "20"}, [], "scenario.periods"),
    ("simulate", {"theta": True}, [], "scenario.theta"),
    ("simulate", {"front": {"x0": "a"}}, [], "scenario.front.x0"),
    ("simulate", {"front": {"u_levl": 0.5}}, [], "scenario.front"),
    ("simulate", {"variables": "transformed"}, [], "scenario.variables"),
    ("simulate", {}, ["--periods", "0"], "--periods"),
    ("persistence", {"trials": 0}, [], "scenario.trials"),
    ("persistence", {"settle_tol": "1e-6"}, [], "scenario.settle_tol"),
    ("persistence", {"mode": 5}, [], "scenario.mode"),
    ("coexist", {"periods": -3}, [], "scenario.periods"),
    ("coexist", {"tol": None}, [], "scenario.tol"),
    ("coexist", {}, ["--periods", "-1"], "--periods"),
    ("speed", {}, ["--periods", "5"], "--periods"),
    ("spectrum", {}, ["--periods", "5"], "--periods"),
    ("destabilize", {}, ["--periods", "-3"], "--periods"),
    ("verify-super", {}, ["--periods", "5"], "--periods"),
    ("sweep", {}, ["--periods", "5"], "--periods"),
    ("destabilize", {"widths": "ab"}, [], "scenario.widths"),
    ("destabilize", {"h": 0}, [], "scenario.h"),
    ("verify-super", {"time_samples": 1.5}, [], "scenario.time_samples"),
    ("verify-super", {"eps": "0.05"}, [], "scenario.eps"),
    ("sweep", {"eps": [0.1, "x"]}, [], "scenario.eps[1]"),
    ("sweep", {"field": "zz"}, [], "scenario.field"),
    ("interval", {"x0": "a"}, [], "scenario.x0"),
    ("interval", {"periods": True}, [], "scenario.periods"),
    ("interval", {"intervals": []}, [], "scenario.intervals"),
    ("interval", {"intervals": [{"amplitude": 0.1, "widht": 4.0}]}, [],
     "scenario.intervals[0]"),
    ("interval", {"intervals": [{"amplitude": 0.1, "ramp": "0.5"}]}, [],
     "scenario.intervals[0].ramp"),
    ("speed", {"mu_points": 10**12}, [], "scenario.mu_points"),
    ("verify-super", {"time_samples": 10**12}, [], "scenario.time_samples"),
    ("destabilize", {"h": 1e-300}, [], "search grid"),
    ("destabilize", {"pad": 1e300}, [], "search grid"),
    ("destabilize", {"widths": [1.0, 1e300]}, [], "search grid"),
    ("destabilize", {"h": 1e300}, [], "grid spacing"),
    ("verify-super", {"time_samples": 10**4}, [], "grid.n"),
], ids=["speed int", "speed pair", "spectrum int", "spectrum pair order",
        "simulate int", "simulate float", "simulate front value",
        "simulate front key", "simulate variables", "simulate --periods 0",
        "persistence int", "persistence float", "persistence string",
        "coexist int", "coexist float", "coexist --periods -1",
        "speed --periods", "spectrum --periods", "destabilize --periods",
        "verify-super --periods", "sweep --periods",
        "destabilize list", "destabilize float", "verify-super int",
        "verify-super float", "sweep list", "sweep field", "interval float",
        "interval int", "interval empty list", "interval entry key",
        "interval entry value", "unallocatable mu_points",
        "unallocatable time_samples", "destabilize fine h",
        "destabilize wide pad", "destabilize wide width",
        "destabilize coarse h", "verify-super samples times points"])
def test_malformed_scenario_value_is_exit_2(tmp_path, capsys, command,
                                            scenario, argv, where):
    name = command
    if command == "interval":
        command = "sweep"
    cfg = _write_config(tmp_path, {
        "coefficients": CANONICAL, "grid": GRID,
        "scenario": {"name": name, **scenario}})
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]
                + argv) == 2
    assert "ConfigError" in capsys.readouterr().err
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "ConfigError"
    assert where in record["message"]
    assert sorted(os.listdir(out)) == ["error.json"]


# Grid spacings whose square, or its reciprocal, leaves the float range:
# every command that takes a grid refuses them as it reads the grid.
@pytest.mark.parametrize("grid", [
    {"x_min": -1e300, "x_max": 1e300, "n": 3},
    {"x_min": 0.0, "x_max": 1e-300, "n": 3},
    {"x_min": 0.0, "x_max": 1e-160, "n": 3},
], ids=["square overflows", "square underflows", "reciprocal overflows"])
@pytest.mark.parametrize("command", ["simulate", "coexist", "persistence",
                                     "verify-super"])
def test_grid_spacing_out_of_float_range_is_exit_2(tmp_path, capsys, command,
                                                   grid):
    cfg = _write_config(tmp_path, {"coefficients": WEAK, "grid": grid,
                                   "scenario": {"name": command}})
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "ConfigError" in capsys.readouterr().err
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "ConfigError"
    assert "grid spacing" in record["message"]
    assert sorted(os.listdir(out)) == ["error.json"]


def _interval_run(tmp_path, name, coefficients, scenario, workers):
    cfg = _write_config(tmp_path, {
        "coefficients": coefficients,
        "grid": {"x_min": -40.0, "x_max": 260.0, "n": 1501},
        "scheme": {"steps_per_period": 50},
        "scenario": {"name": "interval", "periods": 80, **scenario},
        "output": {"formats": ["json"]}}, f"{name}.json")
    out = tmp_path / name
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--workers", str(workers)]) == 0
    return (out / "interval.json").read_bytes()


def test_interval_matrix_matches_single_runs(tmp_path):
    # Two bumps on a coarse grid (h = 0.2): fanned out over two workers or
    # run in turn, the matrix writes the same bytes, and each entry is the
    # interval of the configuration with that bump written in.
    entries = [{"amplitude": 0.2, "width": 4.0},
               {"field": "c1", "amplitude": 0.2, "width": 2.0, "ramp": 1.0}]
    serial = _interval_run(tmp_path, "w1", CANONICAL,
                           {"intervals": entries}, 1)
    assert _interval_run(tmp_path, "w2", CANONICAL,
                         {"intervals": entries}, 2) == serial
    matrix = json.loads(serial)
    assert sorted(matrix) == ["amp+0.2_w2", "amp+0.2_w4"]
    for key, entry in (("amp+0.2_w4", entries[0]), ("amp+0.2_w2", entries[1])):
        field = entry.get("field", "a1")
        bump = {"amplitude": entry["amplitude"], "width": entry["width"],
                "ramp": entry.get("ramp", 0.5)}
        coefficients = dict(CANONICAL, **{field: dict(CANONICAL[field],
                                                      bump=bump)})
        single = json.loads(_interval_run(tmp_path, key, coefficients, {}, 1))
        assert single == {"base": matrix[key]}


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count it is
    asked for and maps in this process, so no process is started."""

    asked: list = []

    def __init__(self, max_workers):
        _RecordingPool.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def _stub_interval(problem, scheme, n_periods, x0, ramp):
    est = SpeedEstimate(1.0, "stub")
    return SpeedIntervalResult(est, est, est)


@pytest.mark.parametrize("workers", [1, 2, 1000000])
def test_sweep_pool_is_bounded_by_jobs_and_cores(tmp_path, monkeypatch,
                                                 workers):
    # Two interval jobs: the pool never asks for more workers than jobs or
    # cores, and one worker runs in this process without a pool.
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(cli, "speed_interval", _stub_interval)
    monkeypatch.setattr(_RecordingPool, "asked", [])
    entries = [{"amplitude": 0.2, "width": 4.0},
               {"amplitude": 0.2, "width": 2.0}]
    _interval_run(tmp_path, "w", CANONICAL, {"intervals": entries}, workers)
    bound = min(workers, 2, os.cpu_count() or 1)
    assert _RecordingPool.asked == ([bound] if bound > 1 else [])


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_nonpositive_workers_is_exit_2(tmp_path, capsys, workers):
    out = tmp_path / "o"
    assert main(["speed", "--preset", "continuity-sweep", "--out", str(out),
                 "--workers", workers]) == 2
    assert "--workers" in capsys.readouterr().err
    record = json.loads((out / "error.json").read_text())
    assert record["type"] == "ConfigError"
    assert sorted(os.listdir(out)) == ["error.json"]


@pytest.mark.parametrize("under", [False, True])
def test_out_that_cannot_be_a_directory_is_exit_2(tmp_path, capsys,
                                                  monkeypatch, under):
    # An --out at a file, or under one, is refused before any work, and the
    # file is left as it was.
    def no_work(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "dispersion_speed", no_work)
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    out = blocker / "sub" if under else blocker
    assert main(["speed", "--preset", "continuity-sweep",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--out" in err and "ConfigError" in err
    assert "Traceback" not in err
    assert blocker.read_text() == "kept"
    assert sorted(os.listdir(tmp_path)) == ["file"]


def test_readme_lists_every_scenario_key():
    # README's scenario-key table and the command line's own table name
    # the same keys of the same subcommands.
    from compspread.cli import _SCENARIO_KEYS

    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = re.findall(r"^\| `([a-z-]+)` \| `(\w+)` \|", readme.read_text(),
                      re.MULTILINE)
    assert sorted(rows) == sorted((command, key) for command, keys
                                  in _SCENARIO_KEYS.items() for key in keys)


def test_persistence_subcommand(tmp_path):
    cfg = _write_config(tmp_path, {
        "coefficients": WEAK,
        "grid": {"x_min": -10.0, "x_max": 10.0, "n": 101},
        "scheme": {"steps_per_period": 32},
        "scenario": {"name": "persistence", "trials": 2},
        "output": {"formats": ["json"]},
        "seed": 11,
    })
    out = tmp_path / "o"
    assert main(["persistence", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "persistence.json").read_text())
    assert report["eta"] > 0.6
    assert report["failures"] == 0


def test_coexist_subcommand(tmp_path):
    cfg = _write_config(tmp_path, {
        "coefficients": WEAK,
        "grid": {"x_min": -10.0, "x_max": 10.0, "n": 101},
        "scheme": {"steps_per_period": 32},
        "scenario": {"name": "coexist"},
        "output": {"formats": ["csv", "json"]},
    })
    out = tmp_path / "o"
    assert main(["coexist", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "coexist.json").read_text())
    assert report["ordered"]
    assert abs(report["u_range"][0] - 2 / 3) < 1e-3


def test_verify_super_subcommand(tmp_path):
    cfg = _write_config(tmp_path, {
        "coefficients": CANONICAL,
        "grid": {"x_min": -40.0, "x_max": 160.0, "n": 1001},
        "scenario": {"name": "verify-super", "eps": 0.05},
        "output": {"formats": ["csv", "json"]},
    })
    out = tmp_path / "o"
    assert main(["verify-super", "--config", str(cfg), "--out",
                 str(out)]) == 0
    report = json.loads((out / "verify.json").read_text())
    assert report["residual_report"]["passed"]
    assert report["inequalities"]["holds"]
    assert max(report["ansatz_residuals"]) < 1e-8


def test_destabilize_subcommand(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "coefficients": CANONICAL,
        "scenario": {"name": "destabilize"},
        "output": {"formats": ["json"]},
    })
    out = tmp_path / "o"
    assert main(["destabilize", "--config", str(cfg), "--out",
                 str(out)]) == 0
    report = json.loads((out / "destabilize.json").read_text())
    assert report["amplitude"] == pytest.approx(0.2)
    assert report["lam_total"] > 0


def test_manifest_round_trip(tmp_path):
    cfg = _write_config(tmp_path, _speed_config())
    out1 = tmp_path / "r1"
    assert main(["speed", "--config", str(cfg), "--out", str(out1)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    replay = _write_config(tmp_path, manifest["config"], "replay.json")
    out2 = tmp_path / "r2"
    assert main(["speed", "--config", str(replay), "--out", str(out2)]) == 0
    for name in manifest["files"] + ["manifest.json"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_persistence_runs_on_coexistence_preset_setup(tmp_path):
    # any subcommand accepts another scenario's coefficient setup; foreign
    # scenario keys are ignored rather than rejected
    from compspread.presets import preset_config

    raw = preset_config("thm41-coexistence")
    raw["scenario"] = dict(raw["scenario"], trials=2)
    cfg = _write_config(tmp_path, raw)
    out = tmp_path / "o"
    assert main(["persistence", "--config", str(cfg), "--out", str(out),
                 "--periods", "600"]) == 0
    report = json.loads((out / "persistence.json").read_text())
    assert report["eta"] > 0.6


def test_kpp_preset_smoke(tmp_path):
    out = tmp_path / "o"
    assert main(["simulate", "--preset", "kpp-control", "--out", str(out),
                 "--periods", "40"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["front_speed"]["value"] - 2.0) < 0.2


def test_bump_config_accepts_support_radius_key(tmp_path):
    cfg_dict = _speed_config()
    cfg_dict["coefficients"] = dict(
        CANONICAL,
        a1={"constant": 1.0,
            "bump": {"amplitude": -0.2, "width": 4.0, "ramp": 0.5,
                     "M0": 2.5}})
    cfg = _write_config(tmp_path, cfg_dict)
    assert main(["speed", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 0
    cfg_dict["coefficients"]["a1"]["bump"]["M0"] = 1.0
    bad = _write_config(tmp_path, cfg_dict, "bad.json")
    assert main(["speed", "--config", str(bad), "--out",
                 str(tmp_path / "o2")]) == 2


def test_cli_import_leaves_out_scipy_integrate(run_python):
    # scipy.integrate costs about 0.25 s of import.  No package module
    # imports it; only the RK45 references in tests/reference_routes.py do.
    run_python("import sys, compspread.cli; "
               "assert 'scipy.integrate' not in sys.modules, "
               "'scipy.integrate imported'")


def _imports_scipy_integrate(node):
    if isinstance(node, ast.Import):
        return any(a.name.startswith("scipy.integrate") for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return ((node.module or "").startswith("scipy.integrate")
                or node.module == "scipy"
                and any(a.name == "integrate" for a in node.names))
    return False


def test_package_root_binds_only_its_version(run_python):
    # Every name is imported from its submodule: the package root is no
    # second import path.
    run_python("import compspread\n"
               "public = [n for n in vars(compspread) if not n.startswith('_')]\n"
               "assert public == [], public\n"
               "assert compspread.__version__")


def test_package_defines_only_what_it_uses():
    # Each public top-level function and class of compspread is used by
    # another part of the package or by the benchmark (the package root
    # binds no other name: test_package_root_binds_only_its_version);
    # references that only tests call live in tests/reference_routes.py,
    # and so does every scipy.integrate import.
    root = Path(__file__).resolve().parents[1]
    modules = {p.stem: ast.parse(p.read_text())
               for p in (root / "src" / "compspread").glob("*.py")
               if p.stem != "__init__"}
    bench = [ast.parse(p.read_text())
             for p in (root / "perfbench").glob("*.py")]
    used = set()
    for tree in [*modules.values(), *bench]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
            elif (isinstance(node, ast.Attribute)
                  and getattr(node.value, "id", None) in modules):
                used.add(node.attr)
    # perfbench's tracer names what it wraps as "function" or "Class.method".
    used.update(node.value.split(".")[0] for tree in bench
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str))
    unused, integrate = [], []
    for stem, tree in modules.items():
        for top in tree.body:
            if (not isinstance(top, (ast.FunctionDef, ast.ClassDef))
                    or top.name.startswith("_") or top.name in used):
                continue
            if not any(isinstance(node, ast.Name) and node.id == top.name
                       for other in tree.body if other is not top
                       for node in ast.walk(other)):
                unused.append(f"{stem}.{top.name}")
        integrate += [stem for node in ast.walk(tree)
                      if _imports_scipy_integrate(node)]
    assert unused == []
    assert integrate == []


def test_cli_import_leaves_out_scipy_linalg(run_python):
    # _accel loads LAPACK from scipy's _flapack file, without the package
    # import of scipy.linalg (about 0.1 s) and its numpy.f2py; a later
    # import of scipy.linalg reuses that one module.
    run_python("import sys, compspread.cli\n"
               "for name in ('scipy.linalg', 'numpy.f2py'):\n"
               "    assert name not in sys.modules, name + ' imported'\n"
               "import scipy.linalg\n"
               "assert scipy.linalg.lapack.dpttrf is compspread._accel.dpttrf\n"
               "assert scipy.linalg.lapack.dgbsv is compspread._accel.dgbsv")


def test_homogeneous_spectrum_point_leaves_out_arpack(run_python):
    # A homogeneous problem settles on the constant field's one-step
    # bracket, so scipy.sparse.linalg (ARPACK) stays unloaded by the CLI and by it.
    run_python("import sys, compspread.cli\n"
               "from compspread.dispersal import Grid\n"
               "from compspread.spectrum import LinearProblem, "
               "principal_spectrum_point\n"
               "res = principal_spectrum_point(LinearProblem("
               "0.5, 'random', Grid(-5.0, 5.0, 101), 1.0, baseline=0.8))\n"
               "assert res.periods == 0, res.periods\n"
               "assert 'scipy.sparse.linalg' not in sys.modules, "
               "'scipy.sparse.linalg imported'")


def test_separable_spectrum_point_leaves_out_arpack(run_python):
    # A baseline-plus-bump problem takes the one-step pencil (a tridiagonal
    # or banded solve, both from _accel's LAPACK), so neither
    # scipy.sparse.linalg (ARPACK) nor scipy.linalg is loaded.
    run_python("import sys, compspread.cli\n"
               "from compspread.coefficients import SpatialBump\n"
               "from compspread.dispersal import Grid, Kernel\n"
               "from compspread.spectrum import LinearProblem, "
               "principal_spectrum_point\n"
               "g = Grid(-10.0, 10.0, 201)\n"
               "for kind, k in (('random', None), "
               "('nonlocal', Kernel.build('uniform', 1.0, g.h))):\n"
               "    res = principal_spectrum_point(LinearProblem("
               "0.0, kind, g, 1.0, baseline=-0.1, "
               "bump=SpatialBump(0.5, 1.0, 0.5), kernel=k))\n"
               "    assert res.periods == 0, res.periods\n"
               "for name in ('scipy.sparse.linalg', 'scipy.linalg'):\n"
               "    assert name not in sys.modules, name + ' imported'")


@pytest.mark.parametrize("kernel", [None, {"shape": "uniform", "radius": 1.0}])
def test_bumped_coexist_and_persistence_leave_out_arpack(tmp_path, kernel,
                                                         run_python):
    # The invader at a resident with a bump sees a coefficient table that is
    # constant in time up to rounding, so it takes the one-step pencil and
    # scipy.sparse.linalg (ARPACK) stays unloaded.
    raw = {
        "coefficients": dict(WEAK, a1={"constant": 1.0, "bump": {
            "amplitude": 0.3, "width": 4.0, "ramp": 0.5}}),
        "grid": {"x_min": -15.0, "x_max": 15.0, "n": 151},
        "scheme": {"steps_per_period": 32},
        "scenario": {"name": "persistence", "trials": 2},
        "output": {"formats": ["json"]},
        "seed": 3,
    }
    if kernel is not None:
        raw["kernel"] = kernel
    cfg = _write_config(tmp_path, raw)
    run_python("import sys\n"
               "from compspread.cli import main\n"
               "for cmd in ('coexist', 'persistence'):\n"
               f"    rc = main([cmd, '--config', {str(cfg)!r}, "
               f"'--out', {str(tmp_path / 'out')!r} + '-' + cmd])\n"
               "    assert rc == 0, (cmd, rc)\n"
               "assert 'scipy.sparse.linalg' not in sys.modules, "
               "'scipy.sparse.linalg imported'")


@pytest.mark.parametrize("kernel", [None, {"shape": "uniform", "radius": 1.0}])
def test_seasonal_baselines_with_a_bump_reach_coexistence(tmp_path,
                                                          monkeypatch,
                                                          kernel):
    # The paper's combined setting: thm41-coexistence with a seasonal a1
    # carrying a bump and a seasonal a2.  The u-resident is time-periodic,
    # so its invader's table takes period maps and ARPACK.
    arnoldi_calls = []

    def counted_arnoldi(*args, **kwargs):
        arnoldi_calls.append(1)
        return arnoldi(*args, **kwargs)

    arnoldi = spectrum._arnoldi_eigenpair
    monkeypatch.setattr(spectrum, "_arnoldi_eigenpair", counted_arnoldi)
    raw = {
        "coefficients": dict(WEAK, a1={
            "harmonic": {"mean": 1.0, "amplitude": 0.3},
            "bump": {"amplitude": 0.3, "width": 4.0, "ramp": 0.5}},
            a2={"harmonic": {"mean": 1.0, "amplitude": 0.2}}),
        "grid": {"x_min": -30.0, "x_max": 30.0, "n": 301},
        "scheme": {"steps_per_period": 32},
        "scenario": {"name": "coexist", "seed_eps": 0.01},
        "output": {"formats": ["csv", "json"]},
        "seed": 0,
    }
    if kernel is not None:
        raw["kernel"] = kernel
    cfg = _write_config(tmp_path, raw)
    for cmd in ("coexist", "persistence"):
        assert main([cmd, "--config", str(cfg),
                     "--out", str(tmp_path / cmd)]) == 0
    assert arnoldi_calls

    assert json.loads((tmp_path / "coexist" / "coexist.json")
                      .read_text())["ordered"]
    rows = np.loadtxt(tmp_path / "coexist" / "coexistence.csv",
                      delimiter=",", skiprows=1)
    tail = rows[np.abs(rows[:, 0]) >= 20.0]
    u_orb, v_orb = coexistence_homogeneous(
        load_config(cfg).coefficients.baselines())
    assert np.max(np.abs(tail[:, [1, 3]] - u_orb.values[0])) <= 1e-3
    assert np.max(np.abs(tail[:, [2, 4]] - v_orb.values[0])) <= 1e-3

    report = json.loads((tmp_path / "persistence" / "persistence.json")
                        .read_text())
    assert report["mode"] == "two-sided"
    assert report["failures"] == 0
    assert report["unsettled"] == 0


def test_strongly_suppressive_resident_bump_reaches_coexistence(tmp_path):
    # A bump of 10 on a1 lifts the u-resident to about 11 inside it, where
    # v's rate 1 - 0.5*u is negative although its far-field exponent is
    # 0.5: a seed floored there shrank and broke monotonicity (exit 5).
    raw = copy.deepcopy(PRESETS["thm41-coexistence"])
    raw["coefficients"]["a1"] = {"constant": 1.0, "bump": {
        "amplitude": 10.0, "width": 4.0, "ramp": 0.5}}
    cfg = _write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["coexist", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "coexist.json").read_text())["ordered"]
