import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compspread
from compspread.cli import main
from compspread.presets import PRESETS

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


def test_speed_grid_scan_flag(tmp_path):
    cfg = _write_config(tmp_path, _speed_config())
    out = tmp_path / "o"
    assert main(["speed", "--config", str(cfg), "--out", str(out),
                 "--mu-grid-only"]) == 0
    speed = json.loads((out / "speed.json").read_text())
    assert abs(speed["value"] - 2 * np.sqrt(0.8)) < 1e-3


def test_unknown_config_key_is_exit_2(tmp_path, capsys):
    bad = _speed_config()
    bad["grids"] = {}
    cfg = _write_config(tmp_path, bad)
    assert main(["speed", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 2
    assert "unknown key" in capsys.readouterr().err


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


def test_cli_import_leaves_out_scipy_integrate():
    # scipy.integrate costs about 0.25 s of import; only the RK45 reference
    # routes in periodic_orbits load it, inside their own bodies.
    src = str(Path(compspread.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, compspread.cli; "
            "assert 'scipy.integrate' not in sys.modules, 'scipy.integrate imported'")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_homogeneous_spectrum_point_leaves_out_arpack():
    # A homogeneous problem settles on the constant field's bracket, so
    # scipy.sparse.linalg (ARPACK) stays unloaded by the CLI and by it.
    src = str(Path(compspread.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, compspread.cli\n"
            "from compspread.dispersal import Grid\n"
            "from compspread.spectrum import LinearProblem, "
            "principal_spectrum_point\n"
            "res = principal_spectrum_point(LinearProblem("
            "0.5, 'random', Grid(-5.0, 5.0, 101), 1.0, baseline=0.8))\n"
            "assert res.periods == 1, res.periods\n"
            "assert 'scipy.sparse.linalg' not in sys.modules, "
            "'scipy.sparse.linalg imported'")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
