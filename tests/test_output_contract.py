"""The output contract of the command line: a successful run leaves exactly
``manifest.json`` and the files its manifest lists, each one of a format
the configuration selected, and the same configuration gives the same
bytes."""

import hashlib
import json

import numpy as np
import pytest

from compspread.cli import main
from compspread.config import write_csv

CANONICAL = {
    "period": 1.0,
    "a1": {"constant": 1.0},
    "b1": {"constant": 1.0},
    "c1": {"constant": 0.5},
    "a2": {"constant": 0.4},
    "b2": {"constant": 0.5},
    "c2": {"constant": 1.0},
}

CONFIGS = {
    "speed": {"coefficients": CANONICAL,
              "scenario": {"name": "speed", "mu_points": 20}},
    "spectrum": {"coefficients": CANONICAL,
                 "scenario": {"name": "spectrum", "mu_points": 20}},
    "verify-super": {"coefficients": CANONICAL,
                     "grid": {"x_min": -40.0, "x_max": 160.0, "n": 201},
                     "scenario": {"name": "verify-super", "eps": 0.05,
                                  "time_samples": 5}},
}

ALL_FORMATS = ("csv", "json", "svg")

# sha256 of every file of the run with all three formats selected.
PINNED = {
    "speed": {
        "manifest.json":
        "07f64c65731523436cfefbef5caaea96f163ad8fcbf56cce2350b1c9c185bee1",
        "dispersion.csv":
        "286e36a1516deb43b904a1fef909912490abd2700bf7300d70126b063f83bfd3",
        "dispersion.svg":
        "f8982f45c107776a2667fbe69030be03248bd7b7710ea5eecd2c6e2df9c63abf",
        "speed.json":
        "64d35865b6cd51a6460d0b76490455dd9091a526e3f7ebd4be46aa9954996c59",
    },
    "spectrum": {
        "manifest.json":
        "fe6e115893adcdebd37726fc04519ec53061aebb78cd7f9f79a37ff9ed8c358b",
        "dispersion.csv":
        "20aa1a81620066352f2eb1faec32bb11ff5931097cf2f7e964cbcffac8aa9679",
        "dispersion.svg":
        "59984d5dd3fa74c6a8e76c558a79ad678861d252c2fda26804d43ec4ac5d8384",
    },
    "verify-super": {
        "manifest.json":
        "fcb0aba586c99c67fba8091f1dcd83617af2e6d67d7856c5b58fd6bbb947bbab",
        "region.csv":
        "f4c6e6a8a87295d20476423fc6b3f9bba985b635b4ba9cea992b4b8de3facd39",
        "verify.json":
        "1dce01e773fff5ff7db362c53166ea35ae703b0ed3518460c9980a95a2cea835",
    },
}


# sha256 of interval.json from ``sweep --preset canonical-h1h2``, the one
# byte-level pin on the transformed front run.
INTERVAL_SHA256 = (
    "7fab6f042777216cad7fff84574531094bbfe7c790baa5d4ef4b5d9d1ee79349")


# sha256 of the files of ``destabilize --preset remark31-destabilize``,
# which reads the invasion rate at the homogeneous u-resident.
DESTABILIZE_SHA256 = {
    "destabilize.json":
    "db5e4981108a732f288681719e423a866a971eb277719a94026f339d522b5646",
    "manifest.json":
    "823295558e258716cdd09b595a18d46961e7a7d0bbd1cf8f51d0cb4cf24b005f",
}


# sha256 of interval.json from ``sweep --preset bump-not-slower``, the
# transformed front run through a localized dip of a1.
BUMP_NOT_SLOWER_SHA256 = (
    "35f30300fb8c159e5f07c4ba517eee5a91f0dc525d5f42a32d5fbdbc52c72711")


# sha256 of the files of ``simulate --preset kpp-control``, the
# single-species front: v is identically zero, so u reacts at a scalar rate.
# The run steps a window that follows the front, and snapshot.csv holds the
# final window's rows.
KPP_CONTROL_SHA256 = {
    "fronts.csv":
    "3924006c392d8c8f688bdd0687116232826e5d32e371a038b579358a313dc584",
    "manifest.json":
    "e9a7cb674f495a536f47ad7694355b9f198bf8cbc8df4aa5b56a9f69e7c277c3",
    "snapshot.csv":
    "87c555fc6117e19d1783d507fd6c38bfafed3d6bbf58230bb73758554ac59ab5",
    "summary.json":
    "13be71ac75c68f14a8e2582b7c7441214f4667b0dc3fcba475c97ec0df5d6307",
}


# sha256 of the files of ``coexist`` and ``persistence`` on the
# ``thm41-coexistence`` preset, the two solvers that read both invasion
# verdicts.
COEXIST_SHA256 = {
    "coexist.json":
    "ae9614e120ba03bce070b6321460bfd13adc1d7abcd72db2118244462494b05a",
    "coexistence.csv":
    "66798974968a3884f1c578348841fc0ee926ef187adccdc72f3198c6d268234b",
    "manifest.json":
    "2330db5fc168f95114daf6f1834dadfc4c3ae050449dfd4087596494481b6b54",
}
PERSISTENCE_SHA256 = {
    "manifest.json":
    "0f08a5591c86ed9d07c45f2ea376d2cae411d4b208125ea858ea55a9f8f4b2db",
    "persistence.json":
    "65b3eaa318a250aebad8d06efdadf9817e652c3e743dd822c9bfb183fffe720f",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_canonical_interval_is_pinned(tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", "--preset", "canonical-h1h2", "--out",
                 str(out)]) == 0
    assert _sha256(out / "interval.json") == INTERVAL_SHA256


def test_bump_not_slower_interval_is_pinned(tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", "--preset", "bump-not-slower", "--out",
                 str(out)]) == 0
    assert _sha256(out / "interval.json") == BUMP_NOT_SLOWER_SHA256


def test_destabilize_preset_is_pinned(tmp_path):
    out = tmp_path / "out"
    assert main(["destabilize", "--preset", "remark31-destabilize", "--out",
                 str(out)]) == 0
    assert {name: _sha256(out / name)
            for name in sorted(p.name for p in out.iterdir())} == \
        DESTABILIZE_SHA256


def test_kpp_control_preset_is_pinned(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--preset", "kpp-control", "--out",
                 str(out)]) == 0
    assert {name: _sha256(out / name)
            for name in sorted(p.name for p in out.iterdir())} == \
        KPP_CONTROL_SHA256


@pytest.mark.parametrize("command, pinned", [
    ("coexist", COEXIST_SHA256), ("persistence", PERSISTENCE_SHA256)])
def test_thm41_solvers_are_pinned(tmp_path, command, pinned):
    out = tmp_path / "out"
    assert main([command, "--preset", "thm41-coexistence", "--out",
                 str(out)]) == 0
    assert {name: _sha256(out / name)
            for name in sorted(p.name for p in out.iterdir())} == pinned


@pytest.mark.parametrize("formats", [("json",), ("csv",), ALL_FORMATS])
@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_output_directory_holds_the_manifest_and_its_files(tmp_path, command,
                                                           formats):
    cfg = dict(CONFIGS[command], output={"formats": list(formats)})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    files = manifest["files"]
    assert files == sorted(set(files))
    assert {p.name for p in out.iterdir()} == {"manifest.json", *files}
    assert {name.rsplit(".", 1)[1] for name in files} <= set(formats)
    if formats == ALL_FORMATS:
        assert {name: _sha256(out / name)
                for name in ["manifest.json", *files]} == PINNED[command]


def _per_value_csv(header, rows) -> str:
    """CSV with each float as ``{:.12g}`` and any other value as str()."""
    def fmt(v):
        return f"{v:.12g}" if isinstance(v, (float, np.floating)) else str(v)
    return "".join(",".join(map(fmt, row)) + "\n"
                   for row in [header, *rows])


@pytest.mark.parametrize("rows", [
    [(0.1, float("nan"), 3), (float("inf"), -float("inf"), 0),
     (-0.0, 1e-300, 1), (2.0 / 3.0, -1e12, 7)],
    np.column_stack((np.linspace(-1.0, 1.0, 7), np.arange(7.0) ** 0.5)),
    [],
])
def test_write_csv_matches_the_per_value_format(tmp_path, rows):
    header = [f"c{j}" for j in range(len(rows[0]) if len(rows) else 3)]
    path = tmp_path / "t.csv"
    write_csv(path, header, (row for row in rows))
    assert path.read_text() == _per_value_csv(header, rows)
