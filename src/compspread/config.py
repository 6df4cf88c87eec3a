"""Strict configuration parsing and deterministic result emission.

Configurations are JSON objects read through tables of typed kinds: an
unknown key or a malformed value is a ConfigError naming its key path.
Every run writes a manifest embedding the fully resolved configuration and
its hash, and identical configurations produce byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .coefficients import (FIELD_NAMES, CoefficientField, CoefficientSet,
                           PeriodicScalar, SpatialBump)
from .dispersal import MAX_SIZE, Grid, Kernel
from .errors import ConfigError
from .simulator import Problem, SchemeConfig

SVG_WIDTH = 640
SVG_HEIGHT = 400


def is_number(v) -> bool:
    """v is a finite JSON number, not a string or a boolean."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


# Kinds of configuration value: (what a value must be, its test, its
# conversion); a dict of keys (kind, default), the default being REQUIRED,
# OPTIONAL (left out when the key is) or the value an unset key takes; or a
# one-kind list, for a nonempty list of values of that kind.
REQUIRED, OPTIONAL = object(), object()
NUMBER = ("a finite number", is_number, float)
POSITIVE = ("a positive number", lambda v: is_number(v) and v > 0, float)
COUNT = ("an integer >= 1",
         lambda v: type(v) is int and is_number(v) and v >= 1, int)
SIZE = (f"an integer from 1 to {MAX_SIZE}",
        lambda v: type(v) is int and 1 <= v <= MAX_SIZE, int)
TEXT = ("a string", lambda v: isinstance(v, str), str)
_KNOT = ("a [t, v] number pair", lambda v: isinstance(v, list)
         and len(v) == 2 and all(map(is_number, v)),
         lambda v: tuple(map(float, v)))
_BUMP = {"amplitude": (NUMBER, REQUIRED), "width": (NUMBER, OPTIONAL),
         "plateau": (NUMBER, OPTIONAL), "ramp": (NUMBER, 0.0),
         "M0": (NUMBER, OPTIONAL)}
_FIELD = {"constant": (NUMBER, OPTIONAL),
          "harmonic": ({"mean": (NUMBER, REQUIRED),
                        "amplitude": (NUMBER, REQUIRED),
                        "phase": (NUMBER, 0.0)}, OPTIONAL),
          "table": ([_KNOT], OPTIONAL), "bump": (_BUMP, OPTIONAL)}
# The whole configuration; the scenario's own keys are the command's to read.
_CONFIG = {
    "coefficients": ({"period": (POSITIVE, REQUIRED),
                      **{name: (_FIELD, REQUIRED) for name in FIELD_NAMES}},
                     REQUIRED),
    "grid": ({"x_min": (NUMBER, REQUIRED), "x_max": (NUMBER, REQUIRED),
              "n": (SIZE, REQUIRED)}, OPTIONAL),
    "kernel": ({"shape": (TEXT, REQUIRED), "radius": (POSITIVE, REQUIRED)},
               OPTIONAL),
    "scheme": ({"dt": (POSITIVE, OPTIONAL),
                "steps_per_period": (SIZE, OPTIONAL)}, OPTIONAL),
    "scenario": (("an object with a name",
                  lambda v: isinstance(v, dict) and "name" in v,
                  lambda v: v), {}),
    "output": ({"formats": (("a list of 'csv', 'json' or 'svg'",
                             lambda v: isinstance(v, list) and all(
                                 f in ("csv", "json", "svg") for f in v),
                             tuple), ["csv", "json"])}, {}),
    "seed": (("an integer >= 0",
              lambda v: type(v) is int and is_number(v) and v >= 0, int), 0),
}


def read(kind, v, where: str):
    """The JSON value v at ``where`` (the whole configuration when empty)
    read as ``kind``, or ConfigError naming ``where``."""
    if isinstance(kind, dict):
        name = where or "configuration"
        if not isinstance(v, dict):
            raise ConfigError(f"{name} must be a JSON object, not {v!r}")
        unknown = set(v) - set(kind)
        if unknown:
            raise ConfigError(f"unknown key(s) {sorted(unknown)} in {name}")
        out = {}
        for key, (sub, default) in kind.items():
            if key not in v and default is REQUIRED:
                raise ConfigError(f"{name} needs {key!r}")
            if key in v or default is not OPTIONAL:
                out[key] = read(sub, v.get(key, default),
                                f"{where}.{key}" if where else key)
        return out
    if isinstance(kind, list):
        if not isinstance(v, list) or v == []:
            raise ConfigError(f"{where} must be a nonempty list, not {v!r}")
        return [read(kind[0], e, f"{where}[{i}]") for i, e in enumerate(v)]
    what, test, convert = kind
    if not test(v):
        raise ConfigError(f"{where} must be {what}, not {v!r}")
    return convert(v)


def _one_of(d: dict, keys: tuple, where: str) -> str:
    """The one key of ``keys`` that ``d`` holds, or ConfigError."""
    held = [k for k in keys if k in d]
    if len(held) != 1:
        raise ConfigError(f"{where} needs exactly one of {list(keys)}")
    return held[0]


def _coefficient_field(d: dict, period: float, where: str) -> CoefficientField:
    kind = _one_of(d, ("constant", "harmonic", "table"), where)
    if kind == "harmonic":
        scalar = PeriodicScalar.harmonic(**d[kind], period=period)
    else:  # PeriodicScalar.constant(value, period) or .table(knots, period)
        scalar = getattr(PeriodicScalar, kind)(d[kind], period)
    if "bump" not in d:
        return CoefficientField(scalar)
    b, where = d["bump"], f"{where}.bump"
    plateau = (b["width"] / 2.0
               if _one_of(b, ("width", "plateau"), where) == "width"
               else b["plateau"])
    bump = SpatialBump(b["amplitude"], plateau, b["ramp"])
    if "M0" in b and b["M0"] < bump.support_radius - 1e-12:
        raise ConfigError(f"{where}: declared M0 is smaller than the bump "
                          "support plateau + ramp")
    return CoefficientField(scalar, bump)


@dataclass
class RunConfig:
    """Fully resolved run configuration."""

    coefficients: CoefficientSet
    grid: Optional[Grid]
    kernel: Optional[Kernel]
    scheme: Optional[SchemeConfig]
    scenario: dict
    output_formats: tuple[str, ...]
    seed: int
    raw: dict = field(repr=False, default_factory=dict)

    def problem(self) -> Problem:
        if self.grid is None:
            raise ConfigError("this scenario needs a grid section")
        return Problem(self.coefficients, self.grid, self.kernel)

    def config_hash(self) -> str:
        return hashlib.sha256(canonical_json(self.raw).encode()).hexdigest()


def parse_config(raw: dict) -> RunConfig:
    c = read(_CONFIG, raw, "")
    coeffs = c["coefficients"]
    cs = CoefficientSet(**{name: _coefficient_field(
        coeffs[name], coeffs["period"], f"coefficients.{name}")
        for name in FIELD_NAMES})
    grid = Grid(**c["grid"]) if "grid" in c else None
    kernel = None
    if "kernel" in c:
        if grid is None:
            raise ConfigError("kernel requires a grid section")
        radius = c["kernel"]["radius"]
        if not grid.holds_kernel(radius):
            raise ConfigError(f"kernel.radius {radius!r} must stay below half "
                              f"the grid span [{grid.x_min!r}, {grid.x_max!r}]")
        kernel = Kernel.build(c["kernel"]["shape"], radius, grid.h)
    scheme = None
    if "scheme" in c:
        s = c["scheme"]
        step = _one_of(s, ("dt", "steps_per_period"), "scheme")
        scheme = SchemeConfig(s["dt"] if step == "dt"
                              else cs.period / s["steps_per_period"])
        # dt must divide the period in at most MAX_SIZE steps.
        scheme.steps_per_period(cs.period)
    return RunConfig(cs, grid, kernel, scheme, c["scenario"],
                     c["output"]["formats"], c["seed"], raw)


def load_config(path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(
            f"cannot read {path}: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return parse_config(raw)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# deterministic emission
# ---------------------------------------------------------------------------

def write_csv(path: Path, header: list[str], rows) -> None:
    """Rows of numbers (any iterable of rows, or an array) as CSV, each
    value as ``%.12g``."""
    # An open file, not a path, which np.savetxt would pass through numpy's
    # DataSource: URL and compressed-name checks, and gzip imported on the
    # first call.
    with open(path, "w") as fh:
        np.savetxt(fh, np.asarray(list(rows), dtype=float), fmt="%.12g",
                   delimiter=",", header=",".join(header), comments="")


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_svg_polyline(path: Path, xs, ys, title: str) -> None:
    """Minimal deterministic SVG line plot (convenience view of the CSVs)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = np.isfinite(xs) & np.isfinite(ys)
    xs, ys = xs[keep], ys[keep]
    if xs.size == 0:
        xs = ys = np.zeros(1)
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    sx = (SVG_WIDTH - 80) / (x1 - x0 if x1 > x0 else 1.0)
    sy = (SVG_HEIGHT - 80) / (y1 - y0 if y1 > y0 else 1.0)
    pts = " ".join(
        f"{40 + (x - x0) * sx:.2f},{SVG_HEIGHT - 40 - (y - y0) * sy:.2f}"
        for x, y in zip(xs, ys))
    svg = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
           f'height="{SVG_HEIGHT}"><title>{title}</title>'
           f'<rect width="100%" height="100%" fill="white"/>'
           f'<polyline points="{pts}" fill="none" stroke="black" '
           f'stroke-width="1"/></svg>\n')
    path.write_text(svg)


class ResultWriter:
    """The one writer of result files, into the existing directory
    ``out_dir``.  Each method writes its file, and lists it for the
    manifest, only when the configuration selected the file's format;
    :meth:`finish` writes the manifest embedding the resolved
    configuration."""

    def __init__(self, out_dir, config: RunConfig):
        self.out_dir = Path(out_dir)
        self.config = config
        self.files: list[str] = []

    def _path(self, name: str, fmt: str) -> Optional[Path]:
        if fmt not in self.config.output_formats:
            return None
        self.files.append(name)
        return self.out_dir / name

    def csv(self, name: str, header: list[str], rows) -> None:
        path = self._path(name, "csv")
        if path is not None:
            write_csv(path, header, rows)

    def json(self, name: str, obj) -> None:
        path = self._path(name, "json")
        if path is not None:
            write_json(path, obj)

    def svg(self, name: str, xs, ys, title: str) -> None:
        path = self._path(name, "svg")
        if path is not None:
            write_svg_polyline(path, xs, ys, title)

    def finish(self) -> None:
        write_json(self.out_dir / "manifest.json",
                   {"config": self.config.raw,
                    "config_sha256": self.config.config_hash(),
                    "files": sorted(self.files)})
