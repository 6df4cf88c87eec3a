"""Strict configuration parsing and deterministic result emission.

Configurations are JSON objects; unknown keys are rejected so scenario
files cannot drift silently.  Every run writes a manifest embedding the
fully resolved configuration and its hash, and identical configurations
produce byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .coefficients import (FIELD_NAMES, CoefficientField, CoefficientSet,
                           PeriodicScalar, SpatialBump)
from .dispersal import Grid, Kernel
from .errors import ConfigError
from .simulator import Problem, SchemeConfig

_TOP_KEYS = {"coefficients", "grid", "kernel", "scheme", "scenario", "output",
             "seed"}
SVG_WIDTH = 640
SVG_HEIGHT = 400


@contextmanager
def _section(d, allowed: set, where: str):
    """Reads the JSON object ``d`` inside the block: a key outside
    ``allowed``, a missing key or a malformed value is a ConfigError
    naming ``where``."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, not {d!r}")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    try:
        yield d
    except KeyError as exc:
        raise ConfigError(f"{where} needs {exc}") from None
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"malformed value in {where}: {exc}") from None


def parse_periodic_scalar(d: dict, period: float, where: str) -> PeriodicScalar:
    kinds = {"constant", "harmonic", "table"}
    with _section(d, kinds | {"bump"}, where):
        if len(kinds & set(d)) != 1:
            raise ConfigError(f"{where} needs exactly one of {sorted(kinds)}")
        if "constant" in d:
            return PeriodicScalar.constant(float(d["constant"]), period)
        if "table" in d:
            return PeriodicScalar.table(d["table"], period)
    with _section(d["harmonic"], {"mean", "amplitude", "phase"},
                  f"{where}.harmonic") as h:
        return PeriodicScalar.harmonic(float(h["mean"]), float(h["amplitude"]),
                                       float(h.get("phase", 0.0)), period)


def parse_bump(d: dict, where: str) -> SpatialBump:
    with _section(d, {"amplitude", "width", "plateau", "ramp", "M0"}, where):
        if ("width" in d) == ("plateau" in d):
            raise ConfigError(f"{where} needs exactly one of width or plateau")
        plateau = (float(d["width"]) / 2.0 if "width" in d
                   else float(d["plateau"]))
        bump = SpatialBump(float(d["amplitude"]), plateau,
                           float(d.get("ramp", 0.0)))
        if "M0" in d and float(d["M0"]) < bump.support_radius - 1e-12:
            raise ConfigError(f"{where}: declared M0 is smaller than the bump "
                              "support plateau + ramp")
    return bump


def parse_coefficients(d: dict) -> CoefficientSet:
    fields = {}
    with _section(d, set(FIELD_NAMES) | {"period"}, "coefficients"):
        period = float(d["period"])
        for name in FIELD_NAMES:
            spec, where = d[name], f"coefficients.{name}"
            scalar = parse_periodic_scalar(spec, period, where)
            bump = (parse_bump(spec["bump"], f"{where}.bump")
                    if "bump" in spec else None)
            fields[name] = CoefficientField(scalar, bump)
    return CoefficientSet(**fields)


def parse_grid(d: dict) -> Grid:
    with _section(d, {"x_min", "x_max", "n"}, "grid"):
        return Grid(float(d["x_min"]), float(d["x_max"]), int(d["n"]))


def parse_kernel(d: dict, grid: Grid) -> Kernel:
    with _section(d, {"shape", "radius"}, "kernel"):
        return Kernel.build(str(d["shape"]), float(d["radius"]), grid.h)


def parse_scheme(d: dict, period: float) -> SchemeConfig:
    with _section(d, {"dt", "steps_per_period"}, "scheme"):
        if ("dt" in d) == ("steps_per_period" in d):
            raise ConfigError(
                "scheme needs exactly one of dt or steps_per_period")
        return SchemeConfig(float(d["dt"]) if "dt" in d
                            else period / int(d["steps_per_period"]))


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
    with _section(raw, _TOP_KEYS, "configuration"):
        cs = parse_coefficients(raw["coefficients"])
    grid = parse_grid(raw["grid"]) if "grid" in raw else None
    kernel = None
    if "kernel" in raw:
        if grid is None:
            raise ConfigError("kernel requires a grid section")
        kernel = parse_kernel(raw["kernel"], grid)
    scheme = (parse_scheme(raw["scheme"], cs.period)
              if "scheme" in raw else None)
    scenario = raw.get("scenario", {})
    if not isinstance(scenario, dict) or "name" not in scenario:
        raise ConfigError("scenario section needs at least a name")
    with _section(raw.get("output", {}), {"formats"}, "output") as output:
        formats = output.get("formats", ["csv", "json"])
    if not isinstance(formats, list):
        raise ConfigError(f"output.formats must be a list, not {formats!r}")
    for fmt in formats:
        if fmt not in ("csv", "json", "svg"):
            raise ConfigError(f"unknown output format {fmt!r}")
    with _section(raw, _TOP_KEYS, "seed"):
        seed = int(raw.get("seed", 0))
    return RunConfig(cs, grid, kernel, scheme, scenario, tuple(formats),
                     seed, raw)


def load_config(path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
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
    np.savetxt(path, np.asarray(list(rows), dtype=float), fmt="%.12g",
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
    """The one writer of result files.  Each method writes its file, and
    lists it for the manifest, only when the configuration selected the
    file's format; :meth:`finish` writes the manifest embedding the
    resolved configuration."""

    def __init__(self, out_dir, config: RunConfig):
        self.out_dir = Path(out_dir)
        self.config = config
        self.files: list[str] = []

    def _path(self, name: str, fmt: str) -> Optional[Path]:
        if fmt not in self.config.output_formats:
            return None
        self.files.append(name)
        self.out_dir.mkdir(parents=True, exist_ok=True)
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
        self.out_dir.mkdir(parents=True, exist_ok=True)
        write_json(self.out_dir / "manifest.json",
                   {"config": self.config.raw,
                    "config_sha256": self.config.config_hash(),
                    "files": sorted(self.files)})
