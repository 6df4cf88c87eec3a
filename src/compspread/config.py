"""Strict configuration parsing and deterministic result emission.

Configurations are JSON objects; unknown keys are rejected so scenario
files cannot drift silently.  Every run writes a manifest embedding the
fully resolved configuration and its hash, and identical configurations
produce byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .coefficients import (CoefficientField, CoefficientSet, PeriodicScalar,
                           SpatialBump)
from .dispersal import Grid, Kernel
from .errors import ConfigError
from .simulator import Problem, SchemeConfig

_TOP_KEYS = {"coefficients", "grid", "kernel", "scheme", "scenario", "output",
             "seed"}
_COEFF_NAMES = ("a1", "b1", "c1", "a2", "b2", "c2")
SVG_WIDTH = 640
SVG_HEIGHT = 400


def _require_keys(d: dict, allowed: set, where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def parse_periodic_scalar(d: dict, period: float, where: str) -> PeriodicScalar:
    kinds = {"constant", "harmonic", "table"}
    _require_keys(d, kinds | {"bump"}, where)
    present = [k for k in kinds if k in d]
    if len(present) != 1:
        raise ConfigError(f"{where} needs exactly one of {sorted(kinds)}")
    kind = present[0]
    if kind == "constant":
        return PeriodicScalar.constant(float(d["constant"]), period)
    if kind == "harmonic":
        h = d["harmonic"]
        _require_keys(h, {"mean", "amplitude", "phase"}, f"{where}.harmonic")
        return PeriodicScalar.harmonic(float(h["mean"]), float(h["amplitude"]),
                                       float(h.get("phase", 0.0)), period)
    return PeriodicScalar.table(d["table"], period)


def parse_bump(d: dict, where: str) -> SpatialBump:
    _require_keys(d, {"amplitude", "width", "plateau", "ramp", "M0"}, where)
    amp = float(d["amplitude"])
    ramp = float(d.get("ramp", 0.0))
    if "width" in d:
        if "plateau" in d:
            raise ConfigError(f"{where}: give width or plateau, not both")
        plateau = float(d["width"]) / 2.0
    elif "plateau" in d:
        plateau = float(d["plateau"])
    else:
        raise ConfigError(f"{where}: bump needs width or plateau")
    bump = SpatialBump(amp, plateau, ramp)
    if "M0" in d and float(d["M0"]) < bump.support_radius - 1e-12:
        raise ConfigError(f"{where}: declared M0 is smaller than the bump "
                          "support plateau + ramp")
    return bump


def parse_coefficients(d: dict) -> CoefficientSet:
    _require_keys(d, set(_COEFF_NAMES) | {"period"}, "coefficients")
    if "period" not in d:
        raise ConfigError("coefficients section needs a period")
    period = float(d["period"])
    fields = {}
    for name in _COEFF_NAMES:
        if name not in d:
            raise ConfigError(f"coefficients section is missing {name}")
        spec = d[name]
        scalar = parse_periodic_scalar(spec, period, f"coefficients.{name}")
        bump = (parse_bump(spec["bump"], f"coefficients.{name}.bump")
                if "bump" in spec else None)
        fields[name] = CoefficientField(scalar, bump)
    return CoefficientSet(**fields)


def parse_grid(d: dict) -> Grid:
    _require_keys(d, {"x_min", "x_max", "n"}, "grid")
    return Grid(float(d["x_min"]), float(d["x_max"]), int(d["n"]))


def parse_kernel(d: dict, grid: Grid) -> Kernel:
    _require_keys(d, {"shape", "radius"}, "kernel")
    return Kernel.build(str(d["shape"]), float(d["radius"]), grid.h)


def parse_scheme(d: dict, period: float) -> SchemeConfig:
    _require_keys(d, {"dt", "steps_per_period"}, "scheme")
    if ("dt" in d) == ("steps_per_period" in d):
        raise ConfigError("scheme needs exactly one of dt or steps_per_period")
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

    @property
    def kind(self) -> str:
        return "nonlocal" if self.kernel is not None else "random"

    def problem(self) -> Problem:
        if self.grid is None:
            raise ConfigError("this scenario needs a grid section")
        return Problem(self.coefficients, self.grid, self.kernel)

    def config_hash(self) -> str:
        return hashlib.sha256(canonical_json(self.raw).encode()).hexdigest()


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    _require_keys(raw, _TOP_KEYS, "configuration")
    if "coefficients" not in raw:
        raise ConfigError("configuration needs a coefficients section")
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
    output = raw.get("output", {})
    _require_keys(output, {"formats"}, "output")
    formats = tuple(output.get("formats", ["csv", "json"]))
    for fmt in formats:
        if fmt not in ("csv", "json", "svg"):
            raise ConfigError(f"unknown output format {fmt!r}")
    return RunConfig(cs, grid, kernel, scheme, scenario, formats,
                     int(raw.get("seed", 0)), raw)


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
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{v:.12g}"
    return str(v)


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
    """Collects emitted files and finishes with a manifest embedding the
    resolved configuration."""

    def __init__(self, out_dir, config: RunConfig):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.config = config
        self.files: list[str] = []

    def path(self, name: str) -> Path:
        self.files.append(name)
        return self.out_dir / name

    def finish(self) -> Path:
        manifest = {"config": self.config.raw,
                    "config_sha256": self.config.config_hash(),
                    "files": sorted(self.files)}
        out = self.out_dir / "manifest.json"
        write_json(out, manifest)
        return out
