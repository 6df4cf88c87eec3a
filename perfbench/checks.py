"""Judging each operation's answer against the references.

``load_answer`` reads what an operation produced (CLI output files, or the
values a solver call returned) into a plain dict; each check takes the
operation and that dict and returns a ``Verdict``: the problems found (empty
when the answer is right) and the errors that feed ``lam_err`` and
``speed_err``.  Checks never compare with a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import references as ref

EXPONENT_TOL = 1e-5
SPEED_RTOL = 0.05
FLAT_TOL = 1e-4
TAIL_TOL = 1e-3
TAIL_X = 20.0
MONO_SLACK = 1e-10
ORDER_SLACK = 1e-9
BOX_SLACK = 1e-9


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    lam_errors: list[float] = field(default_factory=list)
    speed_errors: list[float] = field(default_factory=list)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def _read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        rows = list(csv.reader(fh))
    data = np.array(rows[1:], dtype=float)
    return {name: data[:, i] for i, name in enumerate(rows[0])}


def load_answer(op: dict, result: dict) -> dict:
    """The values a check needs, read from one operation's result."""
    if op["call"] != "cli":
        return {"lam": result["lam"]}
    out = Path(result["out_dir"])
    check = op["check"]
    if check == "kpp":
        summary = json.loads((out / "summary.json").read_text())
        snap = _read_csv(out / "snapshot.csv")
        return {"speed": summary["front_speed"]["value"],
                "u": snap["u"], "v": snap["v"]}
    if check == "interval":
        scenario = json.loads((out / "interval.json").read_text())["base"]
        return {"lower": scenario["lower"]["value"],
                "upper": scenario["upper"]["value"]}
    if check == "dispersion":
        return _read_csv(out / "dispersion.csv")
    if check == "speed":
        return json.loads((out / "speed.json").read_text())
    if check == "destabilize":
        return json.loads((out / "destabilize.json").read_text())
    if check in ("coexist_flat", "coexist_bumped"):
        answer = json.loads((out / "coexist.json").read_text())
        answer.update(_read_csv(out / "coexistence.csv"))
        return answer
    if check == "persistence":
        return json.loads((out / "persistence.json").read_text())
    raise ValueError(f"no reader for check {check!r}")


def _coefficients(op: dict) -> dict:
    return op["config"]["coefficients"]


def _invasion_rate(op: dict) -> float:
    """Mean growth of u at the constant v-resident: mean a1 - c1*a2/c2."""
    c = _coefficients(op)
    a1 = c["a1"]
    a1_mean = a1["harmonic"]["mean"] if "harmonic" in a1 else a1["constant"]
    return ref.resident_invasion_exponent(a1_mean, c["c1"]["constant"],
                                          c["a2"]["constant"],
                                          c["c2"]["constant"])


def _invasion_speed(op: dict) -> float:
    """Closed-form c0* of the operation's coefficient set."""
    rate = _invasion_rate(op)
    if "kernel" in op["config"]:
        return ref.nonlocal_invasion_speed(rate, op["config"]["kernel"]["radius"])
    return ref.random_invasion_speed(rate)


def check_kpp(op: dict, ans: dict) -> Verdict:
    v = Verdict()
    gap = abs(ans["speed"] - ref.KPP_SPEED) / ref.KPP_SPEED
    v.speed_errors.append(gap)
    v.require(gap <= SPEED_RTOL, f"KPP speed {ans['speed']:.6f} is not within "
              f"5% of {ref.KPP_SPEED}")
    for name in ("u", "v"):
        lo, hi = float(np.min(ans[name])), float(np.max(ans[name]))
        v.require(lo >= -BOX_SLACK and hi <= 1.0 + BOX_SLACK,
                  f"snapshot {name} range [{lo:.3g}, {hi:.3g}] leaves [0, 1]")
    return v


def check_interval(op: dict, ans: dict) -> Verdict:
    v = Verdict()
    c0 = _invasion_speed(op)
    for side in ("lower", "upper"):
        gap = abs(ans[side] - c0) / c0
        if "kernel" not in op["config"]:
            v.speed_errors.append(gap)
        v.require(gap <= SPEED_RTOL, f"{side} speed {ans[side]:.6f} is not "
                  f"within 5% of c0* = {c0:.6f}")
    return v


def check_speed(op: dict, ans: dict) -> Verdict:
    v = Verdict()
    c0 = _invasion_speed(op)
    gap = abs(ans["value"] - c0) / c0
    v.speed_errors.append(gap)
    v.require(gap <= SPEED_RTOL, f"dispersion speed {ans['value']:.6f} is "
              f"not within 5% of c0* = {c0:.6f}")
    return v


def check_dispersion(op: dict, ans: dict) -> Verdict:
    """Tilted exponents lambda(mu) of the invader linearization against the
    closed form M(mu) - 1 + rate."""
    v = Verdict()
    rate = _invasion_rate(op)
    kind = "nonlocal" if "kernel" in op["config"] else "random"
    radius = op["config"].get("kernel", {}).get("radius", 1.0)
    expect = np.array([ref.tilted_homogeneous_exponent(mu, rate, kind, radius)
                       for mu in ans["mu"]])
    err = float(np.max(np.abs(ans["lambda"] - expect)))
    v.lam_errors.append(err)
    v.require(err <= EXPONENT_TOL, f"dispersion exponents miss the closed "
              f"form by {err:.3g}")
    return v


def _dense_exponent(problem: dict, bump: tuple, baseline: tuple) -> float:
    return ref.dense_exponent(problem["kind"], tuple(problem["grid"]),
                              problem["steps"], bump, baseline,
                              problem["kernel_radius"])


def check_exponent_dense(op: dict, ans: dict) -> Verdict:
    v = Verdict()
    p = op["problem"]
    b = p["bump"]
    base = p["baseline"]
    lam_ref = _dense_exponent(p, (b["amplitude"], b["plateau"], b["ramp"]),
                              (base["mean"], base["amplitude"], base["phase"]))
    err = abs(ans["lam"] - lam_ref)
    v.lam_errors.append(err)
    v.require(err <= EXPONENT_TOL, f"lambda {ans['lam']:.10f} misses the dense "
              f"reference {lam_ref:.10f} by {err:.3g}")
    return v


def check_exponent_tilted(op: dict, ans: dict) -> Verdict:
    v = Verdict()
    p = op["problem"]
    lam_ref = ref.tilted_homogeneous_exponent(
        p["mu"], p["baseline"]["mean"], p["kind"], p["kernel_radius"] or 1.0)
    err = abs(ans["lam"] - lam_ref)
    v.lam_errors.append(err)
    v.require(err <= EXPONENT_TOL, f"tilted lambda {ans['lam']:.10f} misses "
              f"the closed form {lam_ref:.10f} by {err:.3g}")
    return v


def check_exponent_invasion(op: dict, ans: dict) -> Verdict:
    """u invading the constant v-resident a2/c2 with growth a1 = const +
    bump: a spatially constant baseline a1 - c1*a2/c2 plus the bump."""
    v = Verdict()
    c = _coefficients(op)
    g = op["config"]["grid"]
    h = (g["x_max"] - g["x_min"]) / (g["n"] - 1)
    bump = c["a1"]["bump"]
    rate = _invasion_rate(op)
    # linearized_radius leaves the step count to the spectrum's own rule:
    # the smallest count with dt <= h^2, and at least 256.
    steps = max(256, math.ceil(c["period"] / h ** 2))
    lam_ref = ref.dense_exponent(
        "random", (g["x_min"], g["x_max"], g["n"]), steps,
        (bump["amplitude"], bump["width"] / 2.0, bump["ramp"]),
        (rate, 0.0, 0.0))
    err = abs(ans["lam"] - lam_ref)
    v.lam_errors.append(err)
    v.require(err <= EXPONENT_TOL, f"invasion exponent {ans['lam']:.10f} "
              f"misses the dense reference {lam_ref:.10f} by {err:.3g}")
    return v


# Grid and step rule of remark31-destabilize: destabilizing_bump samples
# candidates on [-m*h, m*h] with h = 0.1, m = ceil((width/2 + pad)/h),
# pad = 25, and 256 steps per period (at h = 0.1, 1/h^2 = 100 < 256).
DESTABILIZE_H = 0.1
DESTABILIZE_PAD = 25.0
DESTABILIZE_STEPS = 256


def check_destabilize(op: dict, ans: dict) -> Verdict:
    v = Verdict()
    # Canonical set: invader v at the u-resident a1/b1 = 1.
    lam_hom = ref.resident_invasion_exponent(0.4, 0.5, 1.0, 1.0)
    v.require(abs(-ans["threshold"] - lam_hom) <= EXPONENT_TOL,
              f"homogeneous exponent {-ans['threshold']:.8f} is not "
              f"{lam_hom} within 1e-5")
    m = math.ceil((ans["width"] / 2.0 + DESTABILIZE_PAD) / DESTABILIZE_H)
    problem = {"kind": "random", "grid": (-m * DESTABILIZE_H, m * DESTABILIZE_H,
                                          2 * m + 1),
               "steps": DESTABILIZE_STEPS, "kernel_radius": None}
    lam_bump = _dense_exponent(problem, (ans["amplitude"], ans["width"] / 2.0,
                                         0.0), (0.0, 0.0, 0.0))
    total_ref = lam_hom + lam_bump
    v.lam_errors += [abs(ans["lam_bump"] - lam_bump),
                     abs(ans["lam_total"] - total_ref)]
    v.require(ans["lam_bump"] > -lam_hom,
              f"lam_bump {ans['lam_bump']:.6f} does not exceed {-lam_hom}")
    v.require(ans["lam_total"] > 0.0,
              f"lam_total {ans['lam_total']:.6f} is not positive")
    v.require(abs(ans["lam_total"] - total_ref) <= EXPONENT_TOL,
              f"lam_total {ans['lam_total']:.10f} misses {total_ref:.10f} "
              "(-0.1 plus the dense exponent of the bump) by more than 1e-5")
    return v


def _coexist_common(ans: dict, v: Verdict) -> None:
    v.require(ans["max_monotonicity_violation"] <= MONO_SLACK,
              f"monotonicity violation {ans['max_monotonicity_violation']:.3g}"
              " exceeds 1e-10")
    v.require(bool(ans["ordered"]), "upper and lower pairs are not ordered")
    v.require(bool(np.all(ans["u_lower"] <= ans["u_upper"] + ORDER_SLACK)
                   and np.all(ans["v_upper"] <= ans["v_lower"] + ORDER_SLACK)),
              "output pairs violate u_lower <= u_upper, v_upper <= v_lower")


# thm41-coexistence and the residents configs share the weak set
# (1, 1, 0.5, 1, 0.5, 1) away from their bumps.
WEAK_LEVEL = ref.interior_equilibrium(1.0, 1.0, 0.5, 1.0, 0.5, 1.0)


def _level_error(ans: dict, where) -> float:
    level_u, level_v = WEAK_LEVEL
    return max(float(np.max(np.abs(ans[k][where] - level)))
               for k, level in (("u_upper", level_u), ("u_lower", level_u),
                                ("v_upper", level_v), ("v_lower", level_v)))


def check_coexist_flat(op: dict, ans: dict) -> Verdict:
    v = Verdict()
    _coexist_common(ans, v)
    err = _level_error(ans, slice(None))
    v.require(err <= FLAT_TOL, f"flat coexistence state misses "
              f"{WEAK_LEVEL} by {err:.3g}")
    return v


def check_coexist_bumped(op: dict, ans: dict) -> Verdict:
    v = Verdict()
    _coexist_common(ans, v)
    err = _level_error(ans, np.abs(ans["x"]) >= TAIL_X)
    v.require(err <= TAIL_TOL, f"tails at |x| >= {TAIL_X} miss {WEAK_LEVEL} "
              f"by {err:.3g}")
    return v


def check_persistence(op: dict, ans: dict) -> Verdict:
    v = Verdict()
    a1 = _coefficients(op)["a1"]
    box = (a1["constant"] + max(0.0, a1["bump"]["amplitude"])) \
        / _coefficients(op)["b1"]["constant"]
    v.require(0.0 < ans["eta"] < box, f"persistence floor {ans['eta']:.6g} "
              f"is not in (0, {box:.6g})")
    v.require(ans["failures"] == 0 and not any(t["failed"]
                                               for t in ans["trials"]),
              f"{ans['failures']} persistence trial(s) failed")
    return v


CHECKS = {
    "kpp": check_kpp,
    "interval": check_interval,
    "speed": check_speed,
    "dispersion": check_dispersion,
    "exponent_dense": check_exponent_dense,
    "exponent_tilted": check_exponent_tilted,
    "exponent_invasion": check_exponent_invasion,
    "destabilize": check_destabilize,
    "coexist_flat": check_coexist_flat,
    "coexist_bumped": check_coexist_bumped,
    "persistence": check_persistence,
}


def judge(op: dict, result: dict) -> Verdict:
    return CHECKS[op["check"]](op, load_answer(op, result))
