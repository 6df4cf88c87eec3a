"""Configuration-driven command line: every computation as a subcommand.

Exit codes: 0 success, 2 configuration error, 3 precondition (hypothesis)
failure, 4 convergence failure, 5 numerical guard.  On exit codes 2-5 the
error is also written to ``error.json`` in the output directory.
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .config import (ResultWriter, RunConfig, load_config, parse_config,
                     write_json)
from .errors import CompspreadError, ConfigError, ConvergenceError
from .presets import preset_config
from .simulator import (FrontObserver, SystemState, make_scheme, ramp_profile,
                        run_periods)
from .semitrivial import destabilizing_bump
from .spreading import (continuity_sweep, dispersion_curve, dispersion_speed,
                        fit_front_speed, invasion_mean_rate, speed_interval)
from .verify import (ansatz_equation_residual, build_supersolution,
                     check_ansatz_inequalities, monotone_coexistence,
                     persistence_probe, supersolution_residual)

def _scenario(cfg: RunConfig, allowed: set[str],
              names: tuple[str, ...] = ()) -> dict:
    """Scenario parameters; keys are validated strictly when the scenario
    was written for this subcommand, and filtered otherwise (so any
    subcommand can run against any preset's coefficient setup)."""
    sc = dict(cfg.scenario)
    if not names or sc.get("name") in names:
        unknown = set(sc) - allowed - {"name"}
        if unknown:
            raise ConfigError(f"unknown scenario key(s) {sorted(unknown)}")
        return sc
    return {k: v for k, v in sc.items() if k in allowed or k == "name"}


def _write_dispersion(writer: ResultWriter, cfg: RunConfig, bracket,
                      points: int) -> None:
    """dispersion.csv and dispersion.svg: lambda(mu) and lambda(mu)/mu at
    points tilts spread evenly over the bracket."""
    mus, lams = dispersion_curve(cfg.coefficients.baselines(), cfg.kernel,
                                 np.linspace(bracket[0], bracket[1], points))
    speeds = lams / mus
    writer.csv("dispersion.csv", ["mu", "lambda", "lambda_over_mu"],
               zip(mus, lams, speeds))
    writer.svg("dispersion.svg", mus, speeds, "dispersion curve")


def cmd_speed(cfg: RunConfig, writer: ResultWriter, args) -> int:
    sc = _scenario(cfg, {"bracket", "mu_points"}, ("speed",))
    bracket = tuple(sc.get("bracket", (1e-2, 8.0)))
    est = dispersion_speed(cfg.coefficients.baselines(), cfg.kernel, bracket)
    _write_dispersion(writer, cfg, bracket, int(sc.get("mu_points", 200)))
    writer.json("speed.json", asdict(est))
    print(f"c0* = {est.value:.5f}, mu* = {est.mu_star:.5f}")
    return 0


def cmd_spectrum(cfg: RunConfig, writer: ResultWriter, args) -> int:
    sc = _scenario(cfg, {"bracket", "mu_points"}, ("spectrum",))
    points = int(sc.get("mu_points", 200))
    _write_dispersion(writer, cfg, tuple(sc.get("bracket", (1e-2, 4.0))),
                      points)
    mean_alpha = invasion_mean_rate(cfg.coefficients.baselines())
    print(f"lambda(0) = {mean_alpha:.6f} over {points} tilt samples")
    return 0


def cmd_simulate(cfg: RunConfig, writer: ResultWriter, args) -> int:
    sc = _scenario(cfg, {"variables", "periods", "front", "theta"}, ("simulate",))
    periods = int(args.periods or sc.get("periods", 20))
    problem = cfg.problem()
    scheme = cfg.scheme or make_scheme(problem)
    front = sc.get("front", {})
    x0 = float(front.get("x0", 0.0))
    ramp = float(front.get("ramp", 2.0))
    u_level = float(front.get("u_level", 0.5))
    v_level = float(front.get("v_level", 0.0))
    prof = ramp_profile(problem.grid.x, x0, ramp)
    state = SystemState(0.0, u_level * prof, v_level * prof)
    theta = float(sc.get("theta", 0.5 * u_level))
    obs = FrontObserver(problem.grid, theta, "u", kernel=problem.kernel)
    state, records = run_periods(state, problem, scheme, periods, [obs])
    positions = records.series[obs.name]
    writer.csv("fronts.csv", ["t", obs.name],
               np.column_stack((records.times, positions)))
    writer.csv("snapshot.csv", ["x", "u", "v"],
               np.column_stack((problem.grid.x, state.u, state.v)))
    summary = {"periods": periods, "theta": theta}
    try:
        est = fit_front_speed(records.times, positions,
                              cfg.coefficients.period)
        summary["front_speed"] = asdict(est)
    except CompspreadError as exc:
        summary["front_speed"] = None
        summary["fit_warning"] = str(exc)
    writer.json("summary.json", summary)
    writer.svg("fronts.svg", records.times, positions, "front position")
    speed_txt = (f"{summary['front_speed']['value']:.5f}"
                 if summary.get("front_speed") else "n/a")
    print(f"front speed = {speed_txt} over {periods} periods")
    return 0


def cmd_persistence(cfg: RunConfig, writer: ResultWriter, args) -> int:
    sc = _scenario(cfg, {"trials", "mode", "settle_tol", "periods"}, ("persistence",))
    problem = cfg.problem()
    scheme = cfg.scheme or make_scheme(problem)
    report = persistence_probe(
        problem, scheme, n_trials=int(sc.get("trials", 5)), seed=cfg.seed,
        mode=sc.get("mode", "auto"),
        settle_tol=float(sc.get("settle_tol", 1e-6)),
        max_periods=int(args.periods or sc.get("periods", 2000)))
    writer.json("persistence.json", report.to_json_dict())
    print(f"persistence floor eta = {report.eta:.6f} ({report.mode}, "
          f"{report.failures} failures, {report.unsettled} unsettled)")
    return 0


def cmd_coexist(cfg: RunConfig, writer: ResultWriter, args) -> int:
    sc = _scenario(cfg, {"seed_eps", "tol", "periods"}, ("coexist",))
    problem = cfg.problem()
    scheme = cfg.scheme or make_scheme(problem)
    result = monotone_coexistence(
        problem, scheme, seed_eps=float(sc.get("seed_eps", 1e-2)),
        tol=float(sc.get("tol", 1e-6)),
        max_periods=int(args.periods or sc.get("periods", 3000)))
    writer.csv("coexistence.csv",
               ["x", "u_upper", "v_upper", "u_lower", "v_lower"],
               np.column_stack((problem.grid.x, result.upper[0],
                                result.upper[1], result.lower[0],
                                result.lower[1])))
    writer.json("coexist.json", {
        "periods": result.periods,
        "max_monotonicity_violation": result.max_monotonicity_violation,
        "wrap_residual": result.wrap_residual,
        "ordered": result.ordered,
        "u_range": [float(result.lower[0].min()), float(result.upper[0].max())],
        "v_range": [float(result.upper[1].min()), float(result.lower[1].max())]})
    print(f"coexistence reached in {result.periods} periods "
          f"(wrap residual {result.wrap_residual:.2e})")
    return 0


def cmd_destabilize(cfg: RunConfig, writer: ResultWriter, args) -> int:
    sc = _scenario(cfg, {"widths", "h", "pad"}, ("destabilize",))
    kernel_spec = None
    if cfg.kernel is not None:
        kernel_spec = (cfg.kernel.shape, cfg.kernel.nominal_radius)
    result = destabilizing_bump(
        cfg.coefficients, kernel_spec=kernel_spec,
        widths=tuple(sc.get("widths", (1.0, 2.0, 4.0, 8.0))),
        h=float(sc.get("h", 0.1)), pad=float(sc.get("pad", 25.0)))
    writer.json("destabilize.json", {
        "amplitude": result.bump.amplitude,
        "width": 2.0 * result.bump.plateau,
        "lam_bump": result.lam_bump,
        "lam_total": result.lam_total,
        "threshold": result.threshold,
        "scanned": [list(s) for s in result.scanned]})
    print(f"destabilizing bump: amplitude {result.bump.amplitude:.2f}, "
          f"width {2 * result.bump.plateau:.1f}, exponent {result.lam_total:.5f}")
    return 0


def cmd_verify_super(cfg: RunConfig, writer: ResultWriter, args) -> int:
    sc = _scenario(cfg, {"eps", "K", "time_samples"}, ("verify-super",))
    eps = float(sc.get("eps", 0.05))
    if cfg.grid is None:
        raise ConfigError("verify-super needs a grid section")
    spec = build_supersolution(cfg.coefficients, eps, cfg.kernel,
                               K_init=float(sc.get("K", 10.0)))
    ineq = check_ansatz_inequalities(spec)
    res_phi, res_psi = ansatz_equation_residual(spec)
    times = np.linspace(0.0, cfg.coefficients.period,
                        int(sc.get("time_samples", 17)))
    report = supersolution_residual(spec, cfg.grid, times)
    writer.json("verify.json", {
        "eps": eps, "mu_star": spec.mu, "speed": spec.c,
        "lam": spec.lam, "K": spec.K, "k": spec.k,
        "M_star": spec.M_star, "m_star": spec.m_star,
        "inequalities": {"holds": ineq.holds,
                         "margins": dict(zip(ineq.labels, ineq.margins))},
        "ansatz_residuals": [res_phi, res_psi],
        "residual_report": report.to_json_dict()})
    writer.csv("region.csv", ["t", "x", "in_region"],
               ((t, x, 1) for t, mask in zip(times, report.region_mask)
                for x in cfg.grid.x[mask]))
    status = "PASS" if (report.passed and ineq.holds) else "FAIL"
    print(f"super-solution check {status}: residual floor "
          f"({report.min_residual_u:.3e}, {report.min_residual_v:.3e})")
    return 0


def _interval_job(payload):
    raw, periods, x0, ramp = payload
    cfg = parse_config(raw)
    problem = cfg.problem()
    scheme = cfg.scheme or make_scheme(problem)
    result = speed_interval(problem, scheme, periods, x0, ramp)
    return {"lower": asdict(result.lower), "upper": asdict(result.upper),
            "theoretical": asdict(result.theoretical)}


def _coefficient_name(cfg: RunConfig, name) -> str:
    """name when it names one of the six coefficient fields, else
    ConfigError."""
    names = sorted(cfg.coefficients.fields())
    if name not in names:
        raise ConfigError(f"unknown coefficient field {name!r}; expected one "
                          f"of {names}")
    return name


def _bumped_raw(cfg: RunConfig, entry: dict) -> dict:
    import copy

    name = _coefficient_name(cfg, entry.get("field", "a1"))
    if "amplitude" not in entry:
        raise ConfigError("each scenario.intervals entry needs an amplitude")
    bump = {"amplitude": entry["amplitude"], "width": entry.get("width", 4.0),
            "ramp": entry.get("ramp", 0.5)}
    for key, value in bump.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(
                f"scenario.intervals {key} must be a number, not {value!r}")
    out = copy.deepcopy(cfg.raw)
    spec = dict(out["coefficients"][name])
    spec["bump"] = bump
    out["coefficients"][name] = spec
    return out


def cmd_sweep(cfg: RunConfig, writer: ResultWriter, args) -> int:
    sc = _scenario(cfg, {"eps", "field", "periods", "x0", "ramp", "intervals"},
                   ("sweep", "interval"))
    name = cfg.scenario.get("name")
    if name == "interval" or "intervals" in sc:
        periods = int(args.periods or sc.get("periods", 100))
        x0 = float(sc.get("x0", -20.0))
        ramp = float(sc.get("ramp", 2.0))
        if "intervals" in sc:
            jobs = {}
            for entry in sc["intervals"]:
                raw = _bumped_raw(cfg, entry)
                key = f"amp{entry['amplitude']:+g}_w{entry.get('width', 4.0):g}"
                if key in jobs:
                    raise ConfigError("scenario.intervals repeats the job "
                                      f"key {key!r} (amplitude and width)")
                jobs[key] = (raw, periods, x0, ramp)
        else:
            jobs = {"base": (cfg.raw, periods, x0, ramp)}
        if args.workers > 1 and len(jobs) > 1:
            with ProcessPoolExecutor(max_workers=args.workers) as pool:
                outs = list(pool.map(_interval_job, jobs.values()))
            results = dict(zip(jobs, outs))
        else:
            results = {key: _interval_job(payload)
                       for key, payload in jobs.items()}
        results = {k: results[k] for k in sorted(results)}
        writer.json("interval.json", results)
        first = next(iter(results.values()))
        print(f"speed interval ({len(results)} scenario(s)): "
              f"[{first['lower']['value']:.5f}, "
              f"{first['upper']['value']:.5f}] vs "
              f"c0* = {first['theoretical']['value']:.5f}")
        return 0
    eps_list = tuple(float(e) for e in sc.get("eps", (0.2, 0.1, 0.05)))
    table = continuity_sweep(cfg.coefficients, cfg.kernel, eps_list,
                             _coefficient_name(cfg, sc.get("field", "a1")))
    writer.csv("sweep.csv", ["eps", "speed", "mu_star", "delta_from_base"],
               table.to_rows())
    writer.json("sweep.json", {
        "base_speed": table.base_speed, "monotone": table.monotone,
        "h2_holds": table.h2_holds,
        "rows": [list(r) for r in table.to_rows()]})
    print(f"sweep over {len(eps_list)} shifts; base c0* = "
          f"{table.base_speed:.5f}, monotone approach: {table.monotone}")
    return 0


# Subcommands in the order ``--help`` lists them.
_HANDLERS = {
    "speed": cmd_speed,
    "simulate": cmd_simulate,
    "spectrum": cmd_spectrum,
    "persistence": cmd_persistence,
    "coexist": cmd_coexist,
    "destabilize": cmd_destabilize,
    "verify-super": cmd_verify_super,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compspread",
        description="Periodic two-species competition laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--config", type=Path, help="JSON configuration file")
        src.add_argument("--preset", type=str, help="shipped scenario preset")
        p.add_argument("--out", type=Path, default=Path("results"),
                       help="output directory")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--periods", type=int, default=None,
                       help="override the scenario period count")
    return parser


def _json_safe(obj):
    """obj as plain JSON values: numpy scalars and arrays become Python
    numbers and lists, tuples become lists, and a nonfinite float becomes
    its name ("inf", "nan")."""
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    elif isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return str(obj)


def _write_error(out_dir: Path, exc: CompspreadError) -> None:
    """error.json in out_dir: the error's type, message and exit code, and
    a ConvergenceError's diagnostics.  It is not a result file, so no
    manifest lists it."""
    record = {"type": type(exc).__name__, "message": str(exc),
              "exit_code": exc.exit_code}
    if isinstance(exc, ConvergenceError):
        record["diagnostics"] = _json_safe(exc.diagnostics)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "error.json", record)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.preset:
            cfg = parse_config(preset_config(args.preset))
        else:
            cfg = load_config(args.config)
        writer = ResultWriter(args.out, cfg)
        code = _HANDLERS[args.command](cfg, writer, args)
        if code == 0:
            writer.finish()
        return code
    except CompspreadError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        if 2 <= exc.exit_code <= 5:
            _write_error(args.out, exc)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
