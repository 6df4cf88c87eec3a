"""Configuration-driven command line: every computation as a subcommand.

Exit codes: 0 success, 2 configuration error, 3 precondition (hypothesis)
failure, 4 convergence failure, 5 numerical guard.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .config import (ResultWriter, RunConfig, load_config, parse_config,
                     write_csv, write_json, write_svg_polyline)
from .errors import CompspreadError, ConfigError
from .presets import preset_config
from .simulator import (FrontObserver, SystemState, make_scheme, ramp_profile,
                        run_periods, snapshot_to_csv)
from .semitrivial import destabilizing_bump
from .spreading import (SpeedEstimate, continuity_sweep, dispersion_curve,
                        dispersion_grid_scan, dispersion_speed,
                        fit_front_speed, invasion_mean_rate, speed_interval)
from .verify import (ansatz_equation_residual, build_supersolution,
                     check_ansatz_inequalities, monotone_coexistence,
                     persistence_probe, supersolution_residual)

_SUBCOMMANDS = ("speed", "simulate", "spectrum", "persistence", "coexist",
                "destabilize", "verify-super", "sweep")


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


def _speed_estimate_dict(est: SpeedEstimate) -> dict:
    return {"value": est.value, "kind": est.kind, "mu_star": est.mu_star,
            "stderr": est.stderr, "r_squared": est.r_squared,
            "window": list(est.window) if est.window else None,
            "warning": est.warning}


def _dispersion_rows(cfg: RunConfig, bracket, points: int):
    mus = np.linspace(bracket[0], bracket[1], points)
    mus, lams = dispersion_curve(cfg.coefficients.baselines(), cfg.kind,
                                 cfg.kernel, mus)
    return [(mu, lam, lam / mu) for mu, lam in zip(mus, lams)]


def _emit_dispersion(writer: ResultWriter, cfg: RunConfig, rows) -> None:
    if "csv" in cfg.output_formats:
        write_csv(writer.path("dispersion.csv"),
                  ["mu", "lambda", "lambda_over_mu"], rows)
    if "svg" in cfg.output_formats:
        arr = np.asarray(rows)
        write_svg_polyline(writer.path("dispersion.svg"), arr[:, 0],
                           arr[:, 2], "dispersion curve")


def cmd_speed(cfg: RunConfig, out_dir: Path, args) -> int:
    sc = _scenario(cfg, {"bracket", "mu_points"}, ("speed",))
    bracket = tuple(sc.get("bracket", (1e-2, 8.0)))
    base = cfg.coefficients.baselines()
    if args.mu_grid_only:
        est = dispersion_grid_scan(base, cfg.kind, cfg.kernel, bracket)
    else:
        est = dispersion_speed(base, cfg.kind, cfg.kernel, bracket)
    writer = ResultWriter(out_dir, cfg)
    _emit_dispersion(writer, cfg, _dispersion_rows(cfg, bracket,
                                                   int(sc.get("mu_points", 200))))
    if "json" in cfg.output_formats:
        write_json(writer.path("speed.json"), _speed_estimate_dict(est))
    writer.finish()
    print(f"c0* = {est.value:.5f}, mu* = {est.mu_star:.5f}")
    return 0


def cmd_spectrum(cfg: RunConfig, out_dir: Path, args) -> int:
    sc = _scenario(cfg, {"bracket", "mu_points"}, ("spectrum",))
    bracket = tuple(sc.get("bracket", (1e-2, 4.0)))
    rows = _dispersion_rows(cfg, bracket, int(sc.get("mu_points", 200)))
    writer = ResultWriter(out_dir, cfg)
    _emit_dispersion(writer, cfg, rows)
    writer.finish()
    mean_alpha = invasion_mean_rate(cfg.coefficients.baselines())
    print(f"lambda(0) = {mean_alpha:.6f} over {len(rows)} tilt samples")
    return 0


def cmd_simulate(cfg: RunConfig, out_dir: Path, args) -> int:
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
    writer = ResultWriter(out_dir, cfg)
    if "csv" in cfg.output_formats:
        records.to_csv(writer.path("fronts.csv"))
        snapshot_to_csv(writer.path("snapshot.csv"), problem.grid, state)
    summary = {"periods": periods, "theta": theta}
    try:
        est = fit_front_speed(records.times, records.series[obs.name],
                              cfg.coefficients.period)
        summary["front_speed"] = _speed_estimate_dict(est)
    except CompspreadError as exc:
        summary["front_speed"] = None
        summary["fit_warning"] = str(exc)
    if "json" in cfg.output_formats:
        write_json(writer.path("summary.json"), summary)
    if "svg" in cfg.output_formats:
        write_svg_polyline(writer.path("fronts.svg"), records.times,
                           records.series[obs.name], "front position")
    writer.finish()
    speed_txt = (f"{summary['front_speed']['value']:.5f}"
                 if summary.get("front_speed") else "n/a")
    print(f"front speed = {speed_txt} over {periods} periods")
    return 0


def cmd_persistence(cfg: RunConfig, out_dir: Path, args) -> int:
    sc = _scenario(cfg, {"trials", "mode", "settle_tol", "periods"}, ("persistence",))
    problem = cfg.problem()
    scheme = cfg.scheme or make_scheme(problem)
    report = persistence_probe(
        problem, scheme, n_trials=int(sc.get("trials", 5)), seed=cfg.seed,
        mode=sc.get("mode", "auto"),
        settle_tol=float(sc.get("settle_tol", 1e-6)),
        max_periods=int(args.periods or sc.get("periods", 2000)))
    writer = ResultWriter(out_dir, cfg)
    if "json" in cfg.output_formats:
        write_json(writer.path("persistence.json"), report.to_json_dict())
    writer.finish()
    print(f"persistence floor eta = {report.eta:.6f} ({report.mode}, "
          f"{report.failures} failures, {report.unsettled} unsettled)")
    return 0


def cmd_coexist(cfg: RunConfig, out_dir: Path, args) -> int:
    sc = _scenario(cfg, {"seed_eps", "tol", "periods"}, ("coexist",))
    problem = cfg.problem()
    scheme = cfg.scheme or make_scheme(problem)
    result = monotone_coexistence(
        problem, scheme, seed_eps=float(sc.get("seed_eps", 1e-2)),
        tol=float(sc.get("tol", 1e-6)),
        max_periods=int(args.periods or sc.get("periods", 3000)))
    writer = ResultWriter(out_dir, cfg)
    if "csv" in cfg.output_formats:
        rows = np.column_stack((problem.grid.x, result.upper[0],
                                result.upper[1], result.lower[0],
                                result.lower[1]))
        write_csv(writer.path("coexistence.csv"),
                  ["x", "u_upper", "v_upper", "u_lower", "v_lower"], rows)
    if "json" in cfg.output_formats:
        write_json(writer.path("coexist.json"), {
            "periods": result.periods,
            "max_monotonicity_violation": result.max_monotonicity_violation,
            "wrap_residual": result.wrap_residual,
            "ordered": result.ordered,
            "u_range": [float(result.lower[0].min()), float(result.upper[0].max())],
            "v_range": [float(result.upper[1].min()), float(result.lower[1].max())]})
    writer.finish()
    print(f"coexistence reached in {result.periods} periods "
          f"(wrap residual {result.wrap_residual:.2e})")
    return 0


def cmd_destabilize(cfg: RunConfig, out_dir: Path, args) -> int:
    sc = _scenario(cfg, {"widths", "h", "pad"}, ("destabilize",))
    kernel_spec = None
    if cfg.kernel is not None:
        kernel_spec = (cfg.kernel.shape, cfg.kernel.nominal_radius)
    result = destabilizing_bump(
        cfg.coefficients, kernel_spec=kernel_spec,
        widths=tuple(sc.get("widths", (1.0, 2.0, 4.0, 8.0))),
        h=float(sc.get("h", 0.1)), pad=float(sc.get("pad", 25.0)))
    writer = ResultWriter(out_dir, cfg)
    if "json" in cfg.output_formats:
        write_json(writer.path("destabilize.json"), {
            "amplitude": result.bump.amplitude,
            "width": 2.0 * result.bump.plateau,
            "lam_bump": result.lam_bump,
            "lam_total": result.lam_total,
            "threshold": result.threshold,
            "scanned": [list(s) for s in result.scanned]})
    writer.finish()
    print(f"destabilizing bump: amplitude {result.bump.amplitude:.2f}, "
          f"width {2 * result.bump.plateau:.1f}, exponent {result.lam_total:.5f}")
    return 0


def cmd_verify_super(cfg: RunConfig, out_dir: Path, args) -> int:
    sc = _scenario(cfg, {"eps", "K", "time_samples"}, ("verify-super",))
    eps = float(sc.get("eps", 0.05))
    if cfg.grid is None:
        raise ConfigError("verify-super needs a grid section")
    spec = build_supersolution(cfg.coefficients, eps, cfg.kind, cfg.kernel,
                               K_init=float(sc.get("K", 10.0)))
    ineq = check_ansatz_inequalities(spec)
    res_phi, res_psi = ansatz_equation_residual(spec)
    times = np.linspace(0.0, cfg.coefficients.period,
                        int(sc.get("time_samples", 17)))
    report = supersolution_residual(spec, cfg.grid, times)
    writer = ResultWriter(out_dir, cfg)
    if "json" in cfg.output_formats:
        write_json(writer.path("verify.json"), {
            "eps": eps, "mu_star": spec.mu, "speed": spec.c,
            "lam": spec.lam, "K": spec.K, "k": spec.k,
            "M_star": spec.M_star, "m_star": spec.m_star,
            "inequalities": {"holds": ineq.holds,
                             "margins": dict(zip(ineq.labels, ineq.margins))},
            "ansatz_residuals": [res_phi, res_psi],
            "residual_report": report.to_json_dict()})
    if "csv" in cfg.output_formats:
        rows = []
        for i, t in enumerate(times):
            mask = report.region_mask[i]
            rows.extend((t, x, 1) for x in cfg.grid.x[mask])
        write_csv(writer.path("region.csv"), ["t", "x", "in_region"], rows)
    writer.finish()
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
    return {"lower": _speed_estimate_dict(result.lower),
            "upper": _speed_estimate_dict(result.upper),
            "theoretical": _speed_estimate_dict(result.theoretical)}


def _bumped_raw(raw: dict, entry: dict) -> dict:
    import copy

    out = copy.deepcopy(raw)
    name = entry.get("field", "a1")
    spec = dict(out["coefficients"][name])
    spec["bump"] = {"amplitude": entry["amplitude"],
                    "width": entry.get("width", 4.0),
                    "ramp": entry.get("ramp", 0.5)}
    out["coefficients"][name] = spec
    return out


def cmd_sweep(cfg: RunConfig, out_dir: Path, args) -> int:
    sc = _scenario(cfg, {"eps", "field", "periods", "x0", "ramp", "intervals"},
                   ("sweep", "interval"))
    name = cfg.scenario.get("name")
    writer = ResultWriter(out_dir, cfg)
    if name == "interval" or "intervals" in sc:
        periods = int(args.periods or sc.get("periods", 100))
        x0 = float(sc.get("x0", -20.0))
        ramp = float(sc.get("ramp", 2.0))
        if "intervals" in sc:
            jobs = [(f"amp{entry['amplitude']:+g}_w{entry.get('width', 4.0):g}",
                     (_bumped_raw(cfg.raw, entry), periods, x0, ramp))
                    for entry in sc["intervals"]]
        else:
            jobs = [("base", (cfg.raw, periods, x0, ramp))]
        if args.workers > 1 and len(jobs) > 1:
            with ProcessPoolExecutor(max_workers=args.workers) as pool:
                outs = list(pool.map(_interval_job, [p for _, p in jobs]))
            results = dict(zip([k for k, _ in jobs], outs))
        else:
            results = {key: _interval_job(payload) for key, payload in jobs}
        results = {k: results[k] for k in sorted(results)}
        if "json" in cfg.output_formats:
            write_json(writer.path("interval.json"), results)
        writer.finish()
        first = next(iter(results.values()))
        print(f"speed interval ({len(results)} scenario(s)): "
              f"[{first['lower']['value']:.5f}, "
              f"{first['upper']['value']:.5f}] vs "
              f"c0* = {first['theoretical']['value']:.5f}")
        return 0
    eps_list = tuple(float(e) for e in sc.get("eps", (0.2, 0.1, 0.05)))
    table = continuity_sweep(cfg.coefficients, cfg.kind, cfg.kernel, eps_list,
                             sc.get("field", "a1"))
    if "csv" in cfg.output_formats:
        write_csv(writer.path("sweep.csv"),
                  ["eps", "speed", "mu_star", "delta_from_base"],
                  table.to_rows())
    if "json" in cfg.output_formats:
        write_json(writer.path("sweep.json"), {
            "base_speed": table.base_speed, "monotone": table.monotone,
            "h2_holds": table.h2_holds,
            "rows": [list(r) for r in table.to_rows()]})
    writer.finish()
    print(f"sweep over {len(eps_list)} shifts; base c0* = "
          f"{table.base_speed:.5f}, monotone approach: {table.monotone}")
    return 0


_HANDLERS = {
    "speed": cmd_speed,
    "spectrum": cmd_spectrum,
    "simulate": cmd_simulate,
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
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--config", type=Path, help="JSON configuration file")
        src.add_argument("--preset", type=str, help="shipped scenario preset")
        p.add_argument("--out", type=Path, default=Path("results"),
                       help="output directory")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--periods", type=int, default=None,
                       help="override the scenario period count")
        p.add_argument("--mu-grid-only", action="store_true",
                       help="grid scan instead of golden-section refinement")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.preset:
            cfg = parse_config(preset_config(args.preset))
        else:
            cfg = load_config(args.config)
        handler = _HANDLERS[args.command]
        return handler(cfg, args.out, args)
    except CompspreadError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
