"""Configuration-driven command line: every computation as a subcommand.

Exit codes: 0 success, 2 configuration error, 3 precondition (hypothesis)
failure, 4 convergence failure, 5 numerical guard.  On exit codes 2-5 the
error is also written to ``error.json`` in the output directory.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from .coefficients import FIELD_NAMES, SpatialBump
from .config import (COUNT, NUMBER, OPTIONAL, POSITIVE, REQUIRED, SIZE,
                     TEXT, ResultWriter, RunConfig, is_number, load_config,
                     parse_config, read, write_json)
from .dispersal import MAX_SIZE, boundary_margin
from .errors import CompspreadError, ConfigError
from .presets import preset_config
from .simulator import (FrontObserver, SystemState, make_scheme, ramp_profile,
                        run_periods)
from .semitrivial import destabilizing_bump
from .spreading import (DISPERSION_BRACKET, continuity_sweep,
                        dispersion_curve, dispersion_speed, fit_front_speed,
                        invasion_mean_rate, speed_interval)
from .verify import (ansatz_equation_residual, build_supersolution,
                     check_ansatz_inequalities, monotone_coexistence,
                     persistence_probe, supersolution_residual)


# The scenario's own kinds of value, beside compspread.config's.
_BRACKET = ("a pair [lo, hi] with 0 < lo < hi",
            lambda v: isinstance(v, (list, tuple)) and len(v) == 2
            and all(map(is_number, v)) and 0 < v[0] < v[1],
            lambda v: tuple(map(float, v)))
_FIELD = (f"one of {list(FIELD_NAMES)}", lambda v: v in FIELD_NAMES, str)
_ORIGINAL = ("'original'", lambda v: v == "original", str)
# simulate's initial front, u_level and v_level times a ramp from 1 left of
# x0 down to 0 at x0 + ramp; and one bump of a sweep intervals matrix.
_FRONT = {"x0": (NUMBER, 0.0), "ramp": (NUMBER, 2.0),
          "u_level": (NUMBER, 0.5), "v_level": (NUMBER, 0.0)}
_INTERVAL = {"field": (_FIELD, "a1"), "amplitude": (NUMBER, REQUIRED),
             "width": (NUMBER, 4.0), "ramp": (NUMBER, 0.5)}


# Every subcommand's scenario keys, listed in README's "Command line":
# key -> (kind, library keyword, default).  A key with a keyword feeds that
# keyword of the library call when the scenario sets it, so the library's
# default holds otherwise (OPTIONAL); a key without one is the command's
# own, with its default written here.
_SCENARIO_KEYS = {
    "speed": {"bracket": (_BRACKET, None, DISPERSION_BRACKET),
              "mu_points": (SIZE, None, 200)},
    "spectrum": {"bracket": (_BRACKET, None, (1e-2, 4.0)),
                 "mu_points": (SIZE, None, 200)},
    "simulate": {"variables": (_ORIGINAL, None, OPTIONAL),
                 "periods": (COUNT, None, 20), "front": (_FRONT, None, {}),
                 "theta": (NUMBER, None, OPTIONAL)},
    "persistence": {"trials": (COUNT, "n_trials", OPTIONAL),
                    "mode": (TEXT, "mode", OPTIONAL),
                    "settle_tol": (POSITIVE, "settle_tol", OPTIONAL),
                    "periods": (COUNT, "max_periods", OPTIONAL)},
    "coexist": {"seed_eps": (POSITIVE, "seed_eps", OPTIONAL),
                "tol": (POSITIVE, "tol", OPTIONAL),
                "periods": (COUNT, "max_periods", OPTIONAL)},
    "destabilize": {"widths": ([NUMBER], "widths", OPTIONAL),
                    "h": (POSITIVE, "h", OPTIONAL),
                    "pad": (POSITIVE, "pad", OPTIONAL)},
    "verify-super": {"eps": (POSITIVE, None, 0.05),
                     "K": (POSITIVE, "K_init", OPTIONAL),
                     "time_samples": (SIZE, None, 17)},
    "sweep": {"eps": ([NUMBER], "eps_list", OPTIONAL),
              "field": (_FIELD, "field_name", OPTIONAL),
              "periods": (COUNT, None, 100), "x0": (NUMBER, None, -20.0),
              "ramp": (NUMBER, None, 2.0),
              "intervals": ([_INTERVAL], None, OPTIONAL)},
}


def _read_scenario(cfg: RunConfig, args) -> tuple[dict, dict]:
    """The command's own scenario values by key, and the library keywords
    the scenario sets, with ``--periods`` in place of ``periods`` (refused
    where the command has none).  Keys are strict when the scenario was
    written for this command; otherwise other commands' keys are dropped,
    so any command runs on any preset's coefficient setup."""
    keys = _SCENARIO_KEYS[args.command]
    names = ("sweep", "interval") if args.command == "sweep" else (args.command,)
    strict = cfg.scenario.get("name") in names
    sc = {k: v for k, v in cfg.scenario.items()
          if k in keys or (strict and k != "name")}
    if args.periods is not None:
        if "periods" not in keys:
            raise ConfigError(f"--periods: {args.command} has no period count")
        sc["periods"] = read(COUNT, args.periods, "--periods")
    values = read({k: (kind, default) for k, (kind, _, default)
                   in keys.items()}, sc, "scenario")
    keywords = {keys[k][1]: v for k, v in values.items() if keys[k][1]}
    return {k: v for k, v in values.items() if not keys[k][1]}, keywords


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


def cmd_speed(cfg: RunConfig, writer: ResultWriter, args) -> None:
    bracket = args.scenario["bracket"]
    est = dispersion_speed(cfg.coefficients.baselines(), cfg.kernel, bracket)
    _write_dispersion(writer, cfg, bracket, args.scenario["mu_points"])
    writer.json("speed.json", asdict(est))
    print(f"c0* = {est.value:.5f}, mu* = {est.mu_star:.5f}")


def cmd_spectrum(cfg: RunConfig, writer: ResultWriter, args) -> None:
    points = args.scenario["mu_points"]
    _write_dispersion(writer, cfg, args.scenario["bracket"], points)
    mean_alpha = invasion_mean_rate(cfg.coefficients.baselines())
    print(f"lambda(0) = {mean_alpha:.6f} over {points} tilt samples")


def cmd_simulate(cfg: RunConfig, writer: ResultWriter, args) -> None:
    periods, front = args.scenario["periods"], args.scenario["front"]
    problem = cfg.problem()
    scheme = cfg.scheme or make_scheme(problem)
    prof = ramp_profile(problem.grid.x, front["x0"], front["ramp"])
    state = SystemState(0.0, front["u_level"] * prof, front["v_level"] * prof)
    theta = args.scenario.get("theta", 0.5 * front["u_level"])
    obs = FrontObserver("front_u", problem.grid, theta, lambda s: s.u,
                        boundary_margin(problem.grid, problem.kernel))
    state, records = run_periods(state, problem, scheme, periods, [obs])
    positions = records.series[obs.name]
    writer.csv("fronts.csv", ["t", obs.name],
               np.column_stack((records.times, positions)))
    # The run stepped a window that followed the front; cells it left
    # behind are stale, so the snapshot is the final window.
    rows = records.window
    writer.csv("snapshot.csv", ["x", "u", "v"],
               np.column_stack((problem.grid.x[rows], state.u[rows],
                                state.v[rows])))
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


def cmd_persistence(cfg: RunConfig, writer: ResultWriter, args) -> None:
    problem = cfg.problem()
    scheme = cfg.scheme or make_scheme(problem)
    report = persistence_probe(problem, scheme, seed=cfg.seed, **args.keywords)
    writer.json("persistence.json", report.to_json_dict())
    print(f"persistence floor eta = {report.eta:.6f} ({report.mode}, "
          f"{report.failures} failures, {report.unsettled} unsettled)")


def cmd_coexist(cfg: RunConfig, writer: ResultWriter, args) -> None:
    problem = cfg.problem()
    scheme = cfg.scheme or make_scheme(problem)
    result = monotone_coexistence(problem, scheme, **args.keywords)
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


def cmd_destabilize(cfg: RunConfig, writer: ResultWriter, args) -> None:
    kernel_spec = None
    if cfg.kernel is not None:
        kernel_spec = (cfg.kernel.shape, cfg.kernel.nominal_radius)
    result = destabilizing_bump(cfg.coefficients, kernel_spec=kernel_spec,
                                **args.keywords)
    writer.json("destabilize.json", {
        "amplitude": result.bump.amplitude,
        "width": 2.0 * result.bump.plateau,
        "lam_bump": result.lam_bump,
        "lam_total": result.lam_total,
        "threshold": result.threshold,
        "scanned": [list(s) for s in result.scanned]})
    print(f"destabilizing bump: amplitude {result.bump.amplitude:.2f}, "
          f"width {2 * result.bump.plateau:.1f}, exponent {result.lam_total:.5f}")


def cmd_verify_super(cfg: RunConfig, writer: ResultWriter, args) -> None:
    eps = args.scenario["eps"]
    if cfg.grid is None:
        raise ConfigError("verify-super needs a grid section")
    samples = args.scenario["time_samples"]
    if samples * cfg.grid.n > MAX_SIZE:
        raise ConfigError(f"scenario.time_samples {samples} times grid.n "
                          f"{cfg.grid.n} is more than {MAX_SIZE} points")
    spec = build_supersolution(cfg.coefficients, eps, cfg.kernel,
                               **args.keywords)
    ineq = check_ansatz_inequalities(spec)
    res_phi, res_psi = ansatz_equation_residual(spec)
    times = np.linspace(0.0, cfg.coefficients.period, samples)
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


def cmd_sweep(cfg: RunConfig, writer: ResultWriter, args) -> None:
    sc = args.scenario
    if cfg.scenario.get("name") == "interval" or "intervals" in sc:
        # The speed interval of the configuration, or of each bump of the
        # intervals matrix written onto it.
        problem, problems = cfg.problem(), {}
        for e in sc.get("intervals", ()):
            key = f"amp{e['amplitude']:+g}_w{e['width']:g}"
            if key in problems:
                raise ConfigError("scenario.intervals repeats the job key "
                                  f"{key!r} (amplitude and width)")
            bump = SpatialBump(e["amplitude"], e["width"] / 2, e["ramp"])
            problems[key] = replace(problem, coefficients=cfg.coefficients
                                    .with_bump_on(e["field"], bump))
        problems = problems or {"base": problem}
        jobs = (problems.values(),
                [cfg.scheme or make_scheme(p) for p in problems.values()],
                repeat(sc["periods"]), repeat(sc["x0"]), repeat(sc["ramp"]))
        # The pool forks all its processes at the first submit.
        workers = min(args.workers, len(problems), os.cpu_count() or 1)
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                outs = list(pool.map(speed_interval, *jobs))
        else:
            outs = list(map(speed_interval, *jobs))
        results = {k: asdict(r) for k, r in sorted(zip(problems, outs))}
        writer.json("interval.json", results)
        first = next(iter(results.values()))
        print(f"speed interval ({len(results)} scenario(s)): "
              f"[{first['lower']['value']:.5f}, "
              f"{first['upper']['value']:.5f}] vs "
              f"c0* = {first['theoretical']['value']:.5f}")
        return
    if args.periods is not None:
        raise ConfigError("--periods: a continuity sweep has no period count")
    table = continuity_sweep(cfg.coefficients, cfg.kernel, **args.keywords)
    writer.csv("sweep.csv", ["eps", "speed", "mu_star", "delta_from_base"],
               table.to_rows())
    writer.json("sweep.json", {
        "base_speed": table.base_speed, "monotone": table.monotone,
        "h2_holds": table.h2_holds,
        "rows": [list(r) for r in table.to_rows()]})
    print(f"sweep over {len(table.rows)} shifts; base c0* = "
          f"{table.base_speed:.5f}, monotone approach: {table.monotone}")


# Subcommands in the order ``--help`` lists them.  A handler fails only by
# raising a CompspreadError.
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
    its diagnostics when it carries any.  It is not a result file, so no
    manifest lists it.  When out_dir could not be created, the error stays
    on stderr alone."""
    record = {"type": type(exc).__name__, "message": str(exc),
              "exit_code": exc.exit_code}
    if exc.diagnostics is not None:
        record["diagnostics"] = _json_safe(exc.diagnostics)
    try:
        write_json(out_dir / "error.json", record)
    except OSError as err:
        print(f"error.json not written: {err}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise ConfigError(f"--out {str(args.out)!r} cannot be an output "
                              f"directory: {err.strerror or err}") from None
        args.workers = read(COUNT, args.workers, "--workers")
        if args.preset:
            cfg = parse_config(preset_config(args.preset))
        else:
            cfg = load_config(args.config)
        args.scenario, args.keywords = _read_scenario(cfg, args)
        writer = ResultWriter(args.out, cfg)
        _HANDLERS[args.command](cfg, writer, args)
        writer.finish()
        return 0
    except CompspreadError as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        if 2 <= exc.exit_code <= 5:
            _write_error(args.out, exc)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
