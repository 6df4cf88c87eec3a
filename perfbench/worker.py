"""One fresh interpreter: set up a workload, then (unless ``--setup-only``)
run one cold pass over its operations and write the result as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR
        [--setup-only] [--trace]

run.py starts this with ``PYTHONPATH`` pointing at the checkout's ``src``.
Set-up is importing ``compspread.cli`` plus generating and parsing the
workload's configurations; the pass times each operation around the call
into the program only.  Answers are judged later by run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter


def _set_up(workload: str, seed: int, out: Path) -> tuple[list, dict]:
    """Import the program, generate and parse the configurations; returns
    the operations with their parsed inputs, and the set-up timings."""
    t0 = perf_counter()
    import compspread.cli  # noqa: F401  (the import is what is timed)
    t1 = perf_counter()
    from compspread.config import load_config, parse_config
    from compspread.coefficients import PeriodicScalar, SpatialBump
    from compspread.dispersal import Grid, Kernel
    from compspread.presets import preset_config
    from compspread.spectrum import LinearProblem

    import workloads

    ops = workloads.build(workload, seed)
    cfg_dir = out / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    for op in ops:
        if op["call"] == "spectrum":
            p = op["problem"]
            grid = Grid(*p["grid"])
            b = p["baseline"]
            bump = (SpatialBump(p["bump"]["amplitude"], p["bump"]["plateau"],
                                p["bump"]["ramp"]) if p["bump"] else None)
            kernel = (Kernel.build("uniform", p["kernel_radius"], grid.h)
                      if p["kernel_radius"] else None)
            op["parsed"] = LinearProblem(
                p["mu"], p["kind"], grid, 1.0,
                baseline=PeriodicScalar.harmonic(b["mean"], b["amplitude"],
                                                 b["phase"]),
                bump=bump, kernel=kernel, steps_per_period=p["steps"])
        elif "config" in op:
            path = cfg_dir / f"{op['name']}.json"
            path.write_text(json.dumps(op["config"], indent=2))
            op["config_path"] = str(path)
            op["parsed"] = load_config(path)
        else:
            op["parsed"] = parse_config(preset_config(op["argv"][-1]))
    t2 = perf_counter()
    return ops, {"import_s": t1 - t0, "parse_s": t2 - t1}


def _run_cli(op: dict, out_dir: Path) -> dict:
    from compspread.cli import main

    argv = list(op["argv"])
    if "config_path" in op:
        argv += ["--config", op["config_path"]]
    argv += ["--out", str(out_dir), "--workers", "1"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main(argv)
    if rc != 0:
        return {"error": f"exit {rc}: {stderr.getvalue().strip()}"}
    return {"out_dir": str(out_dir)}


def _run_spectrum(op: dict) -> dict:
    from compspread.spectrum import principal_spectrum_point

    if op["tol"] is None:
        res = principal_spectrum_point(op["parsed"])
    else:
        res = principal_spectrum_point(op["parsed"], tol=op["tol"])
    return {"lam": res.lam, "periods": res.periods}


def _run_invasion(op: dict) -> dict:
    from compspread.semitrivial import compute_semitrivial, linearized_radius

    cfg = op["parsed"]
    problem = cfg.problem()
    resident = compute_semitrivial("v", problem, cfg.scheme)
    verdict = linearized_radius("v", problem, resident, cfg.scheme,
                                tol=op["tol"])
    return {"lam": verdict.lam, "periods": verdict.spectrum.periods}


def run_pass(ops: list, out: Path, recorder=None) -> list[dict]:
    """Time every operation; an operation that raises is recorded as an
    error and the pass goes on."""
    from compspread.errors import CompspreadError

    results = []
    for op in ops:
        out_dir = out / op["name"]
        span = (recorder.span(f"op.{op['name']}") if recorder
                else contextlib.nullcontext())
        t0 = perf_counter()
        try:
            with span:
                if op["call"] == "cli":
                    res = _run_cli(op, out_dir)
                elif op["call"] == "spectrum":
                    res = _run_spectrum(op)
                else:
                    res = _run_invasion(op)
        except CompspreadError as exc:
            res = {"error": f"{type(exc).__name__}: {exc}"}
        except Exception as exc:  # a crash in the program fails one operation
            res = {"error": f"{type(exc).__name__}: {exc}",
                   "traceback": traceback.format_exc()}
        seconds = perf_counter() - t0
        results.append({"name": op["name"], "seconds": seconds, **res})
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    ops, report = _set_up(args.workload, args.seed, args.out)
    if not args.setup_only:
        recorder = None
        if args.trace:
            from tracing import Recorder

            recorder = Recorder()
            recorder.install()
        report["ops"] = run_pass(ops, args.out, recorder)
        report["wall_s"] = sum(r["seconds"] for r in report["ops"])
        report["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if recorder is not None:
            report["layers"] = recorder.layer_metrics()
            recorder.write(args.out / "trace.json",
                           {"workload": args.workload, "seed": args.seed})
    (args.out / "result.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
