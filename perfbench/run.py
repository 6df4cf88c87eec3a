"""compspread benchmark: one workload, one seed, printed as one JSON line.

    python3 perfbench/run.py --workload {fronts,spectra,residents} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its ``src``.
Every round is a fresh interpreter (worker.py) that sets up and makes one
cold pass over the workload's operations, one process at a time.  Rounds
repeat while the next one still fits in ``--seconds``; at least one runs.
Four more set-up-only interpreters sample the set-up time.  With
``--trace 1`` the run makes one untraced and one traced round and reports
the per-layer metrics instead.  Every answer is judged against references
computed apart from the program (references.py, checks.py).

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
A run that cannot measure (no sources, a worker that crashes or overruns)
exits non-zero without printing it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
TIME_LIMIT_S = 170.0
SETUP_PROBES = 4

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("lam_err", "1"), ("speed_err", "1"))
PER_LAYER = ((("setup.import_s", "s"), ("config.parse_s", "s"))
             + tuple((m, unit) for m, _, _, unit in tracing.SPAN_METRICS)
             + (("trace.overhead_s", "s"),))
# Reported when no operation produced an exponent or a speed to judge: the
# answer is missing, which counts as wrong.
MISSING_ERROR = 1.0


class BenchError(RuntimeError):
    """The benchmark itself cannot measure this run."""


def _worker_env(work: Path) -> dict:
    tmp = work / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(tmp))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_worker(workload: str, seed: int, out: Path, env: dict,
                deadline: float, *flags: str) -> dict:
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {out.name} overran the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {out.name} exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return json.loads((out / "result.json").read_text())


def _confirm_hypotheses(ops: list[dict]) -> None:
    """Front intervals need h0 and h1, and h2 when the bump is a boost;
    a generated input outside them is a benchmark bug."""
    from compspread.coefficients import (check_h0, check_h1, check_h2,
                                         compute_envelopes)
    from compspread.config import parse_config

    for op in ops:
        if op["check"] != "interval":
            continue
        cs = parse_config(op["config"]).coefficients.baselines()
        env = compute_envelopes(cs)
        holds = check_h0(env).holds and check_h1(env).holds
        if op["config"]["coefficients"]["a1"]["bump"]["amplitude"] > 0.0:
            holds = holds and check_h2(cs, env).holds
        if not holds:
            raise BenchError(f"{op['name']}: generated coefficients break "
                             "h0/h1/h2")


def _hashes(out_dir: str) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).iterdir())}


def _judge(ops: list[dict], rounds: list[dict]) -> dict:
    """Outcome of every operation in every round; the times listed per
    operation are those of untraced rounds."""
    outcome = {"correct": True, "attempted": 0, "failed": 0,
               "lam_errors": [], "speed_errors": [], "ops": {}}
    for rnd in rounds:
        for op, res in zip(ops, rnd["ops"]):
            entry = outcome["ops"].setdefault(op["name"], {
                "seconds": [], "fault": op["fault"], "problems": [],
                "error": None})
            if "layers" not in rnd:
                entry["seconds"].append(res["seconds"])
            outcome["attempted"] += 1
            if "error" in res:
                outcome["failed"] += 1
                entry["error"] = res["error"]
                continue
            verdict = checks.judge(op, res)
            outcome["lam_errors"] += verdict.lam_errors
            outcome["speed_errors"] += verdict.speed_errors
            if op["preset"] and "hashes" not in entry:
                entry["hashes"] = _hashes(res["out_dir"])
            if verdict.problems:
                entry["problems"] = verdict.problems
                if op["fault"] is None:
                    outcome["correct"] = False
                else:
                    outcome["failed"] += 1
    return outcome


def _error_metric(values: list[float], outcome: dict) -> float:
    if not values:
        outcome["correct"] = False
        return MISSING_ERROR
    return max(values)


def _print_summary(workload: str, outcome: dict, metrics: dict) -> None:
    for name, entry in outcome["ops"].items():
        state = "ok"
        if entry["error"] or entry["problems"]:
            state = "KNOWN FAULT" if entry["fault"] else "FAILED"
        secs = statistics.median(entry["seconds"])
        print(f"[{workload}] {name:<22} {secs:8.3f} s  {state}")
        for text in ([entry["error"]] if entry["error"] else []) \
                + entry["problems"]:
            print(f"    {text}")
        if entry["fault"] and state == "KNOWN FAULT":
            print(f"    fault: {entry['fault']['text']}; mended by "
                  f"{entry['fault']['mended_by']}")
    for name, m in metrics.items():
        print(f"[{workload}] {name} = {m['value']:.6g} {m['unit']}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    ops = workloads.build(workload, seed)
    sys.path.insert(0, str(SRC))
    _confirm_hypotheses(ops)
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = _worker_env(work)

    setups = [_run_worker(workload, seed, work / f"setup{i}", env, deadline,
                          "--setup-only") for i in range(SETUP_PROBES)]
    rounds = []
    started = time.monotonic()
    while True:
        t0 = time.monotonic()
        rounds.append(_run_worker(workload, seed, work / f"round{len(rounds)}",
                                  env, deadline))
        took = time.monotonic() - t0
        if trace or time.monotonic() - started + took > seconds:
            break
    traced = (_run_worker(workload, seed, work / "traced", env, deadline,
                          "--trace") if trace else None)

    outcome = _judge(ops, rounds + ([traced] if traced else []))
    samples = setups + rounds + ([traced] if traced else [])
    import_s = statistics.median(s["import_s"] for s in samples)
    parse_s = statistics.median(s["parse_s"] for s in samples)
    wall_s = statistics.median(r["wall_s"] for r in rounds)
    if trace:
        values = {"setup.import_s": import_s, "config.parse_s": parse_s,
                  **traced["layers"],
                  "trace.overhead_s": traced["wall_s"] - wall_s}
        units = dict(PER_LAYER)
    else:
        values = {
            "setup_s": statistics.median(s["import_s"] + s["parse_s"]
                                         for s in samples),
            "wall_s": wall_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                             for r in rounds),
            "lam_err": _error_metric(outcome["lam_errors"], outcome),
            "speed_err": _error_metric(outcome["speed_errors"], outcome)}
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    report = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "rounds": len(rounds), "ops": outcome["ops"],
              "metrics": metrics}
    (work / "report.json").write_text(json.dumps(report, indent=1))
    _print_summary(workload, outcome, metrics)
    return {"correct": outcome["correct"], "attempted": outcome["attempted"],
            "failed": outcome["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "compspread" / "cli.py").is_file():
        print(f"perfbench: no compspread sources under {SRC}",
              file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
