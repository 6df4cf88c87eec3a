"""Span recorder for the traced run.

``Recorder.install`` wraps public functions of compspread where their
callers look them up: module functions are replaced in every compspread
module that holds them, methods on their class.  Each call becomes a span
with its name, start, end and parent span; counts are read from the value
the call returns.

Per-step calls (the ``_accel`` kernels, ``Stepper.step_arrays`` and
``LinearProblem.reaction_coefficient``) run millions of times in one pass.
Their spans are folded, on exit, into per-(parent span, name) sums of
calls, busy time, self time and computed bytes instead of being stored one
by one; every other span is kept whole.  A span's self time is its
duration minus the time its child spans cover.  The recorder keeps
everything in memory and writes it as JSON once the pass ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _periods(result) -> int:
    return result.periods


def _settle_periods(result) -> int:
    return sum(trial.settled_period for trial in result.trials)


def _candidates(result) -> int:
    return len(result.scanned)


# (module, attribute, span name, per-step, count read from the result)
TARGETS = (
    ("compspread._accel", "TridiagFactor.solve", "accel.tridiag_solve",
     True, None),
    ("compspread._accel", "cn_explicit_half", "accel.cn_explicit_half",
     True, None),
    ("compspread._accel", "logistic_step", "accel.logistic_step", True, None),
    ("compspread._accel", "correlate_ext", "accel.correlate_ext", True, None),
    ("compspread.simulator", "Stepper.step_arrays", "simulator.step_arrays",
     True, None),
    ("compspread.simulator", "run_periods", "simulator.run_periods",
     False, None),
    ("compspread.simulator", "run_transformed", "simulator.run_transformed",
     False, None),
    ("compspread.spectrum", "principal_spectrum_point",
     "spectrum.principal_spectrum_point", False, _periods),
    ("compspread.spectrum", "radius_threshold_test",
     "spectrum.radius_threshold_test", False, None),
    ("compspread.spectrum", "LinearProblem.reaction_coefficient",
     "spectrum.reaction_coefficient", True, None),
    ("compspread.semitrivial", "compute_semitrivial",
     "semitrivial.compute_semitrivial", False, None),
    ("compspread.semitrivial", "linearized_radius",
     "semitrivial.linearized_radius", False, None),
    ("compspread.semitrivial", "destabilizing_bump",
     "semitrivial.destabilizing_bump", False, _candidates),
    ("compspread.verify", "monotone_coexistence",
     "verify.monotone_coexistence", False, _periods),
    ("compspread.verify", "persistence_probe", "verify.persistence_probe",
     False, _settle_periods),
    ("compspread.spreading", "speed_interval", "spreading.speed_interval",
     False, None),
    ("compspread.spreading", "fit_front_speed", "spreading.fit_front_speed",
     False, None),
    ("compspread.periodic_orbits", "logistic_orbit",
     "periodic_orbits.logistic_orbit", False, None),
    ("compspread.config", "write_csv", "config.write", False, None),
    ("compspread.config", "write_json", "config.write", False, None),
    ("compspread.config", "write_svg_polyline", "config.write", False, None),
)

# (metric, span name, field, unit); field is calls, busy_s, self_s, bytes
# or count.  The metrics of the setup phase and the tracing overhead are
# measured by run.py and listed in PER_LAYER there.
SPAN_METRICS = (
    ("accel.tridiag_solve.calls", "accel.tridiag_solve", "calls", "count"),
    ("accel.tridiag_solve.busy_s", "accel.tridiag_solve", "busy_s", "s"),
    ("accel.tridiag_solve.bytes", "accel.tridiag_solve", "bytes", "B"),
    ("accel.cn_explicit_half.calls", "accel.cn_explicit_half", "calls",
     "count"),
    ("accel.cn_explicit_half.busy_s", "accel.cn_explicit_half", "busy_s",
     "s"),
    ("accel.logistic_step.calls", "accel.logistic_step", "calls", "count"),
    ("accel.logistic_step.busy_s", "accel.logistic_step", "busy_s", "s"),
    ("accel.logistic_step.bytes", "accel.logistic_step", "bytes", "B"),
    ("accel.correlate_ext.calls", "accel.correlate_ext", "calls", "count"),
    ("accel.correlate_ext.busy_s", "accel.correlate_ext", "busy_s", "s"),
    ("accel.correlate_ext.bytes", "accel.correlate_ext", "bytes", "B"),
    ("simulator.step_arrays.calls", "simulator.step_arrays", "calls",
     "count"),
    ("simulator.step_arrays.self_s", "simulator.step_arrays", "self_s", "s"),
    ("simulator.run_periods.busy_s", "simulator.run_periods", "busy_s", "s"),
    ("simulator.run_transformed.busy_s", "simulator.run_transformed",
     "busy_s", "s"),
    ("spectrum.principal_spectrum_point.calls",
     "spectrum.principal_spectrum_point", "calls", "count"),
    ("spectrum.principal_spectrum_point.busy_s",
     "spectrum.principal_spectrum_point", "busy_s", "s"),
    ("spectrum.principal_spectrum_point.periods",
     "spectrum.principal_spectrum_point", "count", "count"),
    ("spectrum.radius_threshold_test.calls", "spectrum.radius_threshold_test",
     "calls", "count"),
    ("spectrum.radius_threshold_test.busy_s",
     "spectrum.radius_threshold_test", "busy_s", "s"),
    ("spectrum.reaction_coefficient.calls", "spectrum.reaction_coefficient",
     "calls", "count"),
    ("spectrum.reaction_coefficient.busy_s", "spectrum.reaction_coefficient",
     "busy_s", "s"),
    ("semitrivial.compute_semitrivial.calls",
     "semitrivial.compute_semitrivial", "calls", "count"),
    ("semitrivial.compute_semitrivial.busy_s",
     "semitrivial.compute_semitrivial", "busy_s", "s"),
    ("semitrivial.linearized_radius.calls", "semitrivial.linearized_radius",
     "calls", "count"),
    ("semitrivial.linearized_radius.busy_s", "semitrivial.linearized_radius",
     "busy_s", "s"),
    ("semitrivial.destabilizing_bump.busy_s",
     "semitrivial.destabilizing_bump", "busy_s", "s"),
    ("semitrivial.destabilizing_bump.candidates",
     "semitrivial.destabilizing_bump", "count", "count"),
    ("verify.monotone_coexistence.busy_s", "verify.monotone_coexistence",
     "busy_s", "s"),
    ("verify.monotone_coexistence.periods", "verify.monotone_coexistence",
     "count", "count"),
    ("verify.persistence_probe.busy_s", "verify.persistence_probe", "busy_s",
     "s"),
    ("verify.persistence_probe.settle_periods", "verify.persistence_probe",
     "count", "count"),
    ("spreading.speed_interval.busy_s", "spreading.speed_interval", "busy_s",
     "s"),
    ("spreading.fit_front_speed.busy_s", "spreading.fit_front_speed",
     "busy_s", "s"),
    ("periodic_orbits.logistic_orbit.calls", "periodic_orbits.logistic_orbit",
     "calls", "count"),
    ("periodic_orbits.logistic_orbit.busy_s",
     "periodic_orbits.logistic_orbit", "busy_s", "s"),
    ("config.write_s", "config.write", "busy_s", "s"),
)


def _nbytes(args, result) -> int:
    """Computed bytes moved by a kernel call: its array arguments read plus
    the array it returns."""
    total = result.nbytes if isinstance(result, np.ndarray) else 0
    for a in args:
        if isinstance(a, np.ndarray):
            total += a.nbytes
    return total


class Recorder:
    def __init__(self):
        self.spans: list[dict | None] = []
        # (parent span id, name) -> [calls, busy_s, self_s, bytes]
        self.folded: dict[tuple, list] = {}
        # open spans: [name, start, child time, span id, parent span id]
        self._stack: list[list] = [["root", 0.0, 0.0, None, None]]
        self._t0 = perf_counter()

    def _open(self, name: str, whole: bool) -> list:
        top = self._stack[-1]
        parent = top[3] if top[3] is not None else top[4]
        sid = None
        if whole:
            sid = len(self.spans)
            self.spans.append(None)
        frame = [name, perf_counter(), 0.0, sid, parent]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, end: float, count=None, nbytes: int = 0):
        self._stack.pop()
        duration = end - frame[1]
        self._stack[-1][2] += duration
        self_s = duration - frame[2]
        if frame[3] is None:
            key = (frame[4], frame[0])
            agg = self.folded.get(key)
            if agg is None:
                agg = self.folded[key] = [0, 0.0, 0.0, 0]
            agg[0] += 1
            agg[1] += duration
            agg[2] += self_s
            agg[3] += nbytes
        else:
            self.spans[frame[3]] = {
                "id": frame[3], "name": frame[0], "parent": frame[4],
                "start": frame[1] - self._t0, "end": end - self._t0,
                "self_s": self_s, "count": count}

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one operation."""
        frame = self._open(name, True)
        try:
            yield
        finally:
            self._close(frame, perf_counter())

    def _wrap(self, fn, name: str, per_step: bool, count):
        measure_bytes = name.startswith("accel.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(name, not per_step)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                if per_step:
                    self._close(frame, end, None,
                                _nbytes(args, result) if measure_bytes else 0)
                else:
                    self._close(frame, end, count(result)
                                if count is not None and result is not None
                                else None)

        return traced

    def install(self) -> None:
        """Wrap every target; compspread must already be imported."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "compspread" or key.startswith("compspread.")]
        for module_name, attr, name, per_step, count in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth,
                        self._wrap(getattr(cls, meth), name, per_step, count))
                continue
            original = getattr(owner, attr)
            traced = self._wrap(original, name, per_step, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer sums over whole and folded spans, as SPAN_METRICS."""
        totals = defaultdict(lambda: {"calls": 0, "busy_s": 0.0,
                                      "self_s": 0.0, "bytes": 0, "count": 0})
        for s in self.spans:
            if s is None:
                continue
            t = totals[s["name"]]
            t["calls"] += 1
            t["busy_s"] += s["end"] - s["start"]
            t["self_s"] += s["self_s"]
            t["count"] += s["count"] or 0
        for (_, name), (calls, busy, self_s, nbytes) in self.folded.items():
            t = totals[name]
            t["calls"] += calls
            t["busy_s"] += busy
            t["self_s"] += self_s
            t["bytes"] += nbytes
        return {metric: totals[name][fld]
                for metric, name, fld, _ in SPAN_METRICS}

    def write(self, path, meta: dict) -> None:
        folded = [{"parent": parent, "name": name, "calls": calls,
                   "busy_s": busy, "self_s": self_s, "bytes": nbytes}
                  for (parent, name), (calls, busy, self_s, nbytes)
                  in self.folded.items()]
        with open(path, "w") as fh:
            json.dump({**meta, "spans": [s for s in self.spans if s],
                       "folded": folded}, fh)
