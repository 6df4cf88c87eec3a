"""The benchmark calls compspread functions and the traced run wraps them
by name; every name it lists must still resolve and every call it makes
must still bind, or a rename or a dropped parameter would break that run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = _load_tracing().TARGETS
    assert targets
    for module_name, attr, *_ in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"


def test_benchmark_call_shapes_bind():
    # Every call perfbench/worker.py and perfbench/run.py make into the
    # package, with the same positional and keyword shapes; arguments are
    # placeholders because binding checks the signature only.
    from compspread import cli
    from compspread.coefficients import (PeriodicScalar, SpatialBump, check_h0,
                                         check_h1, check_h2,
                                         compute_envelopes)
    from compspread.config import RunConfig, load_config, parse_config
    from compspread.dispersal import Grid, Kernel
    from compspread.presets import preset_config
    from compspread.semitrivial import compute_semitrivial, linearized_radius
    from compspread.spectrum import LinearProblem, principal_spectrum_point

    x = object()
    calls = [
        (load_config, (x,), {}),
        (parse_config, (x,), {}),
        (preset_config, (x,), {}),
        (Grid, (x, x, x), {}),
        (SpatialBump, (x, x, x), {}),
        (Kernel.build, ("uniform", x, x), {}),
        (PeriodicScalar.harmonic, (x, x, x), {}),
        (LinearProblem, (x, x, x, 1.0),
         {"baseline": x, "bump": x, "kernel": x, "steps_per_period": x}),
        (cli.main, (x,), {}),
        (principal_spectrum_point, (x,), {}),
        (principal_spectrum_point, (x,), {"tol": x}),
        (RunConfig.problem, (x,), {}),
        (compute_semitrivial, ("v", x, x), {}),
        (linearized_radius, ("v", x, x, x), {"tol": x}),
        (compute_envelopes, (x,), {}),
        (check_h0, (x,), {}),
        (check_h1, (x,), {}),
        (check_h2, (x, x), {}),
    ]
    for func, args, kwargs in calls:
        inspect.signature(func).bind(*args, **kwargs)
