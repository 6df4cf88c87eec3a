import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compspread
from compspread.dispersal import Grid
from reference_routes import constant_set


@pytest.fixture(scope="session")
def canonical_set():
    """Constant coefficients (1, 1, 0.5, 0.4, 0.5, 1): the u-species
    excludes the v-species and all envelope hypotheses hold."""
    return constant_set(1.0, 1.0, 0.5, 0.4, 0.5, 1.0)


@pytest.fixture(scope="session")
def weak_set():
    """Symmetric weak competition (1, 1, 0.5, 1, 0.5, 1): interior
    equilibrium at (2/3, 2/3)."""
    return constant_set(1.0, 1.0, 0.5, 1.0, 0.5, 1.0)


@pytest.fixture
def small_grid():
    return Grid(-10.0, 10.0, 201)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def run_python():
    """``run(code, *args)``: run code in a fresh interpreter that imports
    this checkout's compspread and return its standard output; a failed
    assertion there fails the test."""
    src = str(Path(compspread.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))

    def run(code, *args):
        return subprocess.run([sys.executable, "-c", code, *args], env=env,
                              check=True, stdout=subprocess.PIPE,
                              text=True).stdout
    return run
