"""Numerical laboratory for time-periodic two-species competition systems
under random (Laplacian) and nonlocal (convolution) dispersal."""

from .coefficients import (CoefficientField, CoefficientSet, EnvelopeTable,
                           HypothesisVerdict, PeriodicScalar, SpatialBump,
                           check_h0, check_h1, check_h2, compute_envelopes)
from .dispersal import Grid, Kernel, apply_dispersal, kernel_moment
from .errors import (CompspreadError, ConfigError, ConvergenceError,
                     NumericalGuardError, PreconditionError)
from .periodic_orbits import PeriodicOrbit, nonhomogeneous_periodic
from .semitrivial import (PeriodicField, compute_semitrivial,
                          destabilizing_bump, linearized_radius)
from .simulator import (Problem, SchemeConfig, SystemState, make_front_data,
                        make_scheme, run_periods, run_transformed)
from .spectrum import LinearProblem, SpectrumResult, principal_spectrum_point
from .spreading import (SpeedEstimate, continuity_sweep, dispersion_speed,
                        speed_interval)
from .verify import (SupersolutionSpec, build_ansatz_pair,
                     build_supersolution, check_ansatz_inequalities,
                     monotone_coexistence, persistence_probe,
                     supersolution_residual)

__version__ = "0.1.0"
