"""Numerical laboratory for time-periodic two-species competition systems
under random (Laplacian) and nonlocal (convolution) dispersal."""

__version__ = "0.1.0"
