"""Transverse spectral stability of line solitons in massive Dirac equations.

Covers the massive Thirring and massive Gross-Neveu (Soler) cubic Dirac
models: closed-form soliton families, linearized stability operators on a
tanh-mapped Chebyshev grid, a dense complex eigensolver, and the asymptotic
growth-rate predictions the numerics are validated against.
"""

__version__ = "0.1.0"

from .soliton import ModelKind, SolitonProfile, DomainError
from .cheb import ChebGrid, build_grid, sample_on_grid
from .operator import StabilityOperator, SpectralBands, assemble, continuous_bands
from .eigen import EigenSet, eigvals
from .analytics import AsymptoticPrediction, asymptotic_prediction

__all__ = [
    "__version__",
    "ModelKind",
    "SolitonProfile",
    "DomainError",
    "ChebGrid",
    "build_grid",
    "sample_on_grid",
    "StabilityOperator",
    "SpectralBands",
    "assemble",
    "continuous_bands",
    "EigenSet",
    "eigvals",
    "AsymptoticPrediction",
    "asymptotic_prediction",
]
