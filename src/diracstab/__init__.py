"""Transverse spectral stability of line solitons in massive Dirac equations.

Covers the massive Thirring and massive Gross-Neveu (Soler) cubic Dirac
models: closed-form soliton families, linearized stability operators on a
tanh-mapped Chebyshev grid, written as real parity blocks and solved by
LAPACK's dense real eigensolver, and the asymptotic growth-rate
predictions the numerics are validated against.

The exported names load their modules on first use, so `import
diracstab` loads no numpy: the command line (diracstab.cli) imports
numpy itself, with OpenBLAS on one thread.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {name: module for module, names in (
    ("soliton", ("ModelKind", "SolitonProfile", "DomainError")),
    ("cheb", ("ChebGrid", "build_grid")),
    ("operator", ("StabilityOperator", "SpectralBands", "assemble",
                  "continuous_bands")),
    ("eigen", ("EigenSet", "eigvals")),
    ("analytics", ("AsymptoticPrediction", "asymptotic_prediction")),
) for name in names}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_EXPORTS))
