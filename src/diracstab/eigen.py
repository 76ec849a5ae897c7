"""Dense nonsymmetric eigensolver, real or complex.

Every solve goes to LAPACK through numpy.linalg: dgeev for a real matrix,
zgeev for a complex one.  Values are complex either way, and a real
matrix gives real eigenvalues with imaginary part exactly 0.0.  Output
order is deterministic: sorted by (imaginary part, real part).  A LAPACK
failure to converge is re-raised as ConvergenceError, which the command
line maps to exit code 3.

eigvals computes values only.  Eigenvectors for a few selected
eigenvalues come from inverse_vectors (inverse iteration: one solve of
a shifted matrix per value, from a fixed start vector or from the
caller's, so that k steps are k chained calls; real for a real value of
a real matrix); the caller takes their residuals in whatever basis it
holds the matrix.  The module needs numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPS = np.finfo(float).eps
# fractional parts of the golden and silver ratios: irrational steps for
# the fixed inverse-iteration start vector
_START_STEPS = ((5.0 ** 0.5 - 1.0) / 2.0, 2.0 ** 0.5 - 1.0)


class ConvergenceError(RuntimeError):
    """The eigensolve did not converge; the LAPACK error is the __cause__."""


@dataclass
class EigenSet:
    """Eigenvalues and solve diagnostics.

    values are sorted by (imag, real).  vectors is always None: eigvals
    computes no vectors, and benchmarks/tracing.py reads the field.
    backend names the solver path: "lapack" for a direct solve of the
    matrix, "lapack-parity" for the +-sqrt pairs spectrum.parity_eigvals
    takes from real solves of the parity-block products B C, at half the
    dimension or, where the blocks split by component, a quarter.
    iterations is always 0: LAPACK does not report its QR sweep count.
    """

    values: np.ndarray
    vectors: np.ndarray | None = None
    iterations: int = 0
    backend: str = "lapack"


def _as_square(matrix) -> np.ndarray:
    # real stays real, so that LAPACK runs its real routines
    a = np.asarray(matrix, dtype=complex if np.iscomplexobj(matrix) else float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def eigvals(matrix) -> EigenSet:
    """All eigenvalues of a dense matrix, deterministically sorted.

    A real matrix is solved in real arithmetic (dgeev), so its real
    eigenvalues come back with imaginary part exactly 0.0 and the others
    in exact conjugate pairs.  The values are complex either way.
    Raises ConvergenceError if LAPACK fails to converge.
    """
    a = _as_square(matrix)
    try:
        values = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigensolve of a {a.shape[0]}x{a.shape[0]} matrix did not "
            f"converge: {exc}") from exc
    order = np.lexsort((values.real, values.imag))
    return EigenSet(values=values[order].astype(complex, copy=False))


def inverse_vectors(matrix, values, starts=None) -> np.ndarray:
    """Unit eigenvectors for eigenvalues of matrix, one column per value.

    Each value gets one solve of a copy of the matrix shifted slightly
    off it: one step of inverse iteration from the value's column of
    starts, or from a fixed start vector when starts is None.  A second
    step is a second call with the first one's vectors as starts.  A
    real value of a real matrix is done in real arithmetic, from the
    real part of its start; when the matrix and every value are real,
    the vectors come back real.
    """
    a = _as_square(matrix)
    values = np.atleast_1d(np.asarray(values, dtype=complex))
    anorm = np.linalg.norm(a)
    n = a.shape[0]
    if starts is None:
        # no symmetry: soliton eigenvectors are even or odd in x, so a
        # mirror-symmetric start vector can be orthogonal to them
        k = np.arange(1, n + 1)
        start = ((k * _START_STEPS[0]) % 1.0 - 0.5
                 + 1j * ((k * _START_STEPS[1]) % 1.0 - 0.5))
        start /= np.linalg.norm(start)
        starts = np.broadcast_to(start[:, None], (n, values.size))
    real = np.isrealobj(a) and not np.any(values.imag)
    vectors = np.empty((n, values.size), dtype=float if real else complex)
    for col, lam in enumerate(values):
        shift = lam + 10.0 * _EPS * max(anorm, 1.0)
        v = starts[:, col]
        if np.isrealobj(a) and lam.imag == 0.0:
            shift, v = shift.real, v.real
        shifted = a.astype(np.result_type(a, shift))
        shifted[np.diag_indices(n)] -= shift
        v = np.linalg.solve(shifted, v)
        vectors[:, col] = v / np.linalg.norm(v)
    return vectors
