"""Dense nonsymmetric eigensolver, real or complex.

Every solve goes to LAPACK through numpy.linalg: dgeev for a real matrix,
zgeev for a complex one.  Values are complex either way, and a real
matrix gives real eigenvalues with imaginary part exactly 0.0.  Output
order is deterministic: sorted by (imaginary part, real part).  A LAPACK
failure to converge is re-raised as ConvergenceError, which the command
line maps to exit code 3.

A matrix of the form [[0, B], [C, 0]] is solved at half its dimension:
eigvals of B C, then root_pairs.

Eigenvectors and residuals for a few selected eigenvalues come from
inverse_iteration (one LU per value, real for a real value of a real
matrix), not from a full solve with vectors.  single_blas_thread runs a
block of solves on one BLAS thread each.
"""

from __future__ import annotations

import ctypes
import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

logger = logging.getLogger(__name__)

_EPS = np.finfo(float).eps
_INVERSE_STEPS = 2

# (set, get) thread-count entry points of the OpenBLAS builds numpy and
# scipy ship, then of a plain OpenBLAS
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


class ConvergenceError(RuntimeError):
    """The eigensolve did not converge; the LAPACK error is the __cause__."""


@dataclass
class EigenSet:
    """Eigenvalues, optional eigenvectors, and solve diagnostics.

    values from eigvals and root_pairs are sorted by (imag, real), and
    selected values keep the order they were asked for; vectors, when
    present, are unit columns aligned with values; residuals are
    ||A v - lambda v|| / ||A||_F per pair.  backend names the solver path:
    "lapack" for a direct solve of the matrix, "lapack-parity" for the
    +-sqrt pairs root_pairs takes from real solves of the parity-block
    products B C, at half the dimension or, where the blocks split by
    component, a quarter.  iterations is always 0: LAPACK does not report
    its QR sweep count.
    """

    values: np.ndarray
    vectors: np.ndarray | None = None
    residuals: np.ndarray | None = None
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


def relative_residuals(a: np.ndarray, values, vectors) -> np.ndarray:
    """||a v - lambda v|| / ||a||_F for each value and unit column v."""
    scale = np.linalg.norm(a)
    if scale == 0.0:
        scale = 1.0
    res = np.linalg.norm(a @ vectors - vectors * values[None, :], axis=0)
    return res / scale


def eigvals(matrix, want_vectors: bool = False) -> EigenSet:
    """All eigenvalues of a dense matrix, deterministically sorted.

    A real matrix is solved in real arithmetic (dgeev), so its real
    eigenvalues come back with imaginary part exactly 0.0 and the others
    in exact conjugate pairs.  Values and vectors are complex either way.
    Raises ConvergenceError if LAPACK fails to converge.
    """
    a = _as_square(matrix)
    try:
        if want_vectors:
            values, vectors = np.linalg.eig(a)
        else:
            values, vectors = np.linalg.eigvals(a), None
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigensolve of a {a.shape[0]}x{a.shape[0]} matrix did not "
            f"converge: {exc}") from exc
    order = np.lexsort((values.real, values.imag))
    values = values[order].astype(complex, copy=False)
    residuals = None
    if vectors is not None:
        vectors = vectors[:, order].astype(complex, copy=False)
        residuals = relative_residuals(a, values, vectors)
    return EigenSet(values=values, vectors=vectors, residuals=residuals)


def root_pairs(squares: EigenSet) -> EigenSet:
    """The values +-sqrt(mu) for every mu in squares, sorted like eigvals.

    squares, an EigenSet or an array, holds the eigenvalues of B C for a
    matrix [[0, B], [C, 0]], whose eigenvalues are exactly these pairs.
    A real mu gives a pair that is exactly real (mu > 0) or exactly
    imaginary (mu < 0).  Near zero the pairs carry the square root of the
    error in mu: sqrt(eps ||B|| ||C||) in place of a direct solve's
    eps ||A||.
    """
    roots = np.sqrt(np.asarray(getattr(squares, "values", squares),
                               dtype=complex))
    values = np.concatenate([roots, -roots])
    values = values[np.lexsort((values.real, values.imag))]
    return EigenSet(values=values, backend="lapack-parity")


def inverse_iteration(matrix, values) -> EigenSet:
    """Unit eigenvectors and residuals for eigenvalues of matrix.

    Each value gets one LU of the matrix shifted slightly off it and two
    inverse-iteration steps from a fixed start vector.  A real value of a
    real matrix is done in real arithmetic.
    """
    a = _as_square(matrix)
    values = np.atleast_1d(np.asarray(values, dtype=complex))
    n = a.shape[0]
    anorm = np.linalg.norm(a)
    # no symmetry: soliton eigenvectors are even or odd in x, so a
    # symmetric start vector can be orthogonal to them
    rng = np.random.default_rng(0)
    start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    start /= np.linalg.norm(start)
    vectors = np.empty((n, values.size), dtype=complex)
    for col, lam in enumerate(values):
        shift = lam + 10.0 * _EPS * max(anorm, 1.0)
        v = start
        if np.isrealobj(a) and lam.imag == 0.0:
            shift, v = shift.real, start.real
        shifted = np.array(a, dtype=np.result_type(a, shift), order="F")
        shifted[np.diag_indices(n)] -= shift
        lu = lu_factor(shifted, overwrite_a=True, check_finite=False)
        for _ in range(_INVERSE_STEPS):
            v = lu_solve(lu, v, check_finite=False)
            v /= np.linalg.norm(v)
        vectors[:, col] = v
    return EigenSet(values=values, vectors=vectors,
                    residuals=relative_residuals(a, values, vectors))


def _openblas_controls() -> list:
    """(set, get) thread-count functions of every OpenBLAS loaded here.

    Libraries are found in the process memory map, so the list is empty
    off Linux.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            # the last field of a line is the mapped file, if any
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh}
    except OSError:
        paths = set()
    controls = []
    for path in sorted(paths):
        if "openblas" not in os.path.basename(path):
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
                break
    if not controls:
        logger.debug("no OpenBLAS found; BLAS thread counts left unchanged")
    return controls


def blas_threads() -> int | None:
    """Largest thread count of the loaded OpenBLAS libraries, None if none."""
    counts = [getter() for _, getter in _openblas_controls()]
    return max(counts) if counts else None


@contextmanager
def single_blas_thread():
    """Run every loaded OpenBLAS on one thread in the block.

    The counts are process-wide; the previous ones are restored on exit.
    Does nothing when no OpenBLAS is found.
    """
    saved = [(setter, getter()) for setter, getter in _openblas_controls()]
    for setter, _ in saved:
        setter(1)
    try:
        yield
    finally:
        for setter, old in saved:
            setter(old)
