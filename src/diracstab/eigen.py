"""Dense complex nonsymmetric eigensolver.

Every solve goes to LAPACK (zgeev) through numpy.linalg.  Output order is
deterministic: sorted by (imaginary part, real part).  A LAPACK failure to
converge is re-raised as ConvergenceError, which the command line maps to
exit code 3.

A matrix of the form [[0, B], [C, 0]] is solved at half its dimension:
eigvals of B C, then root_pairs.

Eigenvectors for a few selected eigenvalues come from inverse iteration
(one LU per value), not from a full solve with vectors.  When several
threads solve at once, capped_blas_threads keeps their BLAS threads
within the available cores.
"""

from __future__ import annotations

import ctypes
import logging
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

logger = logging.getLogger(__name__)

_EPS = np.finfo(float).eps
_RESIDUAL_TARGET = 1e-8
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
    +-sqrt pairs root_pairs takes from a solve of the parity-block product
    B C at half the dimension.  iterations is always 0: LAPACK does not
    report its QR sweep count.
    """

    values: np.ndarray
    vectors: np.ndarray | None = None
    residuals: np.ndarray | None = None
    iterations: int = 0
    backend: str = "lapack"
    flags: list = field(default_factory=list)


def _as_square_complex(matrix) -> np.ndarray:
    a = np.array(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def _residuals(a: np.ndarray, values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    scale = np.linalg.norm(a)
    if scale == 0.0:
        scale = 1.0
    res = np.linalg.norm(a @ vectors - vectors * values[None, :], axis=0)
    return res / scale


def eigvals(matrix, want_vectors: bool = False) -> EigenSet:
    """All eigenvalues of a dense complex matrix, deterministically sorted.

    Raises ConvergenceError if LAPACK fails to converge.
    """
    a = _as_square_complex(matrix)
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
    values = values[order]
    residuals = None
    if vectors is not None:
        vectors = vectors[:, order]
        residuals = _residuals(a, values, vectors)
    return EigenSet(values=values, vectors=vectors, residuals=residuals)


def root_pairs(squares: EigenSet) -> EigenSet:
    """The values +-sqrt(mu) for every mu in squares, sorted like eigvals.

    squares holds the eigenvalues of B C for a matrix [[0, B], [C, 0]],
    whose eigenvalues are exactly these pairs.  Near zero the pairs carry
    the square root of the error in mu: sqrt(eps ||B|| ||C||) in place of
    a direct solve's eps ||A||.
    """
    roots = np.sqrt(np.asarray(squares.values, dtype=complex))
    values = np.concatenate([roots, -roots])
    values = values[np.lexsort((values.real, values.imag))]
    return EigenSet(values=values, backend="lapack-parity")


def inverse_iteration(matrix, values) -> EigenSet:
    """Unit eigenvectors and residuals for eigenvalues of matrix.

    Each value gets one LU of the matrix shifted slightly off it and two
    inverse-iteration steps from a fixed start vector.
    """
    a = _as_square_complex(matrix)
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
        shifted = np.array(a, order="F")
        shifted[np.diag_indices(n)] -= lam + 10.0 * _EPS * max(anorm, 1.0)
        lu = lu_factor(shifted, overwrite_a=True, check_finite=False)
        v = start
        for _ in range(_INVERSE_STEPS):
            v = lu_solve(lu, v, check_finite=False)
            v /= np.linalg.norm(v)
        vectors[:, col] = v
    return EigenSet(values=values, vectors=vectors,
                    residuals=_residuals(a, values, vectors))


def eigvecs_for(matrix, selected_values) -> EigenSet:
    """Unit eigenvectors for selected eigenvalues (within 1e-6 of the spectrum).

    Each requested value claims the nearest unclaimed eigenvalue of a
    values-only solve; vectors come from inverse_iteration.  A warning flag
    records any pair whose residual stays above 1e-8 (defective clusters).
    """
    a = _as_square_complex(matrix)
    requested = np.atleast_1d(np.asarray(selected_values, dtype=complex))

    spectrum = eigvals(a).values
    used: set[int] = set()
    picked_idx = []
    for lam in requested:
        dist = np.abs(spectrum - lam)
        dist[list(used)] = np.inf
        j = int(np.argmin(dist))
        if dist[j] > 1e-6:
            raise ValueError(
                f"requested value {lam} is {dist[j]:.3e} away from the "
                "nearest unclaimed eigenvalue (limit 1e-6)"
            )
        used.add(j)
        picked_idx.append(j)

    es = inverse_iteration(a, spectrum[picked_idx])
    for lam, res in zip(es.values, es.residuals):
        if not res <= _RESIDUAL_TARGET:
            msg = (f"eigenvector for {lam:.6g} converged only to residual "
                   f"{res:.3e} (defective cluster?)")
            es.flags.append(msg)
            warnings.warn(msg, RuntimeWarning, stacklevel=2)
    return es


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
def capped_blas_threads(jobs: int):
    """Cap every loaded OpenBLAS at max(1, cores // jobs) threads in the block.

    Meant for a block in which jobs threads run LAPACK at once.  The counts
    are process-wide; the previous ones are restored on exit.  Does nothing
    when no OpenBLAS is found.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    cap = max(1, cores // jobs)
    saved = [(setter, getter()) for setter, getter in _openblas_controls()]
    for setter, old in saved:
        setter(min(old, cap))
    try:
        yield
    finally:
        for setter, old in saved:
            setter(old)
