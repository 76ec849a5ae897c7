"""Dense complex nonsymmetric eigensolver.

Every solve goes to LAPACK (zgeev) through numpy.linalg.  Output order is
deterministic: sorted by (imaginary part, real part).  A LAPACK failure to
converge is re-raised as ConvergenceError, which the command line maps to
exit code 3.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

_EPS = np.finfo(float).eps


class ConvergenceError(RuntimeError):
    """The eigensolve did not converge; the LAPACK error is the __cause__."""


@dataclass
class EigenSet:
    """Eigenvalues, optional eigenvectors, and solve diagnostics.

    values are sorted by (imag, real); vectors, when present, are unit
    columns aligned with values; residuals are ||A v - lambda v|| / ||A||_F
    per pair.  backend names the solver and iterations is always 0: LAPACK
    does not report its QR sweep count.
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


def eigvecs_for(matrix, selected_values) -> EigenSet:
    """Unit eigenvectors for selected eigenvalues (within 1e-6 of the spectrum).

    Vectors come from the full solve and are refined by inverse iteration
    when their residual is above 1e-8; a warning flag records any pair that
    still misses that target (defective clusters).
    """
    a = _as_square_complex(matrix)
    requested = np.atleast_1d(np.asarray(selected_values, dtype=complex))

    full = eigvals(a, want_vectors=True)
    used: set[int] = set()
    picked_idx = []
    for lam in requested:
        dist = np.abs(full.values - lam)
        dist[list(used)] = np.inf
        j = int(np.argmin(dist))
        if dist[j] > 1e-6:
            raise ValueError(
                f"requested value {lam} is {dist[j]:.3e} away from the "
                "nearest unclaimed eigenvalue (limit 1e-6)"
            )
        used.add(j)
        picked_idx.append(j)

    values = full.values[picked_idx]
    vectors = full.vectors[:, picked_idx].copy()
    residuals = _residuals(a, values, vectors)
    flags = []
    anorm = np.linalg.norm(a)
    for col, (lam, res) in enumerate(zip(values, residuals)):
        tries = 0
        while res > 1e-8 and tries < 2:
            # one inverse-iteration step against a slightly shifted matrix
            shift = lam + 10.0 * _EPS * max(anorm, 1.0)
            try:
                v = np.linalg.solve(a - shift * np.eye(a.shape[0]), vectors[:, col])
            except np.linalg.LinAlgError:
                break
            v /= np.linalg.norm(v)
            vectors[:, col] = v
            res = _residuals(a, values[col:col + 1], v[:, None])[0]
            tries += 1
        residuals[col] = res
        if res > 1e-8:
            msg = (f"eigenvector for {lam:.6g} converged only to residual "
                   f"{res:.3e} (defective cluster?)")
            flags.append(msg)
            warnings.warn(msg, RuntimeWarning, stacklevel=2)
    return EigenSet(values=values, vectors=vectors, residuals=residuals,
                    flags=flags)
