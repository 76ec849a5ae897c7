"""Shared fixtures and the dense test oracle.

The p = 0 eigensolves at N = 300 are the most expensive shared inputs
(table metrics, kernel counts, isolated-set structure), so they are
computed once per session and reused.

The library solves through the real parity blocks alone and never writes
the 4(N+1)-square stability matrix.  stability_matrix writes it here, as
the oracle: the block form's blocks laid out whole and reduced by a dense
product.  parity_basis and real_basis carry vectors of the parity blocks'
bases back into its space, and lifted_vectors builds the eigenvectors
of the kept conjugate classes of mu = lambda**2 (conjugate_classes) of
an operator's block pairs (op_products).
relative_residuals and symmetry_residual, checks that only the tests
take, live here too, with free_operator, the operator without its
soliton, blas_threads, which reads the OpenBLAS thread counts through
each library's own *_get_num_threads, pthreads_blas_threads, which reads
those of the builds capped through their blas_cpu_number, and
thread_ids, the process's threads.
"""

import dataclasses
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

import diracstab.spectrum as spectrum
from diracstab.cheb import build_grid
from diracstab.eigen import inverse_vectors
from diracstab.operator import assemble, parity_base, parity_products
from diracstab.pool import _openblas_libraries, _thread_count
from diracstab.soliton import ModelKind
from diracstab.spectrum import parity_eigvals

# Involution used to reduce i*lambda*(structure)*V = H V to a standard
# eigenproblem; squares to the identity exactly.
REDUCTION_BLOCK = np.array([
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, -1.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, -1.0, 0.0, 0.0],
])


def free_operator(model, omega, p, grid):
    """assemble's operator with the soliton potential replaced by zeros:
    the constant-coefficient operator, whose spectrum is purely the
    continuous bands.  The zeros are read-only and have the dtypes of
    |u|^2, u^2 and conj(u)^2: float64, complex128 and complex128."""
    m = grid.n + 1
    zeros = (np.zeros(m), np.zeros(m, dtype=complex),
             np.zeros(m, dtype=complex))
    for term in zeros:
        term.setflags(write=False)
    return dataclasses.replace(assemble(model, omega, p, grid),
                               potential=zeros)


def blas_threads():
    """Largest thread count that the loaded OpenBLAS libraries return from
    their own *_get_num_threads, None if none is loaded."""
    counts = [getattr(lib, get_name)()
              for lib, (_, get_name, _) in _openblas_libraries()]
    return max(counts) if counts else None


def pthreads_blas_threads():
    """Largest *_get_num_threads of the loaded OpenBLAS libraries built on
    pthreads that export blas_cpu_number, 0 if none is loaded."""
    return max((getattr(lib, get_name)()
                for lib, (_, get_name, parallel) in _openblas_libraries()
                if _thread_count(lib, parallel) is not None), default=0)


def thread_ids():
    """The ids of this process's threads, None where /proc/self/task is
    missing."""
    try:
        return {int(tid) for tid in os.listdir("/proc/self/task")}
    except OSError:
        return None


def dense_reduced(front, m, *parts):
    """-1j * kron(front, I) @ (sum of the parts), each part a 4x4 nested
    list of m x m blocks (None for a zero block) laid out whole by
    np.block."""
    zero = np.zeros((m, m), dtype=complex)
    dense = [np.block([[zero if b is None else b for b in row] for row in part])
             for part in parts]
    total = sum(dense[1:], dense[0])
    return -1j * (np.kron(front, np.eye(m)).astype(complex) @ total)


def stability_matrix(op):
    """The 4(N+1)-square stability matrix A of op: the block form of the
    operator, from op's potential, reduced by REDUCTION_BLOCK, so that
    its eigenvalues are the stability eigenvalues.  Component layout:
    all grid samples of component 0 first, then component 1, etc."""
    omega, p, grid = op.omega, op.p, op.grid
    m = grid.n + 1
    eye = np.eye(m, dtype=complex)
    deriv = -1j * grid.d_scaled.astype(complex)
    abs2, sq, csq = op.potential
    # omega on the diagonal of +-deriv, then the potential on top of that
    minus, plus = -deriv + omega * eye, deriv + omega * eye
    h00 = plus + np.diag(2.0 * abs2)
    h11 = minus + np.diag(2.0 * abs2)
    if op.model is ModelKind.MASSIVE_THIRRING:
        h = [
            [h00, np.diag(-1.0 + sq), None, None],
            [np.diag(-1.0 + csq), h11, None, None],
            [None, None, plus, np.diag(1.0 - sq)],
            [None, None, np.diag(1.0 - csq), minus],
        ]
        e2 = (p ** 2) * eye
        e_term = [[e2 if i == j else None for j in range(4)] for i in range(4)]
    else:
        cross = np.diag(1.0 - sq - csq)
        h = [
            [h00, np.diag(-1.0 + sq + 3.0 * csq), None, None],
            [np.diag(-1.0 + csq + 3.0 * sq), h11, None, None],
            [None, None, plus, cross],
            [None, None, cross, minus],
        ]
        t = 1j * p * eye
        e_term = [
            [None, None, None, t],
            [None, None, t, None],
            [None, -t, None, None],
            [-t, None, None, None],
        ]
    return dense_reduced(REDUCTION_BLOCK, m, h, e_term)


def parity_basis(m):
    """The eigenbasis Q of S = kron(P, J) as dense columns: (e_k + e_sk) /
    sqrt(2), then (e_k - e_sk) / sqrt(2); k runs over components 0 and 2,
    sk over components 1 and 3 mirrored."""
    k = np.concatenate([np.arange(m), 2 * m + np.arange(m)])
    sk = np.concatenate([2 * m - 1 - np.arange(m), 4 * m - 1 - np.arange(m)])
    e = np.eye(4 * m)
    return np.hstack([e[:, k] + e[:, sk], e[:, k] - e[:, sk]]) / np.sqrt(2.0)


def real_basis(m):
    """The dense W = blockdiag(W_J, 1j W_J): the columns of W_J are the even
    mirror combinations (e_k + e_(n-k)) / sqrt(2), e_(n/2) at a middle
    node, then 1j (e_k - e_(n-k)) / sqrt(2)."""
    h = m // 2
    e = np.eye(m)
    cols = [(e[:, k] + e[:, m - 1 - k]) / np.sqrt(2.0) for k in range(h)]
    cols += [e[:, h]] if m % 2 else []
    cols += [1j * (e[:, k] - e[:, m - 1 - k]) / np.sqrt(2.0) for k in range(h)]
    w_j = np.array(cols).T
    zero = np.zeros((m, m))
    return np.block([[w_j, zero], [zero, 1j * w_j]])


def lift(m, pair, ys, zs):
    """Columns [y; z] in the real bases of parity block pair `pair`, y on
    the rows of its B and z on those of its C, as vectors of A's space."""
    if ys.shape[0] == m:
        # split blocks: y on B's component of the +1 eigenspace, z on
        # C's of the -1
        y2 = np.zeros((2 * m, ys.shape[1]), dtype=complex)
        z2 = np.zeros((2 * m, zs.shape[1]), dtype=complex)
        y2[pair * m:(pair + 1) * m] = ys
        z2[(1 - pair) * m:(2 - pair) * m] = zs
        ys, zs = y2, z2
    both = np.kron(np.eye(2), real_basis(m)) @ np.concatenate([ys, zs])
    return parity_basis(m) @ both


def op_products(op):
    """The (B, C, B C) of each parity block pair of op at op.p, from its
    own p = 0 base, as spectrum.parity_eigvals writes them."""
    return parity_products(op.model, op.p, parity_base(op))


def conjugate_classes(mus, keep=None):
    """Per block pair's mu of spectrum._parity_solve, one eigenvalue of
    B C per conjugate class, Im mu >= 0 and ascending, the classes where
    keep(sqrt(mu)) holds (every one when keep is None): the kept classes
    that spectrum._refined_values takes."""
    return [mu if keep is None else mu[keep(np.sqrt(mu))] for mu in mus]


def members(a, real, sign=-1.0):
    """The members of each conjugate class of mu = lambda**2, along a's
    last axis, one entry per class: a and sign * a, then, where mu is not
    real, conj(a) and sign * conj(a).  For the class's lambda (sign -1)
    these are its values +-lambda, +-conj(lambda); with [y; z], an
    eigenvector of M = [[0, B], [C, 0]] for lambda, the members of y
    (sign 1) and of z are those of its values, as M is real."""
    both = a[..., ~real].conj()
    return np.concatenate([a, sign * a, both, sign * both], axis=-1)


def lifted_vectors(op, pairs, kept, starts=None, transfer=None):
    """The values of the conjugate classes kept, the value each unit
    eigenvector belongs to and those vectors in A's space, one column per
    value, in the order of spectrum._refined_values, which takes the
    arguments: pairs are op's (B, C, B C) and starts the start
    (B, C, B C), the pairs themselves when not given, on op's grid or,
    with transfer, on a coarser one.

    Every class takes one [y; z].  Away from the origin its vector x of
    B C comes from two inverse_vectors steps, of the start's B C and then
    of the pair's, carried by spectrum._transferred between them where
    transfer is given; its mu is x's Rayleigh quotient, real where the
    class's is, and its [y; z] spectrum._lift's.  Near the origin its
    [y; z] is spectrum._origin_vectors' for its root sqrt(mu).  Each
    member takes its value, sign and conjugate from members.
    """
    m = op.grid.n + 1
    parts = []
    for pair, ((b, c, bc), (_, _, start_bc), mu) in enumerate(
            zip(pairs, pairs if starts is None else starts, kept)):
        roots, real = np.sqrt(mu), mu.imag == 0.0
        far = np.abs(roots) > spectrum._NEAR_ORIGIN_RADIUS
        lams = roots.copy()
        ys = np.empty((b.shape[0], mu.size), dtype=complex)
        zs = np.empty_like(ys)
        if np.any(far):
            xs = inverse_vectors(start_bc, mu[far])
            if transfer is not None:
                xs = spectrum._transferred(transfer, xs)
            xs = inverse_vectors(bc, mu[far], xs)
            quotients = np.sum(xs.conj() * (bc @ xs), axis=0)
            lams[far] = np.sqrt(np.where(real[far], quotients.real,
                                         quotients).astype(complex))
            ys[:, far], zs[:, far] = spectrum._lift(c, xs, lams[far])
        if not np.all(far):
            ys[:, ~far], zs[:, ~far] = spectrum._origin_vectors(
                b, c, roots[~far])
        parts.append((members(roots, real), members(lams, real),
                      lift(m, pair, members(ys, real, 1.0),
                           members(zs, real))))
    values, lams, vectors = zip(*parts)
    return (np.concatenate(values), np.concatenate(lams),
            np.hstack(vectors))


def relative_residuals(a, values, vectors):
    """||a v - lambda v|| / ||a||_F for each value and unit column v."""
    res = np.linalg.norm(a @ vectors - vectors * values[None, :], axis=0)
    anorm = np.linalg.norm(a)
    return res / (anorm if anorm != 0.0 else 1.0)


def lifted_residuals(op, pairs, kept, starts=None, transfer=None):
    """The values of the conjugate classes kept, and ||A v - lambda v|| /
    ||A||_F on the dense oracle A for their parity-basis eigenvectors
    lifted into A's space (lifted_vectors, which takes the arguments)."""
    values, lams, vectors = lifted_vectors(op, pairs, kept, starts,
                                           transfer)
    np.testing.assert_allclose(np.linalg.norm(vectors, axis=0), 1.0,
                               rtol=0, atol=1e-14)
    return values, relative_residuals(stability_matrix(op), lams, vectors)


def symmetry_residual(eigs, model) -> float:
    """Mismatch between the eigenvalue multiset and its symmetry reflections.

    Real-axis and imaginary-axis reflections apply to the first model;
    only the imaginary-axis reflection is guaranteed for the second.
    Returns the largest distance from any reflected eigenvalue to the
    nearest computed one.
    """
    model = ModelKind(model)
    values = np.asarray(getattr(eigs, "values", eigs), dtype=complex).ravel()
    if values.size == 0:
        raise ValueError("empty eigenvalue set")
    if model is ModelKind.MASSIVE_THIRRING:
        maps = (np.conj(values), -values, -np.conj(values))
    else:
        maps = (-np.conj(values),)
    worst = 0.0
    for reflected in maps:
        gaps = np.abs(reflected[:, None] - values[None, :]).min(axis=1)
        worst = max(worst, float(gaps.max()))
    return worst


class GridCache:
    def __init__(self):
        self._store = {}

    def __call__(self, n, scale=10.0):
        key = (int(n), float(scale))
        if key not in self._store:
            self._store[key] = build_grid(*key)
        return self._store[key]


class SpectrumCache:
    """Memoized p = 0 eigensolves keyed by (model, omega, n), through the
    production parity-block solve."""

    def __init__(self, grids):
        self._grids = grids
        self._store = {}

    def __call__(self, model, omega, n):
        key = (model, round(float(omega), 9), int(n))
        if key not in self._store:
            op = assemble(model, omega, 0.0, self._grids(n))
            self._store[key] = parity_eigvals(op)
        return self._store[key]


@pytest.fixture(scope="session")
def grid_cache():
    return GridCache()


@pytest.fixture(scope="session")
def p0_spectra(grid_cache):
    return SpectrumCache(grid_cache)


class FileRecord:
    """An append-only list kept in a file.

    A sweep at jobs > 1 runs its solves in forked worker processes, where
    a recorder patched in by the test appends to the worker's copy of a
    list; appends to a FileRecord reach the test from any process.  Each
    value is written as one JSON line and read back through decode, in
    order of append within each process.
    """

    def __init__(self, path, decode=None):
        self._path = path
        self._decode = decode or (lambda value: value)
        path.write_text("")

    def append(self, value):
        with open(self._path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(value) + "\n")

    def __iter__(self):
        lines = self._path.read_text(encoding="utf-8").splitlines()
        return (self._decode(json.loads(line)) for line in lines)

    def __len__(self):
        return sum(1 for _ in self)


@pytest.fixture
def file_record(tmp_path):
    """FileRecord factory: file_record(name, decode=None)."""
    return lambda name, decode=None: FileRecord(tmp_path / f"{name}.jsonl",
                                                decode)


class SolvedMatrices:
    """The distinct matrices np.linalg.solve saw, from a FileRecord of its
    calls: one [pid, index, shape, dtype] line per call, index counting
    the distinct matrices of the calling process.  Iterates over them in
    order of first use per process, as namespaces with shape, dtype and
    solves, the number of calls that solved them."""

    def __init__(self, calls):
        self._calls = calls

    def __iter__(self):
        matrices = {}
        for pid, index, shape, dtype in self._calls:
            key = (pid, index)
            if key not in matrices:
                matrices[key] = SimpleNamespace(
                    shape=tuple(shape), dtype=np.dtype(dtype), solves=0)
            matrices[key].solves += 1
        return iter(list(matrices.values()))

    def __len__(self):
        return sum(1 for _ in self)


@pytest.fixture
def shifted_matrices(monkeypatch, file_record):
    """The shape, dtype and solve count of every distinct matrix
    np.linalg.solve sees while the test runs, in its own process or a
    forked pool worker, in order of first use per process: the shifted
    matrices of inverse_vectors, one per value and call, each solved once
    (SolvedMatrices)."""
    seen = []  # per process: a forked worker keeps its own copy
    calls = file_record("shifted")
    solve = np.linalg.solve

    def recording(matrix, rhs):
        index = next((k for k, m in enumerate(seen) if m is matrix), None)
        if index is None:
            index = len(seen)
            seen.append(matrix)
        calls.append([os.getpid(), index, matrix.shape, matrix.dtype.str])
        return solve(matrix, rhs)

    monkeypatch.setattr(np.linalg, "solve", recording)
    return SolvedMatrices(calls)
