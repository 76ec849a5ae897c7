"""Shared fixtures: memoized grids and p = 0 reference spectra.

The p = 0 eigensolves at N = 300 are the most expensive shared inputs
(table metrics, kernel counts, isolated-set structure), so they are
computed once per session and reused.
"""

import threading

import numpy as np
import pytest

from diracstab.cheb import build_grid
from diracstab.operator import assemble
from diracstab.spectrum import parity_eigvals


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


@pytest.fixture
def shifted_matrices(monkeypatch):
    """Every distinct matrix np.linalg.solve sees while the test runs, in
    order of first use: the shifted matrices of inverse_iteration, each
    solved once per inverse-iteration step.  Safe under a sweep's thread
    pool."""
    seen = []
    lock = threading.Lock()
    solve = np.linalg.solve

    def recording(matrix, rhs):
        with lock:
            if not any(m is matrix for m in seen):
                seen.append(matrix)
        return solve(matrix, rhs)

    monkeypatch.setattr(np.linalg, "solve", recording)
    return seen
