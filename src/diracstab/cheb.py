"""Tanh-mapped Chebyshev collocation grid, scaled differentiation matrix,
and polynomial interpolation between two grids on one map.

The reference interval z in [-1, 1] carries the standard Chebyshev nodes
z_j = cos(j pi / N); the map x = L * atanh(z) sends them to the real line
with x_0 = +inf and x_N = -inf.  The chain rule turns the standard
differentiation matrix D_N into the scaled matrix

    Dt_ij = (1/L) * sech^2(x_i / L) * D_ij = ((1 - z_i^2) / L) * D_ij,

whose first and last rows vanish identically, so the decay conditions at
infinity are built into the discretization and no boundary rows need to
be modified.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChebGrid:
    """Collocation grid of degree n with map scale L.

    Attributes
    ----------
    n : int
        Polynomial degree; the grid has n + 1 nodes.
    scale : float
        Map parameter L > 0.
    nodes_z : ndarray
        Chebyshev nodes on [-1, 1], exactly antisymmetric: z[j] = -z[n-j].
    nodes_x : ndarray
        Mapped nodes L*atanh(z); nodes_x[0] = +inf, nodes_x[n] = -inf.
    d_standard : ndarray
        The (n+1) x (n+1) Chebyshev differentiation matrix D_N.
    d_scaled : ndarray
        diag((1 - z^2)/L) @ D_N; rows 0 and n are exactly zero.
    """

    n: int
    scale: float
    nodes_z: np.ndarray
    nodes_x: np.ndarray
    d_standard: np.ndarray
    d_scaled: np.ndarray


def build_grid(n: int, scale: float = 10.0) -> ChebGrid:
    """Build the mapped grid; n >= 2 (even n recommended), finite scale > 0."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(
            f"polynomial degree n must be an integer, got {n!r}") from None
    if n < 2:
        raise ValueError(f"polynomial degree n must be >= 2, got {n}")
    if not 0.0 < scale < np.inf:
        raise ValueError(f"map scale must be positive and finite, got {scale}")

    j = np.arange(n + 1)
    # sin form of cos(j pi / n): bitwise-exact node antisymmetry z_j = -z_{n-j}
    z = np.sin(np.pi * (n - 2 * j) / (2.0 * n))
    half = (n + 1) // 2
    z[n - np.arange(half) ] = -z[:half]
    if n % 2 == 0:
        z[n // 2] = 0.0

    x = np.empty(n + 1)
    x[0] = np.inf
    x[1:half] = scale * np.arctanh(z[1:half])
    x[n - np.arange(half)] = -x[:half]
    if n % 2 == 0:
        x[n // 2] = 0.0

    c = np.ones(n + 1)
    c[0] = 2.0
    c[n] = 2.0
    c = c * (-1.0) ** j
    zcol = z[:, None]
    dz = zcol - zcol.T + np.eye(n + 1)
    d = np.outer(c, 1.0 / c) / dz
    np.fill_diagonal(d, 0.0)
    # negative-sum trick: diagonal from the rows so constants differentiate to 0
    np.fill_diagonal(d, -d.sum(axis=1))

    weight = (1.0 - z**2) / scale
    d_scaled = weight[:, None] * d
    # 1 - z^2 is exactly 0 at the endpoints, but make the contract explicit
    d_scaled[0, :] = 0.0
    d_scaled[n, :] = 0.0

    for arr in (z, x, d, d_scaled):
        arr.setflags(write=False)
    return ChebGrid(n=n, scale=float(scale), nodes_z=z, nodes_x=x,
                    d_standard=d, d_scaled=d_scaled)


def interpolation_matrix(source: ChebGrid, target: ChebGrid) -> np.ndarray:
    """Polynomial interpolation from source's nodes to target's.

    The (target.n + 1) x (source.n + 1) matrix that takes values at
    source's nodes to the values of their degree-source.n interpolant in z
    at target's nodes, in the barycentric form for Chebyshev-Lobatto
    points (Berrut and Trefethen, SIAM Review 46 (2004) 501-517); a
    target node that is also a source node gets a unit row.  Both grids
    must share the map scale, so that z and x interpolate alike.  The
    matrix commutes bit for bit with x -> -x: entry (i, j) equals entry
    (target.n - i, source.n - j).
    """
    if source.scale != target.scale:
        raise ValueError(f"grids on different maps: scale {source.scale} "
                         f"and {target.scale}")
    weights = (-1.0) ** np.arange(source.n + 1)
    weights[[0, -1]] *= 0.5
    diff = target.nodes_z[:, None] - source.nodes_z
    shared = diff == 0.0
    diff[shared] = 1.0
    terms = weights / diff
    terms /= terms.sum(axis=1, keepdims=True)
    rows = shared.any(axis=1)
    terms[rows] = shared[rows]
    # the row sums round differently at mirror nodes: average each entry
    # with its mirror, a commutative sum, so that the symmetry is exact
    return 0.5 * (terms + terms[::-1, ::-1])


def sample_on_grid(grid: ChebGrid, f) -> np.ndarray:
    """Sample a function of x at the grid nodes, endpoints included.

    f must accept the infinite endpoint values and return the limit there
    (soliton-derived quantities return 0).  A vectorized call is attempted
    first; scalar evaluation is the fallback when f rejects the array
    (TypeError or ValueError) or returns the wrong shape.  Any other error
    from f propagates.
    """
    try:
        vals = np.asarray(f(grid.nodes_x))
        if vals.shape != grid.nodes_x.shape:
            raise ValueError
    except (TypeError, ValueError):
        vals = np.asarray([f(xv) for xv in grid.nodes_x])
    return vals
