"""The transverse-stability operators, as real parity blocks.

The linearized problem is a four-component first-order system.  For both
models an orthogonal change of variables turns it into a block form: two
2x2 Dirac-type operators coupled only through the transverse term.  The
block form, which has the same spectrum, is the one discretized on the
mapped Chebyshev grid.  It is reduced to a standard eigenvalue problem
for lambda by left-multiplying with -i times the constant involution
that carries the symplectic structure (a signed permutation whose square
is the identity).

The reduced matrix A anticommutes, at every p, with the parity involution
S = kron(P, J): P swaps components 0 <-> 1 and 2 <-> 3, and J reverses
the grid (x -> -x).  In the eigenbasis of S, A is [[0, B], [C, 0]], so
its eigenvalues are +-sqrt(eig(B C)).  B and C have a second, exact
antiunitary symmetry, T conj(B) T = B with T = kron(diag(1, -1), J), so
a unitary change of basis built from mirror pairs of grid nodes makes
them real.  parity_blocks writes the real p = 0 blocks, one (N+1)-square
pair per parity component, in closed form from the model's blocks: the
differentiation matrix is centro-antisymmetric, so in the mirror basis
each block is one transform of it plus four diagonals.

p enters only through the transverse term, a diagonal, and only
parity_products adds it: it writes B, C and B C from the model, p and
the p = 0 pairs and their products (parity_base) in O(N**2); each
process that solves a sweep's points takes the (N+1)-square products
once.  parity_transfer carries a vector of the blocks' bases from a
coarse grid to a fine one.

assemble samples the soliton potential and keeps it with the parameters;
it writes no matrix, and A itself is never written.  Its component
layout, which the parity basis refers to: all grid samples of component
0 first, then component 1, etc.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cheb import ChebGrid, interpolation_matrix
from .soliton import ModelKind, SolitonProfile, eval_profile

_SQRT_HALF = np.sqrt(0.5)


@dataclass(frozen=True)
class SpectralBands:
    """Continuous-spectrum bands: four half-lines on the imaginary axis.

    band_edges holds (edge, direction) pairs; the half-line is the set of
    points i*s with direction*(s - edge) >= 0.  gap_closed is true when
    the two innermost edges meet or cross at the origin.
    """

    model: ModelKind
    omega: float
    p: float
    band_edges: tuple
    gap_closed: bool

    @property
    def gap_width(self) -> float:
        """Length of the open interval between the innermost edges (0 if closed)."""
        inner = min(edge for edge, direction in self.band_edges if direction > 0)
        return max(0.0, 2.0 * inner)

    def distance(self, values) -> np.ndarray:
        """Distance from each complex value to the union of the four bands."""
        lam = np.atleast_1d(np.asarray(values, dtype=complex))
        dists = []
        for edge, direction in self.band_edges:
            on_ray = direction * (lam.imag - edge) >= 0.0
            d = np.where(on_ray, np.abs(lam.real), np.abs(lam - 1j * edge))
            dists.append(d)
        return np.min(dists, axis=0)


@dataclass(frozen=True)
class StabilityOperator:
    """A stability operator: its parameters and the soliton potential on
    its grid, all that parity_blocks writes its blocks from.

    potential holds |u|^2, u^2 and conj(u)^2 at the grid nodes, as
    read-only vectors.  dim is the order of the stability matrix A, which
    no part of the library writes.
    """

    model: ModelKind
    omega: float
    p: float
    grid: ChebGrid
    potential: tuple = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        """The order 4(N+1) of the stability matrix A."""
        return 4 * (self.grid.n + 1)


def _potential_terms(model: ModelKind, omega: float, grid: ChebGrid):
    """|u|^2, u^2 and conj(u)^2 at the grid nodes, as read-only vectors."""
    u = eval_profile(SolitonProfile.create(model, omega), grid.nodes_x)
    terms = np.abs(u) ** 2, u ** 2, np.conj(u) ** 2
    for term in terms:
        term.setflags(write=False)
    return terms


def _checked_p(model: ModelKind, p) -> float:
    """p as a float, where p and the highest power of it in the blocks,
    p**4 for mtm and p**2 for gn (parity_products), are finite in
    float64, else ValueError.  Python floats overflow to inf silently."""
    p = float(p)
    if not np.isfinite(p * p * (p * p if model is ModelKind.MASSIVE_THIRRING
                                else 1.0)):
        raise ValueError(f"transverse wavenumber p and its blocks in "
                         f"float64 must be finite, got {p}")
    return p


def assemble(model, omega: float, p: float,
             grid: ChebGrid) -> StabilityOperator:
    """The stability operator at transverse wavenumber p.

    Samples the soliton once and writes no matrix; parity_products writes
    the blocks the solves need.  p must pass _checked_p, and omega be
    admissible for the model's soliton family.
    """
    model = ModelKind(model)
    p = _checked_p(model, p)
    if not isinstance(grid, ChebGrid):
        raise ValueError("grid must be a ChebGrid instance")
    return StabilityOperator(
        model=model, omega=float(omega), p=p, grid=grid,
        potential=_potential_terms(model, omega, grid))


def _mirror_basis(x: np.ndarray) -> np.ndarray:
    """M^T x along the first axis, for the real mirror basis M = [E, O].

    E holds the even combinations (e_k + e_(n-k)) / sqrt(2) for k < n / 2,
    then e_(n/2) when the grid has a middle node; O holds the odd ones
    (e_k - e_(n-k)) / sqrt(2).
    """
    m = x.shape[0]
    h = m // 2
    out = np.empty_like(x)
    np.add(x[:h], x[::-1][:h], out=out[:h])
    out[:h] *= _SQRT_HALF
    out[h:m - h] = x[h:m - h]
    np.subtract(x[:h], x[::-1][:h], out=out[m - h:])
    out[m - h:] *= _SQRT_HALF
    return out


def _component_blocks(op: StabilityOperator) -> dict:
    """The model blocks that meet in the parity component blocks (R, J)
    of B and C at p = 0, (0, 1) and (1, 0); the diagonal ones are zero.

    That block of B and of C is taken from rows 2R, 2R + 1 and columns
    2J, 2J + 1 of A's 4 x 4 blocks, whose rows are rows 2 - 2R, 3 - 2R of
    the operator's blocks times -1j and +1j.  Maps (R, J) to
    (diagonal, upper, lower): the two diagonal blocks are
    -1j D + diag(diagonal) and 1j D + diag(diagonal), with D the scaled
    differentiation matrix, and upper and lower are the complex
    diagonals of the two off-diagonal blocks.
    """
    abs2, sq, csq = op.potential
    omega = op.omega
    if op.model is ModelKind.MASSIVE_THIRRING:
        return {
            (0, 1): (np.full(abs2.shape, omega), 1.0 - sq, 1.0 - csq),
            (1, 0): (omega + 2.0 * abs2, -1.0 + sq, -1.0 + csq),
        }
    cross = 1.0 - sq - csq
    return {
        (0, 1): (np.full(abs2.shape, omega), cross, cross),
        (1, 0): (omega + 2.0 * abs2,
                 -1.0 + sq + 3.0 * csq, -1.0 + csq + 3.0 * sq),
    }


def parity_blocks(op: StabilityOperator) -> list:
    """Real parity blocks of the stability matrix A of op's model, omega
    and grid at p = 0, whatever op.p is: a list of two (B, C) pairs,
    written without A.  parity_products adds p.

    B and C are W^-1 B W and W^-1 C W for the off-diagonal blocks of A
    in the eigenbasis of S: the basis vectors are (e_k +- e_sk) / sqrt(2),
    with k running over the rows of components 0 and 2 and sk over their
    mirrors (components 1 and 3 at grid index n - j).  B maps the -1
    eigenspace of S into the +1 eigenspace and C the +1 into the -1;
    their first N+1 rows and columns, parity component 0, hold k in
    component 0, the rest k in component 2.
    W = blockdiag(W_J, 1j W_J) with W_J = [E, 1j O], E and O the even and
    odd mirror combinations of one component (see _mirror_basis).  W is
    unitary, and T conj(B) T = B, T = kron(diag(1, -1), J), pairs every
    entry with the conjugate of its mirror, so B and C are real.  At
    p = 0 the reduction pairs components {0, 1} only with {2, 3}, so B
    and C have zero diagonal component blocks and B C is block diagonal:
    pair k has the B that maps parity component 1 - k of the -1
    eigenspace into component k of the +1 eigenspace, and the C that maps
    it back.  The eigenvalues of A are +-sqrt(mu) for the eigenvalues mu
    of the real products B @ C, over both pairs.

    The scaled differentiation matrix D is centro-antisymmetric,
    D[n-i, n-j] = -D[i, j], so E^T D E and O^T D O vanish and each
    (N+1)-square component block (R, J) is written in closed form from
    M^T D M and four diagonals.  With t = J - R, g = upper +
    reversed(lower), d = diagonal (see _component_blocks) and the upper
    sign for B, the lower for C, it is t [[0, E^T D O], [-O^T D E, 0]]
    plus, at k:
      t (d_k + d_(n-k)) / 2 +- Re(1j**(t+1) (g_k + g_(n-k))) / 4
        on the even-even diagonal, with -+ on the odd-odd one, and
      +-Re(1j**t (g_k - g_(n-k))) / 4 on both even-odd diagonals.
    """
    m = op.grid.n + 1
    h = m // 2
    e = m - h
    pairs = np.empty((2, 2, m, m))
    # (B or C, row component, column component) -> its block of the output
    slots = {(0, 0, 1): pairs[0, 0], (1, 1, 0): pairs[0, 1],
             (0, 1, 0): pairs[1, 0], (1, 0, 1): pairs[1, 1]}
    mdm = _mirror_basis(_mirror_basis(op.grid.d_scaled).T).T  # M^T D M
    evens, odds = np.arange(e), np.arange(h)
    for (r, j), (d, upper, lower) in _component_blocks(op).items():
        t = j - r
        g = upper + lower[::-1]
        d_sum = 0.5 * t * (d[:e] + d[::-1][:e])
        g_sum = 0.25 * (1j ** (t + 1) * (g[:e] + g[::-1][:e])).real
        g_diff = 0.25 * (1j ** t * (g[:h] - g[::-1][:h])).real
        for k, sign in enumerate((1.0, -1.0)):
            out = slots[k, r, j]
            out[:e, :e] = 0.0
            out[e:, e:] = 0.0
            np.multiply(mdm[:e, e:], t, out=out[:e, e:])
            np.multiply(mdm[e:, :e], -t, out=out[e:, :e])
            out[evens, evens] += d_sum + sign * g_sum
            out[e + odds, e + odds] += d_sum[:h] - sign * g_sum[:h]
            out[odds, e + odds] += sign * g_diff
            out[e + odds, odds] += sign * g_diff
    return [tuple(pair) for pair in pairs]


def parity_base(op: StabilityOperator) -> tuple:
    """The p = 0 block pairs of op's model, omega and grid, whatever op.p
    is, with their products: a tuple of read-only (B, C, B @ C), one per
    pair of parity_blocks.  parity_products builds the pairs and products
    at any p from these."""
    base = tuple((b, c, b @ c) for b, c in parity_blocks(op))
    for arrays in base:
        for x in arrays:
            x.setflags(write=False)
    return base


def parity_products(model, p: float, base: tuple) -> list:
    """(B, C, B @ C) for each real parity block pair of the model's
    stability matrix at p, all float64 arrays, from base, the p = 0 pairs
    and products (parity_base) of its omega and grid.  This is the one
    place where p enters the blocks.

    At p = 0 the base's read-only arrays are returned as they are.  The
    transverse term is a diagonal, so a pair costs O(N**2) on top of its
    base.  With (B0, C0, B0 C0), (B1, C1, B1 C1) the base pairs (see
    parity_blocks):
    - mtm: p**2 sits on the diagonal of every block, B = B0 + s I and
      C = C0 - s I with s = p**2 for pair 0 (s = -p**2 for pair 1, from
      B1, C1), so B C = B0 C0 + s (C0 - B0) - s**2 I, and B C stays block
      diagonal: two (N+1)-square pairs;
    - gn at p > 0: one 2(N+1)-square pair, B = [[p S, B0], [B1, -p S]] and
      C = [[-p S, C1], [C0, p S]], S the +1 on the even and -1 on the odd
      rows of a component, so B C = [[B0 C0 - p**2 I, p (S C1 + B0 S)],
      [-p (B1 S + S C0), B1 C1 - p**2 I]].
    The products agree with B @ C to rounding, not bit for bit.
    """
    if ModelKind(model) is ModelKind.MASSIVE_THIRRING or p == 0.0:
        pairs = []
        for (b0, c0, bc0), s in zip(base, (p * p, -p * p)):
            if not s:
                pairs.append((b0, c0, bc0))
                continue
            diagonal = np.diag_indices_from(bc0)
            b, c = b0.copy(), c0.copy()
            b[diagonal] += s
            c[diagonal] -= s
            bc = np.subtract(c0, b0)
            bc *= s
            bc += bc0
            bc[diagonal] -= s * s
            pairs.append((b, c, bc))
        return pairs
    (b0, c0, bc0), (b1, c1, bc1) = base
    m = b0.shape[0]
    ps = np.full(m, p)
    ps[m - m // 2:] = -p
    bc = np.empty((2 * m, 2 * m))
    bc[:m, :m], bc[m:, m:] = bc0, bc1
    bc[np.diag_indices_from(bc)] -= p * p
    np.multiply(ps[:, None], c1, out=bc[:m, m:])
    bc[:m, m:] += b0 * ps
    np.multiply(b1, -ps, out=bc[m:, :m])
    bc[m:, :m] -= ps[:, None] * c0
    shift = np.concatenate([ps, -ps])
    return [(_joined(b0, b1, shift), _joined(c1, c0, -shift), bc)]


def _joined(upper, lower, diagonal) -> np.ndarray:
    """[[0, upper], [lower, 0]] + diag(diagonal), written out."""
    m = upper.shape[0]
    out = np.zeros((2 * m, 2 * m))
    out[:m, m:], out[m:, :m] = upper, lower
    out[np.diag_indices_from(out)] = diagonal
    return out


def parity_transfer(coarse: ChebGrid, fine: ChebGrid) -> np.ndarray:
    """Interpolation from coarse to fine in the mirror basis of parity_blocks.

    P_J = M_f^T I M_c, with I the interpolation_matrix from coarse to
    fine (same map) and M_c, M_f the real mirror bases of one component
    (see _mirror_basis).  I commutes with x -> -x bit for bit, so P_J is
    exactly block diagonal, even to even and odd to odd.  It carries a
    vector of one component of a parity block pair from coarse to fine;
    blockdiag(P_J, P_J) carries one of both components.
    """
    interp = interpolation_matrix(coarse, fine)
    return _mirror_basis(_mirror_basis(interp).T).T


def continuous_bands(model, omega: float, p: float) -> SpectralBands:
    """Band edges of the continuous spectrum at transverse wavenumber p."""
    model = ModelKind(model)
    SolitonProfile.create(model, omega)
    p = float(p)
    if model is ModelKind.MASSIVE_THIRRING:
        outer = 1.0 + omega + p ** 2
        inner = 1.0 - omega - p ** 2
        closed = inner <= 0.0
    else:
        root = float(np.hypot(1.0, p))
        outer = root + omega
        inner = root - omega
        closed = False
    edges = ((outer, 1), (-outer, -1), (inner, 1), (-inner, -1))
    return SpectralBands(model=model, omega=float(omega), p=p,
                         band_edges=edges, gap_closed=bool(closed))

