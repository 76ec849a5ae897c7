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
them real.  parity_blocks writes those real blocks, split by component
where B C is block diagonal, straight from the model's blocks, one
(N+1)-square block at a time.

assemble samples the soliton potential and keeps it with the parameters;
it writes no matrix, and A itself is never written.  Its component
layout, which the parity basis refers to: all grid samples of component
0 first, then component 1, etc.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cheb import ChebGrid
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
    potential_zeroed: bool = False

    @property
    def dim(self) -> int:
        """The order 4(N+1) of the stability matrix A."""
        return 4 * (self.grid.n + 1)


def _potential_terms(model: ModelKind, omega: float, grid: ChebGrid,
                     zero_potential: bool):
    """|u|^2, u^2 and conj(u)^2 at the grid nodes, as read-only vectors."""
    if zero_potential:
        u = np.zeros(grid.n + 1, dtype=complex)
    else:
        profile = SolitonProfile.create(model, omega)
        u = eval_profile(profile, grid.nodes_x)
    terms = np.abs(u) ** 2, u ** 2, np.conj(u) ** 2
    for term in terms:
        term.setflags(write=False)
    return terms


def assemble(model, omega: float, p: float, grid: ChebGrid,
             zero_potential: bool = False) -> StabilityOperator:
    """The stability operator at transverse wavenumber p.

    Samples the soliton once and writes no matrix; parity_blocks writes
    the blocks the solves need.  zero_potential is a test hook that drops the
    soliton terms, leaving the constant-coefficient operator whose
    spectrum is purely the continuous bands.
    """
    model = ModelKind(model)
    if not isinstance(grid, ChebGrid):
        raise ValueError("grid must be a ChebGrid instance")
    # omega admissibility is enforced by profile construction; the zero
    # potential hook still validates it for consistent error behavior
    SolitonProfile.create(model, omega)
    return StabilityOperator(
        model=model, omega=float(omega), p=float(p), grid=grid,
        potential=_potential_terms(model, omega, grid, zero_potential),
        potential_zeroed=bool(zero_potential))


def _splits(op: StabilityOperator) -> bool:
    """True when B C is block diagonal in the two parity components.

    Without the transverse term, and for mtm with it (its p**2 sits on the
    diagonal), the reduction pairs components {0, 1} only with {2, 3}, so
    B and C have zero diagonal component blocks.
    """
    return op.model is ModelKind.MASSIVE_THIRRING or op.p == 0.0


def _mirror_sums(x: np.ndarray, out: np.ndarray, scale) -> None:
    """out = (x_k + x_(n-k)) * scale along the last axis, for the first
    out.shape[-1] indices k."""
    k = out.shape[-1]
    np.add(x[..., :k], x[..., ::-1][..., :k], out=out)
    out *= scale


def _mirror_differences(x: np.ndarray, out: np.ndarray, scale) -> None:
    """out = (x_k - x_(n-k)) * scale along the last axis, for the first
    out.shape[-1] indices k."""
    k = out.shape[-1]
    np.subtract(x[..., :k], x[..., ::-1][..., :k], out=out)
    out *= scale


def _real_block(re: np.ndarray, im: np.ndarray, turn: int,
                out: np.ndarray) -> None:
    """out = 1j**turn * W_J^H X W_J for X = re + 1j * im, turn in {-1, 0, 1}.

    The columns of W_J are the even mirror combinations, then 1j times
    the odd ones.  W = blockdiag(W_J, 1j W_J) carries the parity block
    of components (R, J) by the phase 1j**(J - R).  The product is real
    (see parity_blocks), and it is formed from the real and imaginary
    parts of X: a factor +-1j only swaps and signs them, so each entry
    takes the same operations in the same order as the complex product.
    """
    m = re.shape[0]
    h = m // 2
    # even combinations (e_k + e_(n-k)) / sqrt(2); a middle node pairs
    # with itself, (x + x) / 2 = x
    scale = np.full(m - h, _SQRT_HALF)
    scale[h:] = 0.5
    # Y = X W_J, whose odd columns carry the factor 1j
    y_re, y_im = np.empty((m, m)), np.empty((m, m))
    _mirror_sums(re, y_re[:, :m - h], scale)
    _mirror_differences(im, y_re[:, m - h:], -_SQRT_HALF)
    _mirror_sums(im, y_im[:, :m - h], scale)
    _mirror_differences(re, y_im[:, m - h:], _SQRT_HALF)
    # the rows of W_J^H Y, the odd ones times -1j, through the transposes;
    # the real part of +-1j Z is -+ its imaginary part
    if turn == 0:
        _mirror_sums(y_re.T, out[:m - h].T, scale)
        _mirror_differences(y_im.T, out[m - h:].T, _SQRT_HALF)
    else:
        _mirror_sums(y_im.T, out[:m - h].T, -turn * scale)
        _mirror_differences(y_re.T, out[m - h:].T, turn * _SQRT_HALF)


def _component_blocks(op: StabilityOperator) -> dict:
    """The model blocks that meet in each parity component block (R, J).

    That block of B and of C is taken from rows 2R, 2R + 1 and columns
    2J, 2J + 1 of A's 4 x 4 blocks, whose rows are rows 2 - 2R, 3 - 2R of
    the operator's blocks times -1j and +1j.  Maps (R, J) to
    (derivative, diagonal, upper, lower): derivative is true where the
    two diagonal blocks are -1j D + diag(diagonal) and 1j D +
    diag(diagonal), with D the scaled differentiation matrix, and false
    where they are zero; upper and lower are the complex diagonals of the
    two off-diagonal blocks.  Each vector sums its terms in the order the
    block form adds them onto its diagonals.  Only the blocks parity_blocks
    returns are listed.
    """
    abs2, sq, csq = op.potential
    omega, p = op.omega, op.p
    if op.model is ModelKind.MASSIVE_THIRRING:
        p2 = p ** 2
        return {
            (0, 1): (True, np.full(abs2.shape, omega + p2),
                     1.0 - sq, 1.0 - csq),
            (1, 0): (True, (omega + 2.0 * abs2) + p2,
                     -1.0 + sq, -1.0 + csq),
        }
    cross = 1.0 - sq - csq
    blocks = {
        (0, 1): (True, np.full(abs2.shape, omega), cross, cross),
        (1, 0): (True, omega + 2.0 * abs2,
                 -1.0 + sq + 3.0 * csq, -1.0 + csq + 3.0 * sq),
    }
    if not _splits(op):
        # the transverse term t = 1j p I, -t in rows 2, 3 and t in rows 0, 1
        t = np.full(abs2.shape, 1j * p)
        blocks[0, 0] = (False, np.zeros(abs2.shape), -t, -t)
        blocks[1, 1] = (False, np.zeros(abs2.shape), t, t)
    return blocks


def _complex_blocks(op: StabilityOperator, derivative: bool,
                    diagonal, upper, lower) -> tuple:
    """(re, im) of one component block of the complex B, then of C.

    With A_ab, a, b in {0, 1}, the four blocks of A that meet in it (see
    _component_blocks), B = (same + cross) / 2 and C = (same - cross) / 2.
    same is A_00 minus A_11 with its rows and columns reversed, and cross
    is A_10 with its rows reversed minus A_01 with its columns reversed.
    A_00 and A_11 are -1j and 1j times the diagonal model blocks, so same
    holds the derivative terms in its real part and the diagonals in its
    imaginary part; cross lies on the antidiagonal.
    """
    d = op.grid.d_scaled
    m = d.shape[0]
    nodes = np.arange(m)
    anti = (nodes, nodes[::-1])
    same_re = d[::-1, ::-1] - d if derivative else np.zeros((m, m))
    same_im = np.zeros((m, m))
    same_im[nodes, nodes] = -(diagonal + diagonal[::-1])
    cross_re = -(lower.imag[::-1] + upper.imag)
    cross_im = lower.real[::-1] + upper.real
    parts = []
    for sign in (1.0, -1.0):
        # (same +- cross) / 2, with cross zero off the antidiagonal
        re, im = 0.5 * same_re, 0.5 * same_im
        re[anti] = 0.5 * (same_re[anti] + sign * cross_re)
        im[anti] = 0.5 * (same_im[anti] + sign * cross_im)
        parts.append((re, im))
    return tuple(parts)


def parity_blocks(op: StabilityOperator) -> list:
    """Real parity blocks of op's stability matrix A, a list of (B, C)
    pairs, written without A.

    B and C are W^-1 B W and W^-1 C W for the off-diagonal blocks of A
    in the eigenbasis of S: the basis vectors are (e_k +- e_sk) / sqrt(2),
    with k running over the rows of components 0 and 2 and sk over their
    mirrors (components 1 and 3 at grid index n - j).  B maps the -1
    eigenspace of S into the +1 eigenspace and C the +1 into the -1;
    their first N+1 rows and columns, parity component 0, hold k in
    component 0, the rest k in component 2.
    W = blockdiag(W_J, 1j W_J) with W_J the mirror basis of one component
    (see _real_block).  W is unitary, and T conj(B) T = B,
    T = kron(diag(1, -1), J), pairs every entry with the conjugate of its
    mirror, so B and C become real bit for bit.  The eigenvalues of A are
    +-sqrt(mu) for the eigenvalues mu of the real products B @ C, over
    all pairs.

    Each (N+1)-square component block is written in real arithmetic from
    the model's blocks, every entry with the operations, in the order,
    of the complex chain from A, so the blocks are equal to that chain's.
    Where B C is block diagonal in the two parity components (mtm at
    every p, gn at p = 0), there is one (N+1)-square pair per component:
    pair k has the B that maps parity component 1 - k of the -1
    eigenspace into component k of the +1 eigenspace, and the C that maps
    it back.  Otherwise there is one 2(N+1)-square pair.
    """
    m = op.grid.n + 1
    # (B or C, row component, column component) -> its block of the output
    if _splits(op):
        pairs = np.empty((2, 2, m, m))
        slots = {(0, 0, 1): pairs[0, 0], (1, 1, 0): pairs[0, 1],
                 (0, 1, 0): pairs[1, 0], (1, 0, 1): pairs[1, 1]}
        result = [tuple(pair) for pair in pairs]
    else:
        full = np.empty((2, 2, m, 2, m))
        slots = {(k, r, j): full[k, r, :, j]
                 for k in (0, 1) for r in (0, 1) for j in (0, 1)}
        result = [tuple(full.reshape(2, 2 * m, 2 * m))]
    for (r, j), blocks in _component_blocks(op).items():
        for k, parts in enumerate(_complex_blocks(op, *blocks)):
            _real_block(*parts, j - r, slots[k, r, j])
    return result


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

