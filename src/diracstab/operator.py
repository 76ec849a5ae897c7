"""Assembly of the dense transverse-stability matrices.

The linearized problem is a four-component first-order system.  For both
models an orthogonal change of variables turns it into a block form: two
2x2 Dirac-type operators coupled only through the transverse term.  The
block form, which has the same spectrum, is the one assembled on the
mapped Chebyshev grid.  It is reduced to a standard eigenvalue problem
for lambda by left-multiplying with -i times the constant involution
that carries the symplectic structure (a signed permutation whose square
is the identity).  The reduction is applied as each block is written, so
the stored matrix, whose eigenvalues are the stability eigenvalues, is
the only full-size array assembly makes.

The matrix anticommutes, at every p, with the parity involution
S = kron(P, J): P swaps components 0 <-> 1 and 2 <-> 3, and J reverses
the grid (x -> -x).  In the eigenbasis of S the matrix is [[0, B], [C, 0]],
so its eigenvalues are +-sqrt(eig(B C)).  B and C have a second, exact
antiunitary symmetry, T conj(B) T = B with T = kron(diag(1, -1), J), so
a unitary change of basis built from mirror pairs of grid nodes makes
them real; parity_blocks returns them so, split by component where B C
is block diagonal, and parity_vector carries a vector in those bases back
to the matrix's own.  All of it is index arithmetic on the stored matrix.

Component layout: all grid samples of component 0 first, then component 1,
etc., so each differentiation block is contiguous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cheb import ChebGrid
from .soliton import ModelKind, SolitonProfile, eval_profile

# Involution used to reduce i*lambda*(structure)*V = H V to a standard
# eigenproblem; squares to the identity exactly.
REDUCTION_BLOCK = np.array([
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, -1.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, -1.0, 0.0, 0.0],
])

_SQRT_HALF = np.sqrt(0.5)

# the factors w of the two parity components in W = blockdiag(W_J, 1j W_J)
_COMPONENT_PHASES = np.array([1.0, 1j])


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
    """Assembled dense stability matrix and the parameters that built it.

    matrix_a is 4(N+1) x 4(N+1).  Each block of the operator was written
    into it already multiplied by -i and moved and signed by the reduction
    involution, so its eigenvalues are the stability eigenvalues directly.
    """

    model: ModelKind
    omega: float
    p: float
    grid: ChebGrid
    matrix_a: np.ndarray
    potential_zeroed: bool = False

    @property
    def dim(self) -> int:
        return self.matrix_a.shape[0]


def _potential_terms(model: ModelKind, omega: float, grid: ChebGrid,
                     zero_potential: bool):
    """|u|^2, u^2 and conj(u)^2 at the grid nodes, as vectors."""
    if zero_potential:
        u = np.zeros(grid.n + 1, dtype=complex)
    else:
        profile = SolitonProfile.create(model, omega)
        u = eval_profile(profile, grid.nodes_x)
    return np.abs(u) ** 2, u ** 2, np.conj(u) ** 2


def _reduced(front: np.ndarray, m: int, *parts) -> np.ndarray:
    """-1j * kron(front, I) @ (sum of parts), written one block at a time.

    front is a 4x4 signed permutation matrix and each part a 4x4 nested
    list of m x m blocks, None for a zero block.  The parts of a block are
    summed in the order given, and the sum is written, signed and scaled,
    straight into the block row that front moves it to; the output is
    the only 4m x 4m array made.
    """
    out = np.zeros((4 * m, 4 * m), dtype=complex)
    for row, col in enumerate(np.abs(front).argmax(axis=1)):
        factor = -1j * front[row, col]
        for j in range(4):
            blocks = [part[col][j] for part in parts
                      if part[col][j] is not None]
            if blocks:
                out[row * m:(row + 1) * m, j * m:(j + 1) * m] = \
                    factor * sum(blocks[1:], blocks[0])
    return out


def _on_diagonal(block) -> list:
    return [[block if i == j else None for j in range(4)] for i in range(4)]


def _plus_diagonal(block: np.ndarray, diagonal) -> np.ndarray:
    """block with diagonal added onto its main diagonal, in place."""
    block[np.diag_indices_from(block)] += diagonal
    return block


def _assemble_block(model: ModelKind, omega: float, p: float, grid: ChebGrid,
                    zero_potential: bool) -> np.ndarray:
    m = grid.n + 1
    eye = np.eye(m, dtype=complex)
    deriv = -1j * grid.d_scaled.astype(complex)
    abs2, sq, csq = _potential_terms(model, omega, grid, zero_potential)
    # omega on the diagonal of +-deriv, then the potential on top of that
    minus = _plus_diagonal(-deriv, omega)
    plus = _plus_diagonal(deriv, omega)
    h00 = _plus_diagonal(plus.copy(), 2.0 * abs2)
    h11 = _plus_diagonal(minus.copy(), 2.0 * abs2)
    if model is ModelKind.MASSIVE_THIRRING:
        h = [
            [h00, np.diag(-1.0 + sq), None, None],
            [np.diag(-1.0 + csq), h11, None, None],
            [None, None, plus, np.diag(1.0 - sq)],
            [None, None, np.diag(1.0 - csq), minus],
        ]
        e_term = _on_diagonal((p ** 2) * eye)
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
    return _reduced(REDUCTION_BLOCK, m, h, e_term)


def assemble(model, omega: float, p: float, grid: ChebGrid,
             zero_potential: bool = False) -> StabilityOperator:
    """Build the dense stability matrix at transverse wavenumber p.

    zero_potential is a test hook that drops the soliton terms, leaving
    the constant-coefficient operator whose spectrum is purely the
    continuous bands.
    """
    model = ModelKind(model)
    if not isinstance(grid, ChebGrid):
        raise ValueError("grid must be a ChebGrid instance")
    # omega admissibility is enforced by profile construction; the zero
    # potential hook still validates it for consistent error behavior
    SolitonProfile.create(model, omega)
    p = float(p)
    a = _assemble_block(model, omega, p, grid, zero_potential)
    a.setflags(write=False)
    return StabilityOperator(model=model, omega=float(omega), p=p, grid=grid,
                             matrix_a=a, potential_zeroed=bool(zero_potential))


def _splits(op: StabilityOperator) -> bool:
    """True when B C is block diagonal in the two parity components.

    Without the transverse term, and for mtm with it (its p**2 sits on the
    diagonal), the reduction pairs components {0, 1} only with {2, 3}, so
    B and C have zero diagonal component blocks.
    """
    return op.model is ModelKind.MASSIVE_THIRRING or op.p == 0.0


def _mirror_blocks(op: StabilityOperator) -> tuple:
    """Off-diagonal blocks (B, C) of op.matrix_a in the eigenbasis of S.

    The basis vectors are (e_k +- e_sk) / sqrt(2), with k running over the
    rows of components 0 and 2 and sk over their mirrors (components 1
    and 3 at grid index n - j); B maps the -1 eigenspace of S into the +1
    eigenspace and C the +1 into the -1.  The diagonal blocks, which
    vanish up to the roundoff of the derivative's centro-antisymmetry,
    are not formed.  Both blocks are complex and 2(N+1) x 2(N+1).  Their
    first N+1 rows and columns, parity component 0, hold k in component
    0; the rest, parity component 1, hold k in component 2.
    """
    m = op.grid.n + 1
    a = op.matrix_a.reshape(4, m, 4, m)
    # rows of components (0, 2) and the mirrored rows of components (1, 3)
    rows, mirrored = a[0::2], a[1::2, ::-1]
    # B = (e_k + e_sk)^T A (e_k - e_sk) / 2,
    # C = (e_k - e_sk)^T A (e_k + e_sk) / 2
    same = rows[:, :, 0::2] - mirrored[:, :, 1::2, ::-1]
    cross = mirrored[:, :, 0::2] - rows[:, :, 1::2, ::-1]
    b = 0.5 * (same + cross)
    c = 0.5 * (same - cross)
    return b.reshape(2 * m, 2 * m), c.reshape(2 * m, 2 * m)


def _times_mirror_basis(x: np.ndarray, odd: complex) -> np.ndarray:
    """x times W_J along its last axis, odd the factor of the odd columns.

    The columns of W_J are the even combinations (e_k + e_(n-k)) / sqrt(2)
    for k < n / 2, then e_(n/2) when the grid has a middle node, then the
    odd combinations odd * (e_k - e_(n-k)) / sqrt(2).
    """
    m = x.shape[-1]
    h = m // 2
    mirrored = x[..., ::-1]
    # the middle node pairs with itself: (x + x) / 2 = x
    scale = np.full(m - h, _SQRT_HALF)
    scale[h:] = 0.5
    even = (x[..., :m - h] + mirrored[..., :m - h]) * scale
    return np.concatenate(
        [even, (odd * _SQRT_HALF) * (x[..., :h] - mirrored[..., :h])], axis=-1)


def _from_mirror_basis(u: np.ndarray) -> np.ndarray:
    """W_J u for coordinates u on the last axis, W_J with odd factor 1j:
    from the mirror basis back to the grid nodes."""
    m = u.shape[-1]
    h = m // 2
    even = u[..., :m - h] * _SQRT_HALF
    odd = (1j * _SQRT_HALF) * u[..., m - h:]
    out = np.empty(u.shape, dtype=complex)
    out[..., :h] = even[..., :h] + odd
    out[..., ::-1][..., :h] = even[..., :h] - odd
    out[..., h:m - h] = u[..., h:m - h]
    return out


def _real_form(blocks: np.ndarray, phase) -> np.ndarray:
    """phase * W_J^H X W_J for each m x m block X on the last two axes.

    W_J has odd factor 1j.  With W = blockdiag(W_J, 1j W_J), the blocks of
    W^-1 B W are these with phase conj(w_row) * w_col, which is 1, 1j or
    -1j.  T conj(B) T = B, T = kron(diag(1, -1), J), pairs every entry
    with the conjugate of its mirror, so the imaginary parts cancel
    exactly and the real part is the whole block.
    """
    cols = _times_mirror_basis(blocks, 1j)
    both = _times_mirror_basis(np.swapaxes(cols, -1, -2), -1j)
    return (phase * np.swapaxes(both, -1, -2)).real


def parity_blocks(op: StabilityOperator) -> list:
    """Real parity blocks of op.matrix_a: a list of (B, C) pairs.

    B and C are W^-1 B W and W^-1 C W for the complex blocks of the
    parity eigenbasis (see _mirror_blocks), W = blockdiag(W_J, 1j W_J)
    with W_J the mirror basis of one component (see _times_mirror_basis).
    W is unitary and carries B and C to real matrices, so the eigenvalues
    of op.matrix_a are +-sqrt(mu) for the eigenvalues mu of the real
    products B @ C, over all pairs.

    Where B C is block diagonal in the two parity components (mtm at
    every p, gn at p = 0), there is one (N+1)-square pair per component:
    pair k has the B that maps parity component 1 - k of the -1
    eigenspace into component k of the +1 eigenspace, and the C that maps
    it back.  Otherwise there is one 2(N+1)-square pair.
    """
    m = op.grid.n + 1
    b, c = (x.reshape(2, m, 2, m).swapaxes(1, 2) for x in _mirror_blocks(op))
    if _splits(op):
        return [(_real_form(b[0, 1], 1j), _real_form(c[1, 0], -1j)),
                (_real_form(b[1, 0], -1j), _real_form(c[0, 1], 1j))]
    w = _COMPONENT_PHASES
    phases = (np.conj(w)[:, None] * w)[:, :, None, None]
    return [tuple(_real_form(x, phases).swapaxes(1, 2).reshape(2 * m, 2 * m)
                  for x in (b, c))]


def parity_vector(op: StabilityOperator, pair: int, y, z) -> np.ndarray:
    """The vector of op.matrix_a's space with parity-basis parts y and z.

    y and z are coordinates in the real bases of parity_blocks(op)[pair]:
    y on the rows of its B, z on the rows of its C.  An eigenvector x of
    B @ C for mu = lam**2 gives the eigenvector of op.matrix_a for lam as
    y = x, z = C @ x / lam.  The result has the norm of [y; z].
    """
    m = op.grid.n + 1
    # (+1 eigenspace, -1 eigenspace) x parity component x node
    halves = np.zeros((2, 2, m), dtype=complex)
    if _splits(op):
        halves[0, pair], halves[1, 1 - pair] = y, z
    else:
        halves[0], halves[1] = np.reshape(y, (2, m)), np.reshape(z, (2, m))
    plus, minus = _COMPONENT_PHASES[:, None] * _from_mirror_basis(halves)
    v = np.empty((4, m), dtype=complex)
    v[0::2] = _SQRT_HALF * (plus + minus)
    v[1::2, ::-1] = _SQRT_HALF * (plus - minus)
    return v.ravel()


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


def hermiticity_defect(op: StabilityOperator) -> float:
    """Deviation of the recovered operator from its predicted Hermitian defect.

    Undoing the reduction factor recovers the underlying operator; its
    anti-Hermitian part is exactly the derivative-block contribution
    (the scaled differentiation matrix is not antisymmetric).  Returns the
    largest interior-entry deviation from that prediction; boundary rows
    and columns are excluded per the assembly convention.
    """
    m = op.grid.n + 1
    h_total = 1j * np.tensordot(
        REDUCTION_BLOCK, op.matrix_a.reshape(4, m, 4 * m), axes=1).reshape(4 * m, 4 * m)
    delta = h_total - h_total.conj().T
    dt = op.grid.d_scaled
    sym = dt + dt.T
    predicted = np.zeros_like(delta)
    for c, f in enumerate((-1j, 1j, -1j, 1j)):
        predicted[c * m:(c + 1) * m, c * m:(c + 1) * m] = f * sym
    resid = np.abs(delta - predicted)
    boundary = [c * m for c in range(4)] + [c * m + op.grid.n for c in range(4)]
    resid[boundary, :] = 0.0
    resid[:, boundary] = 0.0
    return float(resid.max())
