"""Assembly of the dense transverse-stability matrices.

Two equivalent forms of the linearized problem are built on the mapped
Chebyshev grid: the original four-component first-order system, and the
block form that decouples into two 2x2 Dirac-type operators coupled only
through the transverse term.  Both are reduced to a standard eigenvalue
problem for lambda by left-multiplying with -i times the constant
involution that carries the symplectic structure (a signed permutation
whose square is the identity).  The reduction is applied as each block is
written, so the stored matrix, whose eigenvalues are the stability
eigenvalues, is the only full-size array assembly makes.

Both forms anticommute, at every p, with the parity involution
S = kron(P, J): P swaps components 0 <-> 1 and 2 <-> 3, and J reverses
the grid (x -> -x).  In the eigenbasis of S the matrix is [[0, B], [C, 0]],
so its eigenvalues are +-sqrt(eig(B C)); parity_blocks returns B and C.

Component layout: all grid samples of component 0 first, then component 1,
etc., so each differentiation block is contiguous.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .cheb import ChebGrid
from .soliton import ModelKind, SolitonProfile, eval_profile

# Pauli matrices entering the algebraic symmetry identities.
PAULI_SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]])

# Involution used to reduce i*lambda*(structure)*V = H V to a standard
# eigenproblem; squares to the identity exactly.
REDUCTION_BLOCK = np.array([
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, -1.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, -1.0, 0.0, 0.0],
])

# Structure matrix of the four-component form (diagonal signature).
SIGMA_DIAG = np.diag([1.0, -1.0, 1.0, -1.0])

# Orthogonal change of variables relating the two forms, stored
# unnormalized with integer entries: S = BLOCK_MIXING / sqrt(2) satisfies
# S S^t = I, and S (full form) S^t = (block form).  Keeping the integer
# matrix lets tests verify M M^t = 2 I exactly.
BLOCK_MIXING = np.array([
    [1.0, 0.0, 0.0, 1.0],
    [0.0, 1.0, 1.0, 0.0],
    [1.0, 0.0, 0.0, -1.0],
    [0.0, 1.0, -1.0, 0.0],
])


class OperatorForm(enum.Enum):
    """Which algebraic form of the linearization is assembled."""

    FULL_SYSTEM = "full"
    BLOCK_DIAGONALIZED = "block"


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
    form: OperatorForm
    potential_zeroed: bool = False

    @property
    def dim(self) -> int:
        return self.matrix_a.shape[0]


def _potential_diagonals(model: ModelKind, omega: float, grid: ChebGrid,
                         zero_potential: bool):
    if zero_potential:
        u = np.zeros(grid.n + 1, dtype=complex)
    else:
        profile = SolitonProfile.create(model, omega)
        u = eval_profile(profile, grid.nodes_x)
    d_abs2 = np.diag(np.abs(u) ** 2).astype(complex)
    d_sq = np.diag(u ** 2)
    d_csq = np.diag(np.conj(u) ** 2)
    return d_abs2, d_sq, d_csq


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


def _assemble_block(model: ModelKind, omega: float, p: float, grid: ChebGrid,
                    zero_potential: bool) -> np.ndarray:
    m = grid.n + 1
    eye = np.eye(m, dtype=complex)
    deriv = -1j * grid.d_scaled.astype(complex)
    d_abs2, d_sq, d_csq = _potential_diagonals(model, omega, grid, zero_potential)
    diag_omega = omega * eye
    if model is ModelKind.MASSIVE_THIRRING:
        h = [
            [diag_omega + deriv + 2.0 * d_abs2, -eye + d_sq, None, None],
            [-eye + d_csq, diag_omega - deriv + 2.0 * d_abs2, None, None],
            [None, None, diag_omega + deriv, eye - d_sq],
            [None, None, eye - d_csq, diag_omega - deriv],
        ]
        e_term = _on_diagonal((p ** 2) * eye)
    else:
        h = [
            [diag_omega + deriv + 2.0 * d_abs2, -eye + d_sq + 3.0 * d_csq, None, None],
            [-eye + d_csq + 3.0 * d_sq, diag_omega - deriv + 2.0 * d_abs2, None, None],
            [None, None, diag_omega + deriv, eye - d_sq - d_csq],
            [None, None, eye - d_sq - d_csq, diag_omega - deriv],
        ]
        t = 1j * p * eye
        e_term = [
            [None, None, None, t],
            [None, None, t, None],
            [None, -t, None, None],
            [-t, None, None, None],
        ]
    return _reduced(REDUCTION_BLOCK, m, h, e_term)


def _assemble_full(model: ModelKind, omega: float, p: float, grid: ChebGrid,
                   zero_potential: bool) -> np.ndarray:
    m = grid.n + 1
    eye = np.eye(m, dtype=complex)
    deriv = -1j * grid.d_scaled.astype(complex)
    d_abs2, d_sq, d_csq = _potential_diagonals(model, omega, grid, zero_potential)
    diag_omega = omega * eye
    d_part = [
        [deriv + diag_omega, None, -eye, None],
        [None, -deriv + diag_omega, None, -eye],
        [-eye, None, -deriv + diag_omega, None],
        [None, -eye, None, deriv + diag_omega],
    ]
    if model is ModelKind.MASSIVE_THIRRING:
        e_term = _on_diagonal((p ** 2) * eye)
        w_part = [
            [d_abs2, None, d_sq, d_abs2],
            [None, d_abs2, d_abs2, d_csq],
            [d_csq, d_abs2, d_abs2, None],
            [d_abs2, d_sq, None, d_abs2],
        ]
    else:
        t = -1j * p * eye
        e_term = [
            [None, None, t, None],
            [None, None, None, t],
            [-t, None, None, None],
            [None, -t, None, None],
        ]
        w_part = [
            [d_abs2, d_csq, d_sq + 2.0 * d_csq, d_abs2],
            [d_sq, d_abs2, d_abs2, 2.0 * d_sq + d_csq],
            [2.0 * d_sq + d_csq, d_abs2, d_abs2, d_sq],
            [d_abs2, d_sq + 2.0 * d_csq, d_csq, d_abs2],
        ]
    return _reduced(SIGMA_DIAG, m, d_part, e_term, w_part)


def assemble(model, omega: float, p: float, grid: ChebGrid,
             form: OperatorForm = OperatorForm.BLOCK_DIAGONALIZED,
             zero_potential: bool = False) -> StabilityOperator:
    """Build the dense stability matrix at transverse wavenumber p.

    zero_potential is a test hook that drops the soliton terms, leaving
    the constant-coefficient operator whose spectrum is purely the
    continuous bands.
    """
    model = ModelKind(model)
    if not isinstance(grid, ChebGrid):
        raise ValueError("grid must be a ChebGrid instance")
    form = OperatorForm(form)
    # omega admissibility is enforced by profile construction; the zero
    # potential hook still validates it for consistent error behavior
    SolitonProfile.create(model, omega)
    p = float(p)
    if form is OperatorForm.BLOCK_DIAGONALIZED:
        a = _assemble_block(model, omega, p, grid, zero_potential)
    else:
        a = _assemble_full(model, omega, p, grid, zero_potential)
    a.setflags(write=False)
    return StabilityOperator(model=model, omega=float(omega), p=p, grid=grid,
                             matrix_a=a, form=form,
                             potential_zeroed=bool(zero_potential))


def parity_blocks(op: StabilityOperator) -> tuple:
    """Off-diagonal blocks (B, C) of op.matrix_a in the eigenbasis of S.

    The basis vectors are (e_k +- e_sk) / sqrt(2), with k running over the
    rows of components 0 and 2 and sk over their mirrors (components 1
    and 3 at grid index n - j); B maps the -1 eigenspace of S into the +1
    eigenspace and C the +1 into the -1.  The diagonal blocks, which
    vanish up to the roundoff of the derivative's centro-antisymmetry,
    are not formed.  Both blocks are 2(N+1) x 2(N+1), and the eigenvalues
    of op.matrix_a are +-sqrt(eig(B @ C)).
    """
    m = op.grid.n + 1
    a = op.matrix_a.reshape(4, m, 4, m)
    # rows of components (0, 2) and the mirrored rows of components (1, 3)
    rows, mirrored = a[0::2], a[1::2, ::-1]
    plus, minus = rows + mirrored, rows - mirrored
    b = 0.5 * (plus[:, :, 0::2] - plus[:, :, 1::2, ::-1])
    c = 0.5 * (minus[:, :, 0::2] + minus[:, :, 1::2, ::-1])
    return b.reshape(2 * m, 2 * m), c.reshape(2 * m, 2 * m)


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
    if op.form is OperatorForm.BLOCK_DIAGONALIZED:
        front = REDUCTION_BLOCK
        factors = (-1j, 1j, -1j, 1j)
    else:
        front = SIGMA_DIAG
        factors = (-1j, 1j, 1j, -1j)
    h_total = 1j * np.tensordot(
        front, op.matrix_a.reshape(4, m, 4 * m), axes=1).reshape(4 * m, 4 * m)
    delta = h_total - h_total.conj().T
    dt = op.grid.d_scaled
    sym = dt + dt.T
    predicted = np.zeros_like(delta)
    for c, f in enumerate(factors):
        predicted[c * m:(c + 1) * m, c * m:(c + 1) * m] = f * sym
    resid = np.abs(delta - predicted)
    boundary = [c * m for c in range(4)] + [c * m + op.grid.n for c in range(4)]
    resid[boundary, :] = 0.0
    resid[:, boundary] = 0.0
    return float(resid.max())
