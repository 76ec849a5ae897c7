"""Operator assembly: algebraic constants, form equivalence, bands, symmetry.

The library writes only the real parity blocks of the block form and no
matrix.  The dense stability matrix of the block form is written in the
tests, by conftest.stability_matrix, and the four-component system the
block form comes from is built here, by full_system.  They are the
oracles: both must have the same spectrum, and an explicit orthogonal
change of variables must carry one into the other.

The library writes its real p = 0 parity blocks in closed form from the
model's blocks, and parity_products adds p.  Written out, its blocks must
equal, to rounding, the blocks taken from the dense matrix through the
parity eigenbasis (mirror_blocks) and either the dense mirror basis
(conftest.real_basis) or the complex chain through the mirror basis
(times_mirror_basis, real_form), kept here as a second reference.
"""

import tracemalloc

import numpy as np
import pytest

import diracstab.operator as operator_module
import diracstab.spectrum as spectrum
from conftest import (REDUCTION_BLOCK, dense_reduced, lifted_residuals,
                      parity_basis, real_basis, stability_matrix,
                      symmetry_residual)
from diracstab.eigen import eigvals, inverse_vectors
from diracstab.operator import (
    StabilityOperator,
    _mirror_basis,
    assemble,
    continuous_bands,
    parity_base,
    parity_blocks,
    parity_products,
    parity_transfer,
)
from diracstab.soliton import DomainError, ModelKind

PAULI_SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]])

# Structure matrix of the four-component form (diagonal signature).
SIGMA_DIAG = np.diag([1.0, -1.0, 1.0, -1.0])

# Orthogonal change of variables relating the two forms, stored
# unnormalized with integer entries: S = BLOCK_MIXING / sqrt(2) satisfies
# S S^t = I, and S (full form) S^t = (block form).  Keeping the integer
# matrix lets the tests verify M M^t = 2 I exactly.
BLOCK_MIXING = np.array([
    [1.0, 0.0, 0.0, 1.0],
    [0.0, 1.0, 1.0, 0.0],
    [1.0, 0.0, 0.0, -1.0],
    [0.0, 1.0, -1.0, 0.0],
])


def matching_distance(a, b):
    a = np.asarray(a).reshape(-1, 1)
    b = np.asarray(b).reshape(1, -1)
    d = np.abs(a - b)
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def full_system(model, omega, p, grid, zero_potential=False):
    """The reduced matrix of the four-component system: derivative and
    frequency part d, transverse term e and soliton potential w, reduced
    by SIGMA_DIAG."""
    model = ModelKind(model)
    m = grid.n + 1
    eye = np.eye(m, dtype=complex)
    deriv = -1j * grid.d_scaled.astype(complex)
    abs2, sq, csq = operator_module._potential_terms(model, omega, grid,
                                                     zero_potential)
    d_abs2, d_sq, d_csq = np.diag(abs2).astype(complex), np.diag(sq), np.diag(csq)
    diag_omega = omega * eye
    d_part = [
        [deriv + diag_omega, None, -eye, None],
        [None, -deriv + diag_omega, None, -eye],
        [-eye, None, -deriv + diag_omega, None],
        [None, -eye, None, deriv + diag_omega],
    ]
    if model is ModelKind.MASSIVE_THIRRING:
        e2 = (p ** 2) * eye
        e_term = [[e2 if i == j else None for j in range(4)] for i in range(4)]
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
    return dense_reduced(SIGMA_DIAG, m, d_part, e_term, w_part)


def form_matrix(form, model, omega, p, grid):
    """The block-form matrix of the library's operator, or the
    full-system oracle."""
    if form == "full":
        return full_system(model, omega, p, grid)
    return stability_matrix(assemble(model, omega, p, grid))


class TestAlgebraicConstants:
    def test_reduction_block_is_involution(self):
        assert np.array_equal(REDUCTION_BLOCK @ REDUCTION_BLOCK, np.eye(4))

    def test_pauli_anticommutator(self):
        anti = PAULI_SIGMA1 @ PAULI_SIGMA3 + PAULI_SIGMA3 @ PAULI_SIGMA1
        assert np.array_equal(anti, np.zeros((2, 2)))

    def test_signature_matrix(self):
        assert np.array_equal(SIGMA_DIAG, np.kron(np.eye(2), PAULI_SIGMA3))

    def test_mixing_matrix_orthogonality(self):
        assert np.array_equal(BLOCK_MIXING @ BLOCK_MIXING.T, 2.0 * np.eye(4))
        s = BLOCK_MIXING / np.sqrt(2.0)
        np.testing.assert_allclose(s @ s.T, np.eye(4), atol=1e-15)


class TestFormEquivalence:
    @pytest.mark.parametrize("model,omega,p", [
        ("mtm", 0.5, 0.3),
        ("gn", 2.0 / 3.0, 0.2),
    ])
    def test_same_spectrum(self, grid_cache, model, omega, p):
        grid = grid_cache(16, 10.0)
        ev_full = eigvals(full_system(model, omega, p, grid)).values
        block = stability_matrix(assemble(model, omega, p, grid))
        ev_block = eigvals(block).values
        assert matching_distance(ev_full, ev_block) <= 1e-8

    @pytest.mark.parametrize("model,omega,p", [
        ("mtm", 0.3, 0.4),
        ("gn", 0.5, 0.25),
    ])
    def test_explicit_change_of_variables(self, grid_cache, model, omega, p):
        grid = grid_cache(12, 10.0)
        full = full_system(model, omega, p, grid)
        block = stability_matrix(assemble(model, omega, p, grid))
        s_big = np.kron(BLOCK_MIXING / np.sqrt(2.0), np.eye(grid.n + 1))
        np.testing.assert_allclose(s_big @ full @ s_big.T, block, atol=1e-12)

    def test_mtm_transverse_term_is_quadratic(self, grid_cache):
        grid = grid_cache(10, 10.0)
        m = grid.n + 1

        def a(p):
            return stability_matrix(assemble("mtm", 0.2, p, grid))

        base = a(0.0)
        expected = -1j * 0.5**2 * np.kron(REDUCTION_BLOCK, np.eye(m))
        np.testing.assert_allclose(a(0.5) - base, expected, atol=1e-12)

    def test_gn_transverse_term_is_linear(self, grid_cache):
        grid = grid_cache(10, 10.0)

        def a(p):
            return stability_matrix(assemble("gn", 0.5, p, grid))

        base = a(0.0)
        np.testing.assert_allclose(a(0.7) - base, 0.7 * (a(1.0) - base),
                                   atol=1e-12)


class TestAssembly:
    def test_metadata_and_readonly(self, grid_cache):
        grid = grid_cache(16, 10.0)
        op = assemble("mtm", 0.5, 0.3, grid)
        assert isinstance(op, StabilityOperator)
        assert op.dim == 4 * (grid.n + 1)
        assert not op.potential_zeroed
        for term in op.potential:
            assert term.shape == (grid.n + 1,)
            with pytest.raises(ValueError):
                term[0] = 1.0

    @pytest.mark.parametrize("model", ["mtm", "gn"])
    def test_dim_does_not_write_the_matrix(self, grid_cache, model):
        grid = grid_cache(100, 10.0)
        tracemalloc.start()
        try:
            op = assemble(model, 0.5, 0.3, grid)
            assert op.dim == 4 * 101
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the potential vectors and the profile samples, far below one
        # (N+1)-square real block, let alone the complex 4(N+1)-square A
        assert peak < 8 * (grid.n + 1) ** 2

    def test_rejects_bad_inputs(self, grid_cache):
        grid = grid_cache(8, 10.0)
        with pytest.raises(DomainError):
            assemble("gn", -0.5, 0.1, grid)
        with pytest.raises(ValueError):
            assemble("mtm", 0.5, 0.1, np.eye(4))
        for p in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="must be finite"):
                assemble("gn", 0.5, p, grid)

    # form is "block" alone, the form the library's operator takes; the
    # ids name it as TestParity's do
    @pytest.mark.parametrize("model", ["mtm", "gn"])
    @pytest.mark.parametrize("form", ["block"])
    def test_hermiticity_defect_vanishes(self, grid_cache, model, form):
        omega = 0.5 if model == "mtm" else 2.0 / 3.0
        op = assemble(model, omega, 0.3, grid_cache(20, 10.0))
        assert hermiticity_defect(op) <= 1e-12


def hermiticity_defect(op):
    """Deviation of the recovered operator from its predicted Hermitian
    defect.

    Undoing the reduction factor of the dense oracle recovers the
    underlying operator; its anti-Hermitian part is exactly the
    derivative-block contribution (the scaled differentiation matrix is
    not antisymmetric).  Returns the largest interior-entry deviation from
    that prediction; boundary rows and columns are excluded.
    """
    m = op.grid.n + 1
    a = stability_matrix(op)
    h_total = 1j * (np.kron(REDUCTION_BLOCK, np.eye(m)) @ a)
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


SQRT_HALF = np.sqrt(0.5)


def mirror_blocks(a):
    """Off-diagonal blocks (B, C) of the 4m-square matrix a in the
    eigenbasis of S, complex and 2m-square.

    The basis vectors are (e_k +- e_sk) / sqrt(2), with k running over the
    rows of components 0 and 2 and sk over their mirrors (components 1
    and 3 at grid index n - j); B maps the -1 eigenspace of S into the +1
    eigenspace and C the +1 into the -1.
    """
    m = a.shape[0] // 4
    a = a.reshape(4, m, 4, m)
    # rows of components (0, 2) and the mirrored rows of components (1, 3)
    rows, mirrored = a[0::2], a[1::2, ::-1]
    # B = (e_k + e_sk)^T A (e_k - e_sk) / 2,
    # C = (e_k - e_sk)^T A (e_k + e_sk) / 2
    same = rows[:, :, 0::2] - mirrored[:, :, 1::2, ::-1]
    cross = mirrored[:, :, 0::2] - rows[:, :, 1::2, ::-1]
    b = 0.5 * (same + cross)
    c = 0.5 * (same - cross)
    return b.reshape(2 * m, 2 * m), c.reshape(2 * m, 2 * m)


def times_mirror_basis(x, odd):
    """x times W_J along its last axis, odd the factor of the odd columns.

    The columns of W_J are the even combinations (e_k + e_(n-k)) / sqrt(2)
    for k < n / 2, then e_(n/2) when the grid has a middle node, then the
    odd combinations odd * (e_k - e_(n-k)) / sqrt(2).
    """
    m = x.shape[-1]
    h = m // 2
    mirrored = x[..., ::-1]
    scale = np.full(m - h, SQRT_HALF)
    scale[h:] = 0.5
    even = (x[..., :m - h] + mirrored[..., :m - h]) * scale
    return np.concatenate(
        [even, (odd * SQRT_HALF) * (x[..., :h] - mirrored[..., :h])], axis=-1)


def real_form(blocks, phase):
    """(phase * W_J^H X W_J).real for each m x m block X on the last two
    axes, W_J with odd factor 1j."""
    cols = times_mirror_basis(blocks, 1j)
    both = times_mirror_basis(np.swapaxes(cols, -1, -2), -1j)
    return (phase * np.swapaxes(both, -1, -2)).real


def written_out_blocks(op):
    """The (B, C) pairs of parity_products(op), written out."""
    return [(np.asarray(b), np.asarray(c)) for b, c, _ in parity_products(op)]


def reference_parity_blocks(op):
    """The blocks of parity_products(op) at op.p, written out, by the
    complex chain from the dense oracle: two (N+1)-square pairs where B C
    is block diagonal, one 2(N+1)-square pair for gn at p > 0."""
    m = op.grid.n + 1
    b, c = (x.reshape(2, m, 2, m).swapaxes(1, 2)
            for x in mirror_blocks(stability_matrix(op)))
    if op.model is ModelKind.MASSIVE_THIRRING or op.p == 0.0:
        return [(real_form(b[0, 1], 1j), real_form(c[1, 0], -1j)),
                (real_form(b[1, 0], -1j), real_form(c[0, 1], 1j))]
    w = np.array([1.0, 1j])
    phases = (np.conj(w)[:, None] * w)[:, :, None, None]
    return [tuple(real_form(x, phases).swapaxes(1, 2).reshape(2 * m, 2 * m)
                  for x in (b, c))]


def parity_involution(n):
    """The reference S = kron(P, J) as a dense matrix: P swaps components
    0 <-> 1 and 2 <-> 3, J reverses the n + 1 grid points."""
    swap = np.kron(np.eye(2), PAULI_SIGMA1)
    return np.kron(swap, np.eye(n + 1)[::-1])


def component_blocks(x, m):
    """x (2m x 2m) as its 2 x 2 component blocks, each m x m."""
    return x.reshape(2, m, 2, m).swapaxes(1, 2)


class TestParity:
    @pytest.mark.parametrize("model", ["mtm", "gn"])
    @pytest.mark.parametrize("form", ["full", "block"])
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.9])
    def test_involution_anticommutes(self, grid_cache, model, form, p):
        omega = 0.5 if model == "mtm" else 2.0 / 3.0
        grid = grid_cache(20, 10.0)
        a = form_matrix(form, model, omega, p, grid)
        s = parity_involution(grid.n)
        assert np.array_equal(s @ s, np.eye(s.shape[0]))
        assert np.max(np.abs(s @ a @ s + a)) <= 1e-14 * np.max(np.abs(a))

    @pytest.mark.parametrize("model", ["mtm", "gn"])
    @pytest.mark.parametrize("form", ["full", "block"])
    def test_blocks_of_the_eigenbasis(self, grid_cache, model, form):
        omega = 0.5 if model == "mtm" else 2.0 / 3.0
        grid = grid_cache(20, 10.0)
        a = form_matrix(form, model, omega, 0.3, grid)
        m = grid.n + 1
        q = parity_basis(m)
        signs = np.repeat([1.0, -1.0], 2 * m)
        np.testing.assert_allclose(parity_involution(grid.n) @ q, q * signs,
                                   atol=1e-15)
        rotated = q.T @ a @ q
        b, c = mirror_blocks(a)
        h = 2 * m
        scale = np.max(np.abs(a))
        assert np.max(np.abs(rotated[:h, :h])) <= 1e-14 * scale
        assert np.max(np.abs(rotated[h:, h:])) <= 1e-14 * scale
        np.testing.assert_allclose(b, rotated[:h, h:], rtol=0,
                                   atol=1e-14 * scale)
        np.testing.assert_allclose(c, rotated[h:, :h], rtol=0,
                                   atol=1e-14 * scale)


    @pytest.mark.parametrize("model", ["mtm", "gn"])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.1])
    @pytest.mark.parametrize("zero_potential", [False, True])
    @pytest.mark.parametrize("n", [20, 21])
    def test_antiunitary_symmetry(self, grid_cache, model, p, zero_potential,
                                  n):
        # T conj(X) T = X, T = kron(diag(1, -1), J), holds bit for bit
        omega = 0.5 if model == "mtm" else 2.0 / 3.0
        op = assemble(model, omega, p, grid_cache(n, 10.0),
                      zero_potential=zero_potential)
        t = np.kron(np.diag([1.0, -1.0]), np.eye(n + 1)[::-1])
        for x in mirror_blocks(stability_matrix(op)):
            assert np.array_equal(t @ x.conj() @ t, x)

    @pytest.mark.parametrize("model", ["mtm", "gn"])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.1])
    @pytest.mark.parametrize("zero_potential", [False, True])
    @pytest.mark.parametrize("n", [20, 21])
    def test_blocks_equal_the_complex_chain(self, grid_cache, model, p,
                                            zero_potential, n):
        # the closed form sums in another order than the chain, so the
        # two agree to rounding, not bit for bit
        omega = 0.5 if model == "mtm" else 2.0 / 3.0
        op = assemble(model, omega, p, grid_cache(n, 10.0),
                      zero_potential=zero_potential)
        pairs = written_out_blocks(op)
        reference = reference_parity_blocks(op)
        assert len(pairs) == len(reference)
        scale = max(np.max(np.abs(y)) for pair in reference for y in pair)
        for (b, c), (rb, rc) in zip(pairs, reference):
            for x, y in ((b, rb), (c, rc)):
                assert x.dtype == y.dtype == np.float64
                np.testing.assert_allclose(x, y, rtol=0, atol=1e-14 * scale)
                # row-major, as the chain's blocks are, so that B @ C
                # takes the same BLAS path
                assert x.flags.c_contiguous
            product = rb @ rc
            np.testing.assert_allclose(b @ c, product, rtol=0,
                                       atol=1e-14 * np.max(np.abs(product)))

    @pytest.mark.parametrize("model,p", [("mtm", 0.3), ("gn", 0.0),
                                         ("gn", 0.3)])
    def test_blocks_write_no_full_matrix(self, grid_cache, model, p):
        op = assemble(model, 0.5, p, grid_cache(100, 10.0))
        tracemalloc.start()
        try:
            written_out_blocks(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # less than the 4(N+1)-square complex matrix alone would take
        assert peak < 16 * op.dim ** 2

    @pytest.mark.parametrize("model", ["mtm", "gn"])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.1])
    @pytest.mark.parametrize("n", [20, 21])
    def test_real_blocks(self, grid_cache, model, p, n):
        # the oracle: W^-1 X W with a dense W, for the complex blocks X
        omega = 0.5 if model == "mtm" else 2.0 / 3.0
        op = assemble(model, omega, p, grid_cache(n, 10.0))
        m = n + 1
        w = real_basis(m)
        np.testing.assert_allclose(w.conj().T @ w, np.eye(2 * m), atol=1e-15)
        dense = [w.conj().T @ x @ w
                 for x in mirror_blocks(stability_matrix(op))]
        scale = max(np.max(np.abs(x)) for x in dense)
        assert max(np.max(np.abs(x.imag)) for x in dense) <= 1e-15 * scale
        pairs = written_out_blocks(op)
        if len(pairs) == 1:
            expected = [(dense[0].real, dense[1].real)]
        else:
            b, c = (component_blocks(x.real, m) for x in dense)
            expected = [(b[0, 1], c[1, 0]), (b[1, 0], c[0, 1])]
        for got, want in zip(pairs, expected):
            for x, y in zip(got, want):
                assert x.dtype == np.float64
                # row-major, so that B @ C takes one BLAS path
                assert x.flags.c_contiguous
                np.testing.assert_allclose(x, y, rtol=0, atol=1e-14 * scale)

    @pytest.mark.parametrize("model,p,splits", [
        ("mtm", 0.0, True), ("mtm", 0.3, True), ("mtm", 1.1, True),
        ("gn", 0.0, True), ("gn", 0.3, False), ("gn", 1.1, False),
    ])
    def test_split_where_block_diagonal(self, grid_cache, model, p, splits):
        omega = 0.5 if model == "mtm" else 2.0 / 3.0
        op = assemble(model, omega, p, grid_cache(20, 10.0))
        m = op.grid.n + 1
        b, c = mirror_blocks(stability_matrix(op))
        product = component_blocks(b @ c, m)
        off_diagonal = max(np.abs(product[0, 1]).max(),
                           np.abs(product[1, 0]).max())
        pairs = written_out_blocks(op)
        if splits:
            assert off_diagonal == 0.0
            assert [x.shape for pair in pairs for x in pair] == [(m, m)] * 4
        else:
            assert off_diagonal > 1e-3 * np.abs(product).max()
            assert [x.shape for pair in pairs for x in pair] == \
                [(2 * m, 2 * m)] * 2


    @pytest.mark.parametrize("model,p", [("mtm", 0.3), ("gn", 0.0),
                                         ("gn", 0.3)])
    @pytest.mark.parametrize("n", [20, 21])
    def test_parity_vector_against_dense_bases(self, grid_cache, model, p, n):
        # every eigenvector of the residual path, in the real parity
        # bases, carried by the dense bases into the oracle's space, has
        # there the residual taken in the parity bases
        omega = 0.5 if model == "mtm" else 2.0 / 3.0
        op = assemble(model, omega, p, grid_cache(n, 10.0))
        es, solves = spectrum._parity_solve(op)
        half = spectrum._isolated_residuals(solves, es.values)
        assert np.max(half) <= 1e-13
        np.testing.assert_allclose(lifted_residuals(op, solves, es.values),
                                   half, rtol=0, atol=1e-14)


class TestParityProducts:
    """parity_products writes the blocks and their products from the p = 0
    pairs and products, parity_base."""

    @pytest.mark.parametrize("model", ["mtm", "gn"])
    @pytest.mark.parametrize("p", [0.3, 1.1])
    @pytest.mark.parametrize("zero_potential", [False, True])
    @pytest.mark.parametrize("n", [20, 21, 160])
    def test_products_match_the_block_products(self, grid_cache, model, p,
                                               zero_potential, n):
        omega = 0.5 if model == "mtm" else 2.0 / 3.0
        op = assemble(model, omega, p, grid_cache(n, 10.0),
                      zero_potential=zero_potential)
        for got_b, got_c, bc in parity_products(op):
            b, c = np.asarray(got_b), np.asarray(got_c)
            scale = np.linalg.norm(b) * np.linalg.norm(c)
            np.testing.assert_allclose(bc, b @ c, rtol=0, atol=1e-14 * scale)

    @pytest.mark.parametrize("model", ["mtm", "gn"])
    def test_p0_products_are_the_block_products(self, grid_cache, model):
        omega = 0.5 if model == "mtm" else 2.0 / 3.0
        op = assemble(model, omega, 0.0, grid_cache(100, 10.0))
        base = parity_base(op)
        assert all(got[2] is bc for got, (_, _, bc)
                   in zip(parity_products(op, base), base))
        for (b, c), (got_b, got_c, bc) in zip(parity_blocks(op),
                                               parity_products(op)):
            assert np.array_equal(got_b, b) and np.array_equal(got_c, c)
            assert np.array_equal(bc, b @ c)

    @pytest.mark.parametrize("model", ["mtm", "gn"])
    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_blocks_act_as_written_out(self, grid_cache, model, p):
        omega = 0.5 if model == "mtm" else 2.0 / 3.0
        op = assemble(model, omega, p, grid_cache(21, 10.0))
        rng = np.random.default_rng(3)
        for b, c, _ in parity_products(op):
            for block in (b, c):
                dense = np.asarray(block)
                assert block.shape == dense.shape
                xs = (rng.standard_normal((dense.shape[0], 3))
                      + 1j * rng.standard_normal((dense.shape[0], 3)))
                atol = 1e-14 * np.abs(dense).max() * dense.shape[0]
                for x in (xs, xs[:, 0], xs.real):
                    np.testing.assert_allclose(block @ x, dense @ x, rtol=0,
                                               atol=atol)
                assert block.frobenius == pytest.approx(
                    np.linalg.norm(dense), rel=1e-14)

    @pytest.mark.parametrize("model", ["mtm", "gn"])
    def test_base_is_taken_at_p0_and_read_only(self, grid_cache, model):
        omega = 0.5 if model == "mtm" else 2.0 / 3.0
        grid = grid_cache(20, 10.0)
        op, op0 = (assemble(model, omega, p, grid) for p in (0.7, 0.0))
        for pair, want in zip(parity_blocks(op), parity_blocks(op0)):
            for x, y in zip(pair, want):
                assert np.array_equal(x, y)
        base, reference = parity_base(op), parity_base(op0)
        assert len(base) == 2
        for arrays, want in zip(base, reference):
            for x, y in zip(arrays, want):
                assert np.array_equal(x, y)
                assert not x.flags.writeable

    @pytest.mark.parametrize("model,p", [("mtm", 0.3), ("gn", 0.3)])
    def test_given_base_gives_the_same_products(self, grid_cache, model, p):
        omega = 0.5 if model == "mtm" else 2.0 / 3.0
        grid = grid_cache(20, 10.0)
        op = assemble(model, omega, p, grid)
        base = parity_base(assemble(model, omega, 0.0, grid))
        for got, want in zip(parity_products(op, base), parity_products(op)):
            assert all(np.array_equal(x, y) for x, y in zip(got, want))


class TestParityTransfer:
    """parity_transfer carries a vector of one component of a block pair
    from the coarse grid to the fine one, in the mirror basis."""

    @pytest.mark.parametrize("coarse,fine", [(20, 40), (20, 41), (80, 160)])
    def test_reproduces_chebyshev_polynomials(self, grid_cache, coarse,
                                              fine):
        # T_k is even or odd with k, so it checks both parity blocks
        source, target = grid_cache(coarse, 10.0), grid_cache(fine, 10.0)
        transfer = parity_transfer(source, target)
        k = np.arange(coarse + 1)
        on_coarse = np.cos(k * np.arccos(source.nodes_z[:, None]))
        on_fine = np.cos(k * np.arccos(target.nodes_z[:, None]))
        np.testing.assert_allclose(transfer @ _mirror_basis(on_coarse),
                                   _mirror_basis(on_fine), rtol=0,
                                   atol=1e-13)

    @pytest.mark.parametrize("coarse,fine", [(20, 40), (20, 41), (80, 160),
                                             (80, 163)])
    def test_even_odd_blocks_vanish(self, grid_cache, coarse, fine):
        transfer = parity_transfer(grid_cache(coarse, 10.0),
                                   grid_cache(fine, 10.0))
        # the even combinations come first: one per mirror pair, and the
        # middle node of an even degree
        evens_f, evens_c = fine // 2 + 1, coarse // 2 + 1
        assert np.all(transfer[:evens_f, evens_c:] == 0.0)
        assert np.all(transfer[evens_f:, :evens_c] == 0.0)
        assert np.abs(transfer[:evens_f, :evens_c]).max() > 0.5
        assert np.abs(transfer[evens_f:, evens_c:]).max() > 0.5

    def test_transferred_eigenvector_has_the_fine_value(self, grid_cache):
        # gn at p > 0: one 2(N+1)-square pair, blockdiag(P_J, P_J)
        omega, p = 2.0 / 3.0, 0.3
        bands = continuous_bands("gn", omega, p)
        products = []
        for n in (80, 160):
            (_, _, bc), = parity_products(assemble("gn", omega, p,
                                                   grid_cache(n, 10.0)))
            products.append(bc)
        coarse_bc, fine_bc = products
        coarse_mu = eigvals(coarse_bc).values
        fine_mu = eigvals(fine_bc).values
        lam = spectrum.isolated_eigs(np.sqrt(coarse_mu + 0j), bands)
        wanted = np.unique(lam[lam.real >= 0.0] ** 2)
        # a real pair and an imaginary one: mu > 0 and mu < 0
        assert wanted.size == 2 and np.all(wanted.imag == 0.0)
        transfer = parity_transfer(grid_cache(80, 10.0),
                                   grid_cache(160, 10.0))
        coarse_xs = inverse_vectors(coarse_bc, wanted)
        xs = spectrum._transferred(transfer, coarse_xs)
        np.testing.assert_allclose(xs, np.kron(np.eye(2), transfer)
                                   @ coarse_xs, rtol=0, atol=1e-15)
        xs /= np.linalg.norm(xs, axis=0)
        quotients = np.einsum("ij,ij->j", xs, fine_bc @ xs)
        for mu in quotients:
            nearest = fine_mu[np.argmin(np.abs(fine_mu - mu))]
            assert abs(mu - nearest) <= 1e-8


class TestContinuousBands:
    def test_symmetric_point_rest_frame(self):
        bands = continuous_bands("mtm", 0.0, 0.0)
        assert not bands.gap_closed
        assert bands.gap_width == pytest.approx(2.0)
        edges = sorted(edge for edge, _ in bands.band_edges)
        assert edges == pytest.approx([-1.0, -1.0, 1.0, 1.0])

    def test_gap_closes_at_unit_wavenumber(self):
        bands = continuous_bands("mtm", 0.0, 1.0)
        assert bands.gap_closed
        assert bands.gap_width == 0.0
        assert (0.0, 1) in [(e, d) for e, d in bands.band_edges]

    def test_gap_boundary_value(self):
        omega = 0.5
        assert continuous_bands("mtm", omega, np.sqrt(1 - omega)).gap_closed
        assert not continuous_bands("mtm", omega, 0.99 * np.sqrt(1 - omega)).gap_closed

    @pytest.mark.parametrize("p", [0.0, 5.0, 100.0])
    def test_gn_gap_never_closes(self, p):
        bands = continuous_bands("gn", 2.0 / 3.0, p)
        assert not bands.gap_closed
        assert bands.gap_width == pytest.approx(
            2.0 * (np.sqrt(1.0 + p * p) - 2.0 / 3.0))

    def test_distance_is_vectorized(self):
        bands = continuous_bands("mtm", 0.0, 0.0)
        d = bands.distance([0.3 + 1.2j, 0.5j])
        np.testing.assert_allclose(d, [0.3, 0.5], atol=1e-15)

    def test_zero_potential_spectrum_sits_on_bands(self, grid_cache):
        for model, omega, p in [("mtm", 0.5, 0.3), ("gn", 2.0 / 3.0, 0.4)]:
            op = assemble(model, omega, p, grid_cache(80, 10.0),
                          zero_potential=True)
            assert op.potential_zeroed
            es = eigvals(stability_matrix(op))
            bands = continuous_bands(model, omega, p)
            assert np.max(bands.distance(es.values)) <= 1e-8


class TestSymmetryResidual:
    def test_quartet_closed_set(self):
        vals = np.array([1 + 2j, -1 + 2j, 1 - 2j, -1 - 2j])
        assert symmetry_residual(vals, "mtm") == 0.0

    def test_gn_reflection_only(self):
        # closed under -conj but not under conj: fine for gn, not for mtm
        vals = np.array([0.5 + 1j, -0.5 + 1j])
        assert symmetry_residual(vals, "gn") == 0.0
        assert symmetry_residual(vals, "mtm") > 0.5

    def test_asymmetric_set_measures_gap(self):
        assert symmetry_residual(np.array([0.3 + 0j]), "mtm") == pytest.approx(0.6)

    def test_accepts_eigenset(self):
        es = eigvals(np.diag([1j, -1j]))
        assert symmetry_residual(es, "mtm") == pytest.approx(0.0, abs=1e-14)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            symmetry_residual(np.array([]), "mtm")

    @pytest.mark.parametrize("model,omega,p", [
        ("mtm", 0.5, 0.3), ("gn", 2.0 / 3.0, 0.25),
    ])
    def test_assembled_operator_spectrum_is_symmetric(
            self, grid_cache, model, omega, p):
        op = assemble(model, omega, p, grid_cache(60, 10.0))
        es = eigvals(stability_matrix(op))
        assert symmetry_residual(es, model) <= 1e-10
