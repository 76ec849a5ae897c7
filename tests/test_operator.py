"""Operator assembly: algebraic constants, form equivalence, bands, symmetry.

The library assembles only the block form.  The four-component system it
comes from is built here, by full_system, as the oracle the block form is
checked against: both must have the same spectrum, and an explicit
orthogonal change of variables must carry one into the other.
"""

import tracemalloc

import numpy as np
import pytest

import diracstab.operator as operator_module
from diracstab.cheb import build_grid
from diracstab.eigen import eigvals
from diracstab.operator import (
    REDUCTION_BLOCK,
    StabilityOperator,
    assemble,
    continuous_bands,
    hermiticity_defect,
    parity_blocks,
    parity_vector,
    symmetry_residual,
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


def dense_reduced(front, m, *parts):
    """The reference for the block writer: -1j * kron(front, I) @ (sum of
    the parts), each part laid out whole by np.block."""
    zero = np.zeros((m, m), dtype=complex)
    dense = [np.block([[zero if b is None else b for b in row] for row in part])
             for part in parts]
    total = sum(dense[1:], dense[0])
    return -1j * (np.kron(front, np.eye(m)).astype(complex) @ total)


def full_system(model, omega, p, grid, zero_potential=False,
                reduce=dense_reduced):
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
    return reduce(SIGMA_DIAG, m, d_part, e_term, w_part)


def form_matrix(form, model, omega, p, grid):
    """The block form from the library, or the full-system oracle."""
    if form == "full":
        return full_system(model, omega, p, grid)
    return assemble(model, omega, p, grid).matrix_a


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
        ev_block = eigvals(assemble(model, omega, p, grid).matrix_a).values
        assert matching_distance(ev_full, ev_block) <= 1e-8

    @pytest.mark.parametrize("model,omega,p", [
        ("mtm", 0.3, 0.4),
        ("gn", 0.5, 0.25),
    ])
    def test_explicit_change_of_variables(self, grid_cache, model, omega, p):
        grid = grid_cache(12, 10.0)
        full = full_system(model, omega, p, grid)
        block = assemble(model, omega, p, grid).matrix_a
        s_big = np.kron(BLOCK_MIXING / np.sqrt(2.0), np.eye(grid.n + 1))
        np.testing.assert_allclose(s_big @ full @ s_big.T, block, atol=1e-12)

    def test_mtm_transverse_term_is_quadratic(self, grid_cache):
        grid = grid_cache(10, 10.0)
        m = grid.n + 1

        def a(p):
            return assemble("mtm", 0.2, p, grid).matrix_a

        base = a(0.0)
        expected = -1j * 0.5**2 * np.kron(REDUCTION_BLOCK, np.eye(m))
        np.testing.assert_allclose(a(0.5) - base, expected, atol=1e-12)

    def test_gn_transverse_term_is_linear(self, grid_cache):
        grid = grid_cache(10, 10.0)

        def a(p):
            return assemble("gn", 0.5, p, grid).matrix_a

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
        with pytest.raises(ValueError):
            op.matrix_a[0, 0] = 1.0

    def test_rejects_bad_inputs(self, grid_cache):
        grid = grid_cache(8, 10.0)
        with pytest.raises(DomainError):
            assemble("gn", -0.5, 0.1, grid)
        with pytest.raises(ValueError):
            assemble("mtm", 0.5, 0.1, np.eye(4))

    # form is "block" alone: hermiticity_defect and the library's memory
    # use concern the assembled form; the ids name it as TestParity's do
    @pytest.mark.parametrize("model", ["mtm", "gn"])
    @pytest.mark.parametrize("form", ["block"])
    def test_hermiticity_defect_vanishes(self, grid_cache, model, form):
        omega = 0.5 if model == "mtm" else 2.0 / 3.0
        op = assemble(model, omega, 0.3, grid_cache(20, 10.0))
        assert hermiticity_defect(op) <= 1e-12


class TestPermutationAssembly:
    @pytest.mark.parametrize("model", ["mtm", "gn"])
    @pytest.mark.parametrize("form", ["full", "block"])
    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_matches_dense_product(self, grid_cache, monkeypatch, model,
                                   form, p):
        omega = 0.5 if model == "mtm" else 2.0 / 3.0
        grid = grid_cache(20, 10.0)
        if form == "full":
            # the block writer on the three parts of the oracle
            fast = full_system(model, omega, p, grid,
                               reduce=operator_module._reduced)
            dense = full_system(model, omega, p, grid)
        else:
            fast = assemble(model, omega, p, grid).matrix_a
            monkeypatch.setattr(operator_module, "_reduced", dense_reduced)
            dense = assemble(model, omega, p, grid).matrix_a
        # signed zeros may differ; every value and eigenvalue is equal
        assert np.array_equal(fast, dense)
        assert np.array_equal(eigvals(fast).values, eigvals(dense).values)

    @pytest.mark.parametrize("front", [REDUCTION_BLOCK, SIGMA_DIAG])
    def test_random_matrix(self, front):
        rng = np.random.default_rng(1)
        m = 3

        def block():
            return (rng.standard_normal((m, m))
                    + 1j * rng.standard_normal((m, m)))

        parts = [[[block() for _ in range(4)] for _ in range(4)]
                 for _ in range(3)]
        # a block missing from one part, and one missing from every part
        parts[1][0][2] = None
        for part in parts:
            part[3][1] = None
        assert np.array_equal(operator_module._reduced(front, m, *parts),
                              dense_reduced(front, m, *parts))

    @pytest.mark.parametrize("model", ["mtm", "gn"])
    @pytest.mark.parametrize("form", ["block"])  # see the hermiticity test
    def test_no_full_size_temporaries(self, grid_cache, model, form):
        # the m x m blocks add well under one output's worth; a single
        # extra 4(N+1)-square array would push the peak past three outputs
        grid = grid_cache(100, 10.0)
        tracemalloc.start()
        try:
            op = assemble(model, 0.5, 0.3, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * op.matrix_a.nbytes


def parity_involution(n):
    """The reference S = kron(P, J) as a dense matrix: P swaps components
    0 <-> 1 and 2 <-> 3, J reverses the n + 1 grid points."""
    swap = np.kron(np.eye(2), PAULI_SIGMA1)
    return np.kron(swap, np.eye(n + 1)[::-1])


def parity_basis(m):
    """The eigenbasis Q of S as dense columns: (e_k + e_sk) / sqrt(2), then
    (e_k - e_sk) / sqrt(2); k runs over components 0 and 2, sk over
    components 1 and 3 mirrored."""
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
        op = StabilityOperator(
            model=ModelKind(model), omega=omega, p=0.3, grid=grid,
            matrix_a=form_matrix(form, model, omega, 0.3, grid))
        m = grid.n + 1
        q = parity_basis(m)
        signs = np.repeat([1.0, -1.0], 2 * m)
        np.testing.assert_allclose(parity_involution(grid.n) @ q, q * signs,
                                   atol=1e-15)
        rotated = q.T @ op.matrix_a @ q
        b, c = operator_module._mirror_blocks(op)
        h = 2 * m
        scale = np.max(np.abs(op.matrix_a))
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
        for x in operator_module._mirror_blocks(op):
            assert np.array_equal(t @ x.conj() @ t, x)

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
                 for x in operator_module._mirror_blocks(op)]
        scale = max(np.max(np.abs(x)) for x in dense)
        assert max(np.max(np.abs(x.imag)) for x in dense) <= 1e-15 * scale
        pairs = parity_blocks(op)
        if len(pairs) == 1:
            expected = [(dense[0].real, dense[1].real)]
        else:
            b, c = (component_blocks(x.real, m) for x in dense)
            expected = [(b[0, 1], c[1, 0]), (b[1, 0], c[0, 1])]
        for got, want in zip(pairs, expected):
            for x, y in zip(got, want):
                assert x.dtype == np.float64
                np.testing.assert_allclose(x, y, rtol=0, atol=1e-14 * scale)

    @pytest.mark.parametrize("model,p,splits", [
        ("mtm", 0.0, True), ("mtm", 0.3, True), ("mtm", 1.1, True),
        ("gn", 0.0, True), ("gn", 0.3, False), ("gn", 1.1, False),
    ])
    def test_split_where_block_diagonal(self, grid_cache, model, p, splits):
        omega = 0.5 if model == "mtm" else 2.0 / 3.0
        op = assemble(model, omega, p, grid_cache(20, 10.0))
        m = op.grid.n + 1
        b, c = operator_module._mirror_blocks(op)
        product = component_blocks(b @ c, m)
        off_diagonal = max(np.abs(product[0, 1]).max(),
                           np.abs(product[1, 0]).max())
        pairs = parity_blocks(op)
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
        omega = 0.5 if model == "mtm" else 2.0 / 3.0
        op = assemble(model, omega, p, grid_cache(n, 10.0))
        m = n + 1
        lift = np.kron(np.eye(2), real_basis(m))
        rng = np.random.default_rng(3)
        for pair, (b, c) in enumerate(parity_blocks(op)):
            y = rng.standard_normal(b.shape[0])
            z = rng.standard_normal(c.shape[0]) * 1j
            if b.shape[0] == m:
                # y on B's component of the +1 eigenspace, z on C's of the -1
                y2, z2 = np.zeros(2 * m, complex), np.zeros(2 * m, complex)
                y2[pair * m:(pair + 1) * m] = y
                z2[(1 - pair) * m:(2 - pair) * m] = z
            else:
                y2, z2 = y, z
            want = parity_basis(m) @ lift @ np.concatenate([y2, z2])
            np.testing.assert_allclose(parity_vector(op, pair, y, z), want,
                                       rtol=0, atol=1e-14)


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
            es = eigvals(op.matrix_a)
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
        es = eigvals(op.matrix_a)
        assert symmetry_residual(es, model) <= 1e-10
