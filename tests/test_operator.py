"""Operator assembly: algebraic constants, form equivalence, bands, symmetry."""

import tracemalloc

import numpy as np
import pytest

import diracstab.operator as operator_module
from diracstab.cheb import build_grid
from diracstab.eigen import eigvals
from diracstab.operator import (
    BLOCK_MIXING,
    OperatorForm,
    PAULI_SIGMA1,
    PAULI_SIGMA3,
    REDUCTION_BLOCK,
    SIGMA_DIAG,
    StabilityOperator,
    assemble,
    continuous_bands,
    hermiticity_defect,
    parity_blocks,
    symmetry_residual,
)
from diracstab.soliton import DomainError


def matching_distance(a, b):
    a = np.asarray(a).reshape(-1, 1)
    b = np.asarray(b).reshape(1, -1)
    d = np.abs(a - b)
    return max(d.min(axis=1).max(), d.min(axis=0).max())


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
        full = assemble(model, omega, p, grid, form="full")
        block = assemble(model, omega, p, grid, form="block")
        ev_full = eigvals(full.matrix_a).values
        ev_block = eigvals(block.matrix_a).values
        assert matching_distance(ev_full, ev_block) <= 1e-8

    @pytest.mark.parametrize("model,omega,p", [
        ("mtm", 0.3, 0.4),
        ("gn", 0.5, 0.25),
    ])
    def test_explicit_change_of_variables(self, grid_cache, model, omega, p):
        grid = grid_cache(12, 10.0)
        full = assemble(model, omega, p, grid, form="full").matrix_a
        block = assemble(model, omega, p, grid, form="block").matrix_a
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
        assert op.form is OperatorForm.BLOCK_DIAGONALIZED
        assert not op.potential_zeroed
        with pytest.raises(ValueError):
            op.matrix_a[0, 0] = 1.0

    def test_rejects_bad_inputs(self, grid_cache):
        grid = grid_cache(8, 10.0)
        with pytest.raises(DomainError):
            assemble("gn", -0.5, 0.1, grid)
        with pytest.raises(ValueError):
            assemble("mtm", 0.5, 0.1, grid, form="bogus")
        with pytest.raises(ValueError):
            assemble("mtm", 0.5, 0.1, np.eye(4))

    @pytest.mark.parametrize("model", ["mtm", "gn"])
    @pytest.mark.parametrize("form", ["full", "block"])
    def test_hermiticity_defect_vanishes(self, grid_cache, model, form):
        omega = 0.5 if model == "mtm" else 2.0 / 3.0
        op = assemble(model, omega, 0.3, grid_cache(20, 10.0), form=form)
        assert hermiticity_defect(op) <= 1e-12


def dense_reduced(front, m, *parts):
    """The reference for the block writer: -1j * kron(front, I) @ (sum of
    the parts), each part laid out whole by np.block."""
    zero = np.zeros((m, m), dtype=complex)
    dense = [np.block([[zero if b is None else b for b in row] for row in part])
             for part in parts]
    total = sum(dense[1:], dense[0])
    return -1j * (np.kron(front, np.eye(m)).astype(complex) @ total)


class TestPermutationAssembly:
    @pytest.mark.parametrize("model", ["mtm", "gn"])
    @pytest.mark.parametrize("form", ["full", "block"])
    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_matches_dense_product(self, grid_cache, monkeypatch, model,
                                   form, p):
        omega = 0.5 if model == "mtm" else 2.0 / 3.0
        grid = grid_cache(20, 10.0)
        fast = assemble(model, omega, p, grid, form=form).matrix_a
        monkeypatch.setattr(operator_module, "_reduced", dense_reduced)
        dense = assemble(model, omega, p, grid, form=form).matrix_a
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
    @pytest.mark.parametrize("form", ["full", "block"])
    def test_no_full_size_temporaries(self, grid_cache, model, form):
        # the m x m blocks add about one output's worth; a single extra
        # 4(N+1)-square array would push the peak past three outputs
        grid = grid_cache(100, 10.0)
        tracemalloc.start()
        try:
            op = assemble(model, 0.5, 0.3, grid, form=form)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * op.matrix_a.nbytes


def parity_involution(n):
    """The reference S = kron(P, J) as a dense matrix: P swaps components
    0 <-> 1 and 2 <-> 3, J reverses the n + 1 grid points."""
    swap = np.kron(np.eye(2), PAULI_SIGMA1)
    return np.kron(swap, np.eye(n + 1)[::-1])


class TestParity:
    @pytest.mark.parametrize("model", ["mtm", "gn"])
    @pytest.mark.parametrize("form", ["full", "block"])
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.9])
    def test_involution_anticommutes(self, grid_cache, model, form, p):
        omega = 0.5 if model == "mtm" else 2.0 / 3.0
        grid = grid_cache(20, 10.0)
        a = assemble(model, omega, p, grid, form=form).matrix_a
        s = parity_involution(grid.n)
        assert np.array_equal(s @ s, np.eye(s.shape[0]))
        assert np.max(np.abs(s @ a @ s + a)) <= 1e-14 * np.max(np.abs(a))

    @pytest.mark.parametrize("model", ["mtm", "gn"])
    @pytest.mark.parametrize("form", ["full", "block"])
    def test_blocks_of_the_eigenbasis(self, grid_cache, model, form):
        omega = 0.5 if model == "mtm" else 2.0 / 3.0
        grid = grid_cache(20, 10.0)
        op = assemble(model, omega, 0.3, grid, form=form)
        m = grid.n + 1
        # columns (e_k + e_sk) / sqrt(2), then (e_k - e_sk) / sqrt(2): k runs
        # over components 0 and 2, sk over components 1 and 3 mirrored
        k = np.concatenate([np.arange(m), 2 * m + np.arange(m)])
        sk = np.concatenate([2 * m - 1 - np.arange(m), 4 * m - 1 - np.arange(m)])
        e = np.eye(4 * m)
        q = np.hstack([e[:, k] + e[:, sk], e[:, k] - e[:, sk]]) / np.sqrt(2.0)
        signs = np.repeat([1.0, -1.0], 2 * m)
        np.testing.assert_allclose(parity_involution(grid.n) @ q, q * signs,
                                   atol=1e-15)
        rotated = q.T @ op.matrix_a @ q
        b, c = parity_blocks(op)
        h = 2 * m
        scale = np.max(np.abs(op.matrix_a))
        assert np.max(np.abs(rotated[:h, :h])) <= 1e-14 * scale
        assert np.max(np.abs(rotated[h:, h:])) <= 1e-14 * scale
        np.testing.assert_allclose(b, rotated[:h, h:], rtol=0,
                                   atol=1e-14 * scale)
        np.testing.assert_allclose(c, rotated[h:, :h], rtol=0,
                                   atol=1e-14 * scale)


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
