"""Operator assembly: algebraic constants, form equivalence, bands, symmetry."""

import numpy as np
import pytest

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
    dump_matrix,
    hermiticity_defect,
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

    def test_dump_roundtrip(self, grid_cache, tmp_path):
        op = assemble("gn", 0.5, 0.2, grid_cache(6, 10.0))
        path = tmp_path / "matrix.csv"
        dump_matrix(op, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# model=")
        assert lines[1] == "row,col,re,im"
        rebuilt = np.zeros_like(op.matrix_a)
        for line in lines[2:]:
            i, j, re, im = line.split(",")
            rebuilt[int(i), int(j)] = float(re) + 1j * float(im)
        assert np.array_equal(rebuilt, op.matrix_a)


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
