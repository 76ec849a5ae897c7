"""Dense eigensolver: solver properties, validation, selected vectors.

Spectra are compared with the matching distance max_a min_b |a - b|
rather than positionally: symmetric spectra contain quartets whose
members tie in one sort key, so positionally sorted arrays can disagree
even when the multisets are identical.
"""

import numpy as np
import pytest

import diracstab.eigen as eigen_module
from diracstab.analytics import asymptotic_prediction, kernel_vectors
from diracstab.cheb import build_grid, sample_on_grid
from diracstab.eigen import (ConvergenceError, EigenSet, eigvals,
                             inverse_iteration, root_pairs)
from diracstab.operator import assemble
from diracstab.spectrum import parity_eigvals


def matching_distance(a, b):
    a = np.asarray(a).reshape(-1, 1)
    b = np.asarray(b).reshape(1, -1)
    d = np.abs(a - b)
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def random_complex(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestSolverProperties:
    """Properties of the LAPACK eigensolver."""

    def test_rotation_matrix(self):
        es = eigvals([[0.0, 1.0], [-1.0, 0.0]])
        assert isinstance(es, EigenSet)
        np.testing.assert_allclose(es.values, [-1j, 1j], atol=1e-12)

    def test_diagonal_is_exact(self):
        es = eigvals(np.diag([2.0 + 1.0j, -3.0, 0.0]))
        assert np.array_equal(es.values, np.array([-3.0, 0.0, 2.0 + 1.0j]))

    def test_dense_with_vectors(self):
        a = random_complex(8, seed=11)
        es = eigvals(a, want_vectors=True)
        assert es.vectors.shape == (8, 8)
        assert np.max(es.residuals) <= 1e-10
        assert np.sum(es.values) == pytest.approx(np.trace(a), abs=1e-10)

    def test_determinant_consistency_dim64(self):
        a = random_complex(64, seed=5)
        es = eigvals(a)
        sign, logabs = np.linalg.slogdet(a)
        prod = np.prod(es.values)
        assert prod == pytest.approx(sign * np.exp(logabs), rel=1e-9)

    def test_unitary_similarity_invariance(self):
        a = random_complex(32, seed=3)
        q, _ = np.linalg.qr(random_complex(32, seed=4))
        before = eigvals(a).values
        after = eigvals(q @ a @ q.conj().T).values
        assert matching_distance(before, after) <= 1e-8

    def test_scaling(self):
        a = random_complex(12, seed=7)
        base = eigvals(a).values
        scaled = eigvals(2.5 * a).values
        np.testing.assert_allclose(scaled, 2.5 * base, atol=1e-10)

    def test_conjugation(self):
        a = random_complex(12, seed=9)
        base = eigvals(a).values
        conj = eigvals(np.conj(a)).values
        assert matching_distance(conj, np.conj(base)) <= 1e-10

    def test_sort_order(self):
        vals = eigvals(random_complex(16, seed=13)).values
        order = np.lexsort((vals.real, vals.imag))
        assert np.array_equal(order, np.arange(16))

    def test_real_matrix_stays_real(self, monkeypatch):
        a = np.random.default_rng(5).standard_normal((40, 40))
        solved = []
        solve = np.linalg.eigvals

        def recording(matrix):
            solved.append(matrix.dtype)
            return solve(matrix)

        monkeypatch.setattr(np.linalg, "eigvals", recording)
        real = eigvals(a).values
        assert solved == [np.float64]
        assert real.dtype == complex
        assert matching_distance(real, eigvals(a.astype(complex)).values) \
            <= 1e-12
        on_axis = np.abs(real.imag) < 1e-8
        assert on_axis.any() and np.all(real.imag[on_axis] == 0.0)

    def test_real_lapack_failure_raises_convergence_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(ConvergenceError, match="did not converge"):
            eigvals(np.eye(3))

    def test_lapack_failure_raises_convergence_error(self, monkeypatch):
        failure = np.linalg.LinAlgError("Eigenvalues did not converge")

        def fail(a):
            raise failure

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(ConvergenceError, match="did not converge") as exc:
            eigvals(random_complex(6, seed=2))
        assert exc.value.__cause__ is failure


class TestRootPairs:
    """+-sqrt(eig(B C)) against a direct solve of [[0, B], [C, 0]]."""

    @pytest.mark.parametrize("dim,seed", [(6, 21), (24, 22)])
    def test_matches_block_matrix(self, dim, seed):
        b = random_complex(dim, seed)
        c = random_complex(dim, seed + 100)
        es = root_pairs(eigvals(b @ c))
        assert es.backend == "lapack-parity"
        assert es.values.size == 2 * dim
        direct = eigvals(np.block([[np.zeros_like(b), b],
                                   [c, np.zeros_like(c)]])).values
        assert matching_distance(es.values, direct) <= 1e-10

    def test_exact_pairs_sorted(self):
        squares = EigenSet(values=random_complex(4, seed=23).ravel())
        vals = root_pairs(squares).values
        assert np.array_equal(np.sort_complex(vals), np.sort_complex(-vals))
        order = np.lexsort((vals.real, vals.imag))
        assert np.array_equal(order, np.arange(vals.size))


class TestValidation:
    def test_non_square(self):
        with pytest.raises(ValueError, match="square"):
            eigvals(np.ones((2, 3)))

    def test_non_finite(self):
        a = np.eye(3, dtype=complex)
        a[1, 1] = np.nan
        with pytest.raises(ValueError):
            eigvals(a)


class TestSelectedVectors:
    def test_identity(self):
        es = inverse_iteration(np.eye(3), [1.0])
        assert es.vectors.shape == (3, 1)
        assert es.residuals[0] <= 1e-14

    def test_defective_matrix_does_not_raise(self):
        # Jordan block: both requested copies of 0 resolve to the same
        # eigenvector, without raising
        es = inverse_iteration(np.array([[0.0, 1.0], [0.0, 0.0]]), [0.0, 0.0])
        assert np.max(es.residuals) <= 1e-8

    def test_real_value_of_real_matrix_in_real_arithmetic(self, monkeypatch):
        a = np.random.default_rng(11).standard_normal((30, 30))
        full = eigvals(a, want_vectors=True)
        picked = [int(np.argmax(full.values.imag == 0.0)),
                  int(np.argmax(full.values.imag > 0.0))]
        factored = []
        factor = eigen_module.lu_factor

        def recording(matrix, **kwargs):
            factored.append(matrix.dtype)
            return factor(matrix, **kwargs)

        monkeypatch.setattr(eigen_module, "lu_factor", recording)
        es = inverse_iteration(a, full.values[picked])
        assert factored == [np.float64, np.complex128]
        assert np.all(es.vectors[:, 0].imag == 0.0)
        assert np.max(es.residuals) <= 1e-12
        for col, j in enumerate(picked):
            assert cosine_alignment(es.vectors[:, col],
                                    full.vectors[:, j]) >= 1.0 - 1e-10

    def test_inverse_iteration_matches_full_solve(self):
        a = random_complex(40, seed=17)
        full = eigvals(a, want_vectors=True)
        picked = [0, 7, 39]
        es = inverse_iteration(a, full.values[picked])
        assert np.array_equal(es.values, full.values[picked])
        assert np.max(es.residuals) <= 1e-12
        for col, j in enumerate(picked):
            assert cosine_alignment(es.vectors[:, col],
                                    full.vectors[:, j]) >= 1.0 - 1e-10


def cosine_alignment(v, w):
    return abs(np.vdot(v, w)) / (np.linalg.norm(v) * np.linalg.norm(w))


class TestEigenvectorPhysics:
    """At small transverse wavenumber the unstable eigenvector is dominated
    by the kernel vector that seeds its branch."""

    @pytest.mark.parametrize("model,omega,vec_name", [
        ("mtm", 0.0, "v_t"),
        ("gn", 2.0 / 3.0, "v_g"),
    ])
    def test_small_p_eigenvector_tracks_kernel_vector(
            self, grid_cache, model, omega, vec_name):
        p = 0.05
        grid = grid_cache(200, 10.0)
        op = assemble(model, omega, p, grid)
        es = parity_eigvals(op)
        target = p * asymptotic_prediction(
            model, omega, with_corrections=False).lambda_r
        real_pos = es.values[(es.values.real > 0)
                             & (np.abs(es.values.imag) < 1e-8)]
        lam = real_pos[np.argmin(np.abs(real_pos - target))]
        assert lam.real == pytest.approx(target, rel=0.15)

        vecs = inverse_iteration(op.matrix_a, [lam])
        kv = kernel_vectors(model, omega)
        samples = getattr(kv, vec_name)(grid.nodes_x).reshape(-1)
        assert cosine_alignment(vecs.vectors[:, 0], samples) >= 0.95
