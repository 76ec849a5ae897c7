"""Dense eigensolver: solver properties, validation, selected vectors.

Spectra are compared with the matching distance max_a min_b |a - b|
rather than positionally: symmetric spectra contain quartets whose
members tie in one sort key, so positionally sorted arrays can disagree
even when the multisets are identical.
"""

import numpy as np
import pytest

import diracstab.pool as pool
from diracstab.analytics import asymptotic_prediction, kernel_vectors
from conftest import blas_threads, relative_residuals, stability_matrix
from diracstab.eigen import (ConvergenceError, EigenSet, eigvals,
                             inverse_vectors)
from diracstab.operator import assemble
from diracstab.spectrum import parity_eigvals


def matching_distance(a, b):
    a = np.asarray(a).reshape(-1, 1)
    b = np.asarray(b).reshape(1, -1)
    d = np.abs(a - b)
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def bit_patterns(values):
    """The sorted (real, imag) bit patterns of complex values."""
    return sorted(map(tuple, values.view(np.int64).reshape(-1, 2).tolist()))


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
        # eigvals computes values only; np.linalg.eig's vectors, in its
        # sort order, are eigenvectors for them
        a = random_complex(8, seed=11)
        es = eigvals(a)
        assert es.vectors is None
        values, vectors = np.linalg.eig(a)
        order = np.lexsort((values.real, values.imag))
        assert np.max(relative_residuals(a, es.values,
                                         vectors[:, order])) <= 1e-10
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


class TestParityEigvals:
    """parity_eigvals expands each conjugate class of mu = lambda**2."""

    @pytest.mark.parametrize("p", [0.0, 0.002, 0.3])
    @pytest.mark.parametrize("model,omega", [("mtm", 0.5), ("gn", 2.0 / 3.0)])
    def test_exact_closed_pairs_sorted(self, grid_cache, model, omega, p):
        op = assemble(model, omega, p, grid_cache(40, 10.0))
        es = parity_eigvals(op)
        vals = es.values
        assert es.backend == "lapack-parity"
        assert vals.size == op.dim
        # closed under negation bit for bit, and under conjugation up to
        # the sign of a zero part: the conjugate of a real or imaginary
        # value flips the sign of its zero part
        assert bit_patterns(-vals) == bit_patterns(vals)
        np.testing.assert_array_equal(np.sort_complex(vals.conj()),
                                      np.sort_complex(vals))
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


class TestBlasCap:
    def test_setter_fallback_caps_and_restores(self, monkeypatch):
        # a build without the blas_cpu_number variable is capped through
        # its *_set_num_threads
        before = blas_threads()
        if before is None:
            pytest.skip("no OpenBLAS library is loaded")
        monkeypatch.setattr(pool, "_thread_count", lambda *args: None)
        setters = {names[0] for names in pool._OPENBLAS_SYMBOLS}
        assert {setter.__name__ for setter, _ in pool._openblas_controls()} \
            <= setters
        with pool.single_blas_thread():
            assert blas_threads() == 1
        assert blas_threads() == before


class TestSelectedVectors:
    def test_identity(self):
        vectors = inverse_vectors(np.eye(3), [1.0])
        assert vectors.shape == (3, 1)
        assert relative_residuals(np.eye(3), np.array([1.0]),
                                  vectors)[0] <= 1e-14

    def test_defective_matrix_does_not_raise(self):
        # Jordan block: both requested copies of 0 resolve to the same
        # eigenvector, without raising
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        values = np.zeros(2)
        vectors = inverse_vectors(a, values)
        assert np.max(relative_residuals(a, values, vectors)) <= 1e-8

    def test_real_value_of_real_matrix_in_real_arithmetic(
            self, shifted_matrices):
        a = np.random.default_rng(11).standard_normal((30, 30))
        full_values, full_vectors = np.linalg.eig(a)
        picked = [int(np.argmax(full_values.imag == 0.0)),
                  int(np.argmax(full_values.imag > 0.0))]
        values = full_values[picked]
        vectors = inverse_vectors(a, values)
        # one shifted matrix per value, real for the real value
        assert [m.dtype for m in shifted_matrices] == [np.float64,
                                                       np.complex128]
        assert np.all(vectors[:, 0].imag == 0.0)
        assert np.max(relative_residuals(a, values, vectors)) <= 1e-12
        for col, j in enumerate(picked):
            assert cosine_alignment(vectors[:, col],
                                    full_vectors[:, j]) >= 1.0 - 1e-10

    def test_inverse_iteration_matches_full_solve(self):
        a = random_complex(40, seed=17)
        full_values, full_vectors = np.linalg.eig(a)
        picked = [0, 7, 39]
        values = full_values[picked]
        vectors = inverse_vectors(a, values)
        assert vectors.shape == (40, 3)
        assert np.max(relative_residuals(a, values, vectors)) <= 1e-12
        for col, j in enumerate(picked):
            assert cosine_alignment(vectors[:, col],
                                    full_vectors[:, j]) >= 1.0 - 1e-10


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

        vector = inverse_vectors(stability_matrix(op), [lam])[:, 0]
        kv = kernel_vectors(model, omega)
        samples = getattr(kv, vec_name)(grid.nodes_x).reshape(-1)
        assert cosine_alignment(vector, samples) >= 0.95
