"""Mapped Chebyshev grid: nodes, differentiation matrices, interpolation."""

import numpy as np
import pytest

from diracstab.cheb import build_grid, interpolation_matrix
from diracstab.soliton import ModelKind, SolitonProfile, eval_profile, \
    eval_profile_derivative


class TestNodes:
    def test_three_point_grid(self):
        g = build_grid(2, 1.0)
        assert np.array_equal(g.nodes_z, [1.0, 0.0, -1.0])
        assert g.nodes_x[0] == np.inf
        assert g.nodes_x[1] == 0.0
        assert g.nodes_x[2] == -np.inf
        # midpoint row of the standard matrix is the central stencil
        assert np.allclose(g.d_standard[1], [0.5, 0.0, -0.5], atol=1e-15)

    @pytest.mark.parametrize("n", [8, 33, 64])
    def test_exact_node_antisymmetry(self, n):
        g = build_grid(n, 10.0)
        assert np.array_equal(g.nodes_z, -g.nodes_z[::-1])
        assert np.array_equal(g.nodes_x, -g.nodes_x[::-1])
        if n % 2 == 0:
            assert g.nodes_z[n // 2] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            build_grid(1, 10.0)
        with pytest.raises(ValueError):
            build_grid(8, 0.0)
        with pytest.raises(ValueError):
            build_grid(8, -2.0)
        for scale in (np.inf, np.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                build_grid(8, scale)

    def test_degree_must_be_an_integer(self):
        with pytest.raises(ValueError, match="integer, got 20.0"):
            build_grid(20.0)
        g = build_grid(np.int64(20))
        assert g.n == 20
        assert np.array_equal(g.d_scaled, build_grid(20).d_scaled)

    def test_arrays_read_only(self):
        g = build_grid(8, 10.0)
        for arr in (g.nodes_z, g.nodes_x, g.d_standard, g.d_scaled):
            with pytest.raises(ValueError):
                arr.flat[0] = 9.9


class TestDifferentiation:
    def test_constants_to_zero(self):
        g = build_grid(32, 10.0)
        ones = np.ones(g.n + 1)
        assert np.max(np.abs(g.d_standard @ ones)) <= 1e-10
        assert np.max(np.abs(g.d_scaled @ ones)) <= 1e-11

    def test_cubic_polynomial_exact(self):
        g = build_grid(8, 10.0)
        z = g.nodes_z
        p = z**3 - 2.0 * z**2 + 0.5 * z - 1.0
        dp = 3.0 * z**2 - 4.0 * z + 0.5
        assert np.max(np.abs(g.d_standard @ p - dp)) <= 1e-12

    def test_scaled_boundary_rows_vanish(self):
        g = build_grid(24, 10.0)
        assert np.all(g.d_scaled[0] == 0.0)
        assert np.all(g.d_scaled[-1] == 0.0)

    def test_tanh_of_mapped_coordinate(self):
        # tanh(x/L) equals the reference coordinate z on this grid, so its
        # scaled derivative (1/L) sech^2(x/L) = (1 - z^2)/L is reproduced
        # to rounding at every node
        g = build_grid(64, 10.0)
        ref = (1.0 - g.nodes_z**2) / 10.0
        assert np.max(np.abs(g.d_scaled @ g.nodes_z - ref)) <= 1e-12

    def test_decaying_profile_derivative(self):
        g = build_grid(300, 10.0)
        prof = SolitonProfile.create(ModelKind.MASSIVE_THIRRING, 0.5)
        u = eval_profile(prof, g.nodes_x)
        du = eval_profile_derivative(prof, g.nodes_x)
        err = np.abs(g.d_scaled @ u - du)[1:-1]
        assert float(err.max()) <= 1e-12


class TestInterpolation:
    @pytest.mark.parametrize("source,target", [(20, 40), (20, 41), (21, 30),
                                               (80, 160)])
    def test_reproduces_polynomials(self, source, target):
        # T_k for every k up to the source degree, nested grids or not
        coarse, fine = build_grid(source, 10.0), build_grid(target, 10.0)
        interp = interpolation_matrix(coarse, fine)
        assert interp.shape == (target + 1, source + 1)
        k = np.arange(source + 1)
        on_coarse = np.cos(k * np.arccos(coarse.nodes_z[:, None]))
        on_fine = np.cos(k * np.arccos(fine.nodes_z[:, None]))
        np.testing.assert_allclose(interp @ on_coarse, on_fine, rtol=0,
                                   atol=1e-13)

    @pytest.mark.parametrize("source,target", [(20, 40), (20, 41), (21, 30)])
    def test_commutes_with_the_reflection(self, source, target):
        interp = interpolation_matrix(build_grid(source, 10.0),
                                      build_grid(target, 10.0))
        assert np.array_equal(interp, interp[::-1, ::-1])

    def test_unit_rows_at_shared_nodes(self):
        interp = interpolation_matrix(build_grid(20, 10.0),
                                      build_grid(40, 10.0))
        # every other node of the fine grid is a coarse node
        assert np.array_equal(interp[::2], np.eye(21))

    def test_grids_must_share_the_map(self):
        with pytest.raises(ValueError, match="different maps"):
            interpolation_matrix(build_grid(20, 10.0), build_grid(40, 5.0))
