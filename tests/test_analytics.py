"""Closed-form integrals, projections, and slope predictions.

Every closed form is cross-checked against an adaptive-quadrature oracle
computed here, independently of the library's own quadrature helper.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from diracstab.analytics import (
    NumericsError,
    asymptotic_prediction,
    compute_corrections,
    du_domega,
    gn_norms,
    kernel_vectors,
    mtm_norms,
    projection_matrix_elements,
    quad_integral,
    second_order_solvability,
)
from diracstab.soliton import (
    DomainError,
    ModelKind,
    SolitonProfile,
    eval_profile,
    eval_profile_derivative,
)

MTM = ModelKind.MASSIVE_THIRRING
GN = ModelKind.GROSS_NEVEU


def quad_line(f, mu):
    """Independent quadrature of a real integrand over the real line."""
    span = 40.0 / mu
    val, err = quad(f, -span, span, epsabs=1e-13, epsrel=1e-13, limit=600)
    assert err < 1e-9 * (1.0 + abs(val))
    return val


def mtm_quadrature_norms(omega):
    prof = SolitonProfile.create(MTM, omega)

    def u(x):
        return eval_profile(prof, x)

    def du(x):
        return eval_profile_derivative(prof, x)

    return {
        "norm_sq_u": quad_line(lambda x: abs(u(x)) ** 2, prof.mu),
        "norm_sq_du": quad_line(lambda x: abs(du(x)) ** 2, prof.mu),
        "momentum_like": quad_line(
            lambda x: omega * abs(u(x)) ** 2
            - (np.conj(u(x)) * du(x)).imag, prof.mu),
    }


class TestMtmNorms:
    @pytest.mark.parametrize("omega", [-0.9, -0.5, 0.0, 0.4, 0.8])
    def test_matches_quadrature(self, omega):
        closed = mtm_norms(omega)
        oracle = mtm_quadrature_norms(omega)
        for key, ref in oracle.items():
            assert closed[key] == pytest.approx(ref, rel=1e-9), key

    def test_symmetric_point_values(self):
        vals = mtm_norms(0.0)
        assert vals["norm_sq_u"] == pytest.approx(np.pi, abs=1e-12)
        assert vals["norm_sq_du"] == pytest.approx(np.pi, abs=1e-12)
        assert vals["momentum_like"] == pytest.approx(2.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            mtm_norms(1.0)


class TestGnNorms:
    @pytest.mark.parametrize("omega", [0.15, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.9])
    def test_norm_matches_quadrature(self, omega):
        prof = SolitonProfile.create(GN, omega)
        oracle = quad_line(lambda x: abs(eval_profile(prof, x)) ** 2, prof.mu)
        assert gn_norms(omega)["norm_sq_u"] == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("omega", [0.15, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.9])
    def test_weighted_momentum_matches_quadrature(self, omega):
        val, err = quad(lambda z: 1.0 / (1.0 + omega * np.cosh(min(z, 300.0))) ** 2,
                        0.0, np.inf, epsabs=1e-13, epsrel=1e-13, limit=600)
        assert err < 1e-10
        oracle = (1.0 - omega**2) * val
        assert gn_norms(omega)["i_omega"] == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("omega", [1.0 / 3.0, 0.5, 2.0 / 3.0])
    def test_norm_derivative_matches_quadrature(self, omega):
        def norm_at(w):
            prof = SolitonProfile.create(GN, w)
            return quad_line(lambda x: abs(eval_profile(prof, x)) ** 2,
                             prof.mu)

        h = 1e-4
        coarse = (norm_at(omega + h) - norm_at(omega - h)) / (2.0 * h)
        fine = (norm_at(omega + h / 2) - norm_at(omega - h / 2)) / h
        oracle = (4.0 * fine - coarse) / 3.0
        assert gn_norms(omega)["d_norm_sq_u"] == pytest.approx(oracle, rel=1e-7)

    def test_closed_values(self):
        vals = gn_norms(2.0 / 3.0)
        assert vals["norm_sq_u"] == pytest.approx(np.sqrt(5) / 2.0, abs=1e-12)
        assert vals["d_norm_sq_u"] == pytest.approx(
            -1.0 / ((2.0 / 3.0) ** 2 * np.sqrt(5) / 3.0), rel=1e-12)

    def test_weighted_momentum_vanishes_at_upper_limit(self):
        seq = [gn_norms(om)["i_omega"] for om in (0.5, 0.9, 0.999)]
        assert seq[0] > seq[1] > seq[2] > 0.0
        assert seq[2] < 1e-3

    def test_domain(self):
        with pytest.raises(DomainError):
            gn_norms(0.0)


class TestSlopes:
    def test_mtm_symmetric_point(self):
        pred = asymptotic_prediction(MTM, 0.0)
        assert pred.lambda_r == pytest.approx(np.sqrt(np.pi), abs=1e-12)
        assert pred.lambda_i == pytest.approx(np.sqrt(np.pi), abs=1e-12)
        assert pred.alpha is None and pred.beta is None

    @pytest.mark.parametrize("omega,lam_r,lam_i", [
        (-0.5, 2.836546823301305, 1.9046256137279147),
        (0.5, 1.0114341008638985, 1.3467736870885982),
    ])
    def test_mtm_frozen_values(self, omega, lam_r, lam_i):
        pred = asymptotic_prediction(MTM, omega)
        assert pred.lambda_r == pytest.approx(lam_r, rel=1e-12)
        assert pred.lambda_i == pytest.approx(lam_i, rel=1e-12)

    @pytest.mark.parametrize("omega,lam_r,lam_i", [
        (1.0 / 3.0, 0.9428090415820634, 0.6820175160387612),
        (2.0 / 3.0, 0.7453559924999299, 0.4749133922736557),
    ])
    def test_gn_frozen_values(self, omega, lam_r, lam_i):
        pred = asymptotic_prediction(GN, omega, with_corrections=False)
        assert pred.lambda_r == pytest.approx(lam_r, rel=1e-12)
        assert pred.lambda_i == pytest.approx(lam_i, rel=1e-12)

    @pytest.mark.parametrize("omega", [-0.7, -0.2, 0.3, 0.8])
    def test_mtm_slope_norm_identities(self, omega):
        # the slope quotients close against the integral table:
        #   lambda_r^2 * momentum_like = 2 * norm_sq_du
        #   lambda_i^2 = sqrt(1 - omega^2) * norm_sq_u
        pred = asymptotic_prediction(MTM, omega)
        n = mtm_norms(omega)
        assert pred.lambda_r**2 * n["momentum_like"] == pytest.approx(
            2.0 * n["norm_sq_du"], rel=1e-9)
        assert pred.lambda_i**2 == pytest.approx(
            np.sqrt(1.0 - omega**2) * n["norm_sq_u"], rel=1e-9)

    @pytest.mark.parametrize("omega", [0.2, 0.5, 0.8])
    def test_gn_slope_norm_identities(self, omega):
        pred = asymptotic_prediction(GN, omega, with_corrections=False)
        n = gn_norms(omega)
        assert pred.lambda_r == pytest.approx(np.sqrt(1 - omega**2), rel=1e-12)
        assert pred.lambda_i**2 * (1.0 + n["i_omega"]) == pytest.approx(
            n["i_omega"], rel=1e-9)

    def test_gn_slopes_vanish_at_upper_limit(self):
        pred = asymptotic_prediction(GN, 0.999, with_corrections=False)
        assert 0.0 < pred.lambda_r < 0.05
        assert 0.0 < pred.lambda_i < 0.05

    def test_accepts_model_string(self):
        pred = asymptotic_prediction("mtm", 0.0)
        assert pred.model is MTM


# nonzero entries of the pairing tables at omega = 0.5, frozen from the
# adaptive-quadrature pipeline; everything not listed must vanish
MTM_TABLE_05 = {
    "I(v_g,v_g)": 4.188790204786391,
    "I(v_t,v_t)": 1.7718861408452338,
    "I(vg_tilde,vg_tilde)": 3.1478539348093544,
    "I(vt_tilde,vt_tilde)": 2.0679803225644933,
    "S(v_g,vg_tilde)": 2.309401076829518j,
    "S(vg_tilde,v_g)": -2.309401076829518j,
    "S(v_t,vt_tilde)": -1.7320508075688772j,
    "S(vt_tilde,v_t)": 1.7320508075688772j,
}
GN_TABLE_05 = {
    "I(v_g,v_g)": 3.4641016151377544,
    "I(v_g,vt_check)": 1.3169578969248164j,
    "I(v_t,v_t)": 0.8660254037844384,
    "I(vg_check,vg_check)": 3.4641016151377544,
    "I(vg_tilde,vg_tilde)": 7.300285500113777,
    "I(vt_check,v_g)": -1.3169578969248164j,
    "I(vt_check,vt_check)": 0.8660254037844386,
    "I(vt_tilde,vt_tilde)": 2.316400362190297,
    "P(v_g,vg_check)": -3.4641016151377544,
    "P(vg_check,v_g)": -3.4641016151377544,
    "P(v_t,vt_check)": -0.45093249314037803,
    "P(vt_check,v_t)": -0.45093249314037803,
    "P(vg_check,vt_check)": -1.3169578969248164j,
    "P(vt_check,vg_check)": 1.3169578969248164j,
    "P(vg_tilde,vt_tilde)": -1.3169578969373033j,
    "P(vt_tilde,vg_tilde)": 1.3169578969373033j,
    "S(v_g,vg_tilde)": 4.618802153577103j,
    "S(vg_tilde,v_g)": -4.618802153577103j,
    "S(v_t,vt_tilde)": -1.3169578969248166j,
    "S(vt_tilde,v_t)": 1.3169578969248166j,
    "S(vg_tilde,vt_check)": 1.154700538395923,
    "S(vt_check,vg_tilde)": 1.154700538395923,
}


class TestProjections:
    def test_mtm_table(self):
        table = projection_matrix_elements("mtm", 0.5)
        assert len(table) == 32  # 2 pairings x 4 vectors squared
        for key, ref in MTM_TABLE_05.items():
            assert table[key] == pytest.approx(ref, rel=1e-7), key
        for key, val in table.items():
            if key not in MTM_TABLE_05:
                assert abs(val) <= 1e-9, key

    def test_gn_table(self):
        table = projection_matrix_elements("gn", 0.5)
        assert len(table) == 108  # 3 pairings x 6 vectors squared
        for key, ref in GN_TABLE_05.items():
            assert table[key] == pytest.approx(ref, rel=1e-6), key
        for key, val in table.items():
            if key not in GN_TABLE_05:
                assert abs(val) <= 1e-9, key

    def test_gn_odd_pairings_vanish(self):
        table = projection_matrix_elements(GN, 0.4)
        assert abs(table["P(v_t,vt_tilde)"]) <= 1e-9
        assert abs(table["P(vt_tilde,vg_check)"]) <= 1e-9

    @pytest.mark.parametrize("model,omega", [(MTM, 0.3), (GN, 0.25)])
    def test_gauge_pairing_equals_norm_derivative(self, model, omega):
        # <v_g, S vg_tilde> = -i d/d omega int |U|^2
        table = projection_matrix_elements(model, omega)
        if model is MTM:
            d_norm = -2.0 / np.sqrt(1.0 - omega**2)
        else:
            d_norm = gn_norms(omega)["d_norm_sq_u"]
        assert table["S(v_g,vg_tilde)"] == pytest.approx(-1j * d_norm, rel=1e-7)

    def test_translation_pairing_equals_momentum(self):
        # <v_t, S vt_tilde> = -i * (frequency-weighted momentum integral)
        omega = 0.3
        table = projection_matrix_elements(MTM, omega)
        expect = -1j * mtm_norms(omega)["momentum_like"]
        assert table["S(v_t,vt_tilde)"] == pytest.approx(expect, rel=1e-7)


class TestCorrections:
    FROZEN = {
        1.0 / 3.0: (-0.469419667107065j, -0.29971847794149864j),
        0.5: (-0.3731175670672871j, -0.35038252639405265j),
        2.0 / 3.0: (-0.3168738474759017j, -0.3751729798955978j),
    }

    @pytest.mark.parametrize("omega", sorted(FROZEN))
    def test_frozen_values(self, omega):
        corr = compute_corrections(omega)
        alpha_ref, beta_ref = self.FROZEN[omega]
        assert corr["alpha"] == pytest.approx(alpha_ref, rel=1e-6)
        assert corr["beta"] == pytest.approx(beta_ref, rel=1e-6)
        # both coefficients are purely imaginary
        assert abs(corr["alpha"].real) <= 1e-9
        assert abs(corr["beta"].real) <= 1e-9

    def test_attached_to_prediction_inside_window(self):
        pred = asymptotic_prediction(GN, 0.5, with_corrections=True)
        assert pred.alpha == pytest.approx(self.FROZEN[0.5][0], rel=1e-6)
        assert pred.beta == pytest.approx(self.FROZEN[0.5][1], rel=1e-6)

    def test_skipped_outside_window(self):
        pred = asymptotic_prediction(GN, 0.97, with_corrections=True)
        assert pred.alpha is None and pred.beta is None
        pred = asymptotic_prediction(GN, 0.5, with_corrections=False)
        assert pred.alpha is None and pred.beta is None

    def test_domain(self):
        with pytest.raises(DomainError):
            compute_corrections(0.0)


class TestSecondOrderSolvability:
    def test_diagonal_vanishes(self):
        rhs = second_order_solvability(0.5)
        assert rhs.shape == (2, 2)
        assert abs(rhs[0, 0]) <= 1e-8
        assert abs(rhs[1, 1]) <= 1e-8

    def test_off_diagonal_frozen(self):
        rhs = second_order_solvability(0.5)
        assert rhs[1, 0] == pytest.approx(-0.39537482090054565j, rel=1e-6)
        assert abs(rhs[0, 1]) <= 1e-8


class TestHelpers:
    def test_quad_integral_even_exponential(self):
        mu = 0.8
        val = quad_integral(lambda x: np.exp(-mu * abs(x)) * (1.0 + 2.0j), mu)
        assert val == pytest.approx((1.0 + 2.0j) * 2.0 / mu, rel=1e-11)

    def test_quad_integral_resolves_oscillation(self):
        # about three periods per panel of width 1/mu
        val = quad_integral(lambda x: np.exp(-abs(x)) * np.cos(20.0 * x), 1.0)
        assert abs(val - 2.0 / 401.0) <= 1e-12

    def test_quad_integral_raises_when_unresolved(self):
        # about thirty periods per panel: the 40- and 80-panel rules disagree
        with pytest.raises(NumericsError):
            quad_integral(lambda x: np.exp(-abs(x)) * np.cos(200.0 * x), 1.0)

    def test_du_domega_step_insensitive(self):
        xs = np.array([-0.7, 0.0, 1.1])
        a = du_domega(MTM, 0.5, xs, step=1e-5)
        b = du_domega(MTM, 0.5, xs, step=1e-4)
        assert np.max(np.abs(a - b)) <= 1e-8

    def test_du_domega_closes_norm_derivative(self):
        omega = 0.5
        prof = SolitonProfile.create(GN, omega)

        def integrand(x):
            u = eval_profile(prof, x)
            return 2.0 * (np.conj(u) * du_domega(GN, omega, x)).real

        oracle = quad_line(integrand, prof.mu)
        assert gn_norms(omega)["d_norm_sq_u"] == pytest.approx(oracle, rel=1e-7)

    def test_kernel_vector_shapes(self):
        kv = kernel_vectors(GN, 0.5)
        assert kv.names == ("v_t", "v_g", "vt_tilde", "vg_tilde",
                            "vt_check", "vg_check")
        xs = np.array([-1.0, 0.0, np.inf])
        block = kv.vt_tilde(xs)
        assert block.shape == (4, 3)
        assert np.all(block[:, 2] == 0.0)  # decay at infinity
        kv_m = kernel_vectors(MTM, 0.5)
        assert kv_m.names == ("v_t", "v_g", "vt_tilde", "vg_tilde")
        assert kv_m.vt_check is None and kv_m.vg_check is None
