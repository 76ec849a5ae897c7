"""Acceptance suite: one test per shipped claim, each printing a PASS/FAIL
line with the measured quantity next to its stated tolerance.

Criteria run at desk scale; the heaviest solves are shared through the
session-scoped caches in conftest.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import free_operator, relative_residuals, symmetry_residual
from diracstab.analytics import asymptotic_prediction, gn_norms, mtm_norms
from diracstab.cheb import build_grid
from diracstab.eigen import eigvals
from diracstab.operator import assemble, continuous_bands
from diracstab.soliton import (
    ModelKind,
    SolitonProfile,
    eval_profile,
    eval_profile_derivative,
    ode_residual,
)
from diracstab.spectrum import (
    isolated_eigs,
    parity_eigvals,
    slope_fit,
    spurious_metric,
    summarize_sweep,
    track_branches,
)

MTM = ModelKind.MASSIVE_THIRRING
GN = ModelKind.GROSS_NEVEU

# published p=0 spurious-eigenvalue metrics being reproduced
MTM_METRIC_TABLE = {
    (-0.5, 100): 1.96e-1, (-0.5, 300): 1.36e-4,
    (0.0, 100): 2.57e-1, (0.0, 300): 2.18e-4,
    (0.5, 100): 1.16e-1, (0.5, 300): 7.02e-5,
}
GN_METRIC_TABLE = {
    (1.0 / 3.0, 100): 6.48e-2, (1.0 / 3.0, 300): 1.72e-2,
    (2.0 / 3.0, 100): 2.03e-3, (2.0 / 3.0, 300): 1.68e-3,
}
STATED_CEILINGS = {("mtm", 0.0, 300): 1e-3, ("gn", 2.0 / 3.0, 300): 1e-2}


def report(num: int, ok: bool, detail: str) -> None:
    # run with --capture=tee-sys to see these lines alongside the verdicts
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}",
          flush=True)


def quad_line(f, mu):
    span = 40.0 / mu
    val, _ = quad(f, -span, span, epsabs=1e-13, epsrel=1e-13, limit=600)
    return val


def test_criterion_01_closed_form_integrals_match_quadrature():
    t0 = time.perf_counter()
    worst = 0.0
    for omega in (-0.9, -0.6, -0.3, -0.1, 0.2, 0.4, 0.6, 0.85):
        prof = SolitonProfile.create(MTM, omega)
        u = lambda x: eval_profile(prof, x)
        du = lambda x: eval_profile_derivative(prof, x)
        oracle = {
            "norm_sq_u": quad_line(lambda x: abs(u(x)) ** 2, prof.mu),
            "norm_sq_du": quad_line(lambda x: abs(du(x)) ** 2, prof.mu),
            "momentum_like": quad_line(
                lambda x: omega * abs(u(x)) ** 2
                - (np.conj(u(x)) * du(x)).imag, prof.mu),
        }
        closed = mtm_norms(omega)
        for key, ref in oracle.items():
            worst = max(worst, abs(closed[key] - ref) / abs(ref))
    for omega in (0.1, 0.2, 1.0 / 3.0, 0.45, 0.55, 2.0 / 3.0, 0.8, 0.9):
        prof = SolitonProfile.create(GN, omega)
        u = lambda x: eval_profile(prof, x)
        norm_ref = quad_line(lambda x: abs(u(x)) ** 2, prof.mu)
        iw_ref, _ = quad(lambda z: (1.0 - omega**2)
                         / (1.0 + omega * np.cosh(min(z, 300.0))) ** 2,
                         0.0, np.inf, epsabs=1e-13, epsrel=1e-13, limit=600)
        closed = gn_norms(omega)
        worst = max(worst, abs(closed["norm_sq_u"] - norm_ref) / norm_ref)
        worst = max(worst, abs(closed["i_omega"] - iw_ref) / iw_ref)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    report(1, ok, f"worst rel err {worst:.2e} (tol 1e-9) over 8 omega per "
                  f"model in {elapsed:.2f}s (budget 1s)")
    assert ok


def test_criterion_02_profiles_satisfy_the_ode():
    t0 = time.perf_counter()
    xs = np.linspace(-8.0, 8.0, 50)
    worst = 0.0
    for model, omegas in ((MTM, (-0.8, -0.4, 0.0, 0.3, 0.7)),
                          (GN, (0.15, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.85))):
        for omega in omegas:
            prof = SolitonProfile.create(model, omega)
            worst = max(worst, float(np.max(ode_residual(prof, xs))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    report(2, ok, f"max ODE residual {worst:.2e} (tol 1e-10) at 50 x, "
                  f"5 omega per model in {elapsed:.2f}s (budget 1s)")
    assert ok


def test_criterion_03_mtm_slopes_within_one_percent(grid_cache):
    grid = grid_cache(200, 10.0)
    ps = [0.02, 0.04, 0.06, 0.08, 0.10]
    worst = 0.0
    budget_ok = True
    for omega in (-0.5, 0.0, 0.5):
        t0 = time.perf_counter()
        fit = slope_fit("mtm", omega, ps, grid)
        pred = asymptotic_prediction(MTM, omega)
        worst = max(worst,
                    abs(fit["lambda_r_hat"] - pred.lambda_r) / pred.lambda_r,
                    abs(fit["lambda_i_hat"] - pred.lambda_i) / pred.lambda_i)
        budget_ok = budget_ok and (time.perf_counter() - t0) < 120.0
    ok = worst <= 0.01 and budget_ok
    report(3, ok, f"worst slope deviation {worst:.2%} (tol 1%) at "
                  f"omega in {{-0.5, 0, 0.5}}, N=200")
    assert ok


def test_criterion_04_gn_slopes_within_1p5_percent(grid_cache):
    grid = grid_cache(300, 10.0)
    ps = [0.02, 0.04, 0.06, 0.08, 0.10]
    worst = 0.0
    budget_ok = True
    for omega in (1.0 / 3.0, 2.0 / 3.0):
        t0 = time.perf_counter()
        fit = slope_fit("gn", omega, ps, grid)
        pred = asymptotic_prediction(GN, omega, with_corrections=False)
        worst = max(worst,
                    abs(fit["lambda_r_hat"] - pred.lambda_r) / pred.lambda_r,
                    abs(fit["lambda_i_hat"] - pred.lambda_i) / pred.lambda_i)
        budget_ok = budget_ok and (time.perf_counter() - t0) < 180.0
    ok = worst <= 0.015 and budget_ok
    report(4, ok, f"worst slope deviation {worst:.2%} (tol 1.5%) at "
                  f"omega in {{1/3, 2/3}}, N=300")
    assert ok


def _metric_table_check(model_value, table, p0_spectra):
    # one-sided: a metric below the published value can only mean the
    # discretization did better, never a failed reproduction
    worst_ratio = 0.0
    ceiling_ok = True
    for (omega, n), reference in table.items():
        metric = spurious_metric(p0_spectra(model_value, omega, n))
        worst_ratio = max(worst_ratio, metric / reference)
        ceiling = STATED_CEILINGS.get((model_value, omega, n))
        if ceiling is not None:
            ceiling_ok = ceiling_ok and metric <= ceiling
    return worst_ratio, ceiling_ok


def test_criterion_05_mtm_accuracy_table(p0_spectra):
    t0 = time.perf_counter()
    worst_ratio, ceiling_ok = _metric_table_check("mtm", MTM_METRIC_TABLE,
                                                  p0_spectra)
    elapsed = time.perf_counter() - t0
    ok = worst_ratio <= 10.0 and ceiling_ok and elapsed < 300.0
    report(5, ok, f"metric/published ratio within {worst_ratio:.2f}x "
                  f"(tol 10x) over 6 cells in {elapsed:.1f}s (budget 300s)")
    assert ok


def test_criterion_06_gn_accuracy_table(p0_spectra):
    t0 = time.perf_counter()
    worst_ratio, ceiling_ok = _metric_table_check("gn", GN_METRIC_TABLE,
                                                  p0_spectra)
    elapsed = time.perf_counter() - t0
    ok = worst_ratio <= 10.0 and ceiling_ok and elapsed < 300.0
    report(6, ok, f"metric/published ratio within {worst_ratio:.2f}x "
                  f"(tol 10x) over 4 cells in {elapsed:.1f}s (budget 300s)")
    assert ok


def test_criterion_07_kernel_multiplicity_four(p0_spectra):
    ok = True
    details = []
    for model_value, omegas in (("mtm", (-0.5, 0.0, 0.5)),
                                ("gn", (1.0 / 3.0, 2.0 / 3.0))):
        for omega in omegas:
            es = p0_spectra(model_value, omega, 300)
            bands = continuous_bands(model_value, omega, 0.0)
            in_gap = np.sort(np.abs(isolated_eigs(es, bands)))
            n_kernel = int(np.count_nonzero(in_gap <= 1e-4))
            fifth = in_gap[4] if in_gap.size > 4 else np.inf
            ok = ok and n_kernel == 4 and fifth >= 1e-3
            details.append(f"{model_value}@{omega:+.2f}:{n_kernel}")
    report(7, ok, "kernel count |lambda|<=1e-4 inside the gap "
                  f"[{', '.join(details)}] (want 4 each), no 5th below 1e-3")
    assert ok


def test_criterion_08_symmetry_residuals(p0_spectra, grid_cache):
    pairs = {
        "mtm": [(-0.5, 0.0), (-0.5, 0.3), (0.0, 0.2), (0.0, 0.7),
                (0.5, 0.1), (0.5, 0.5)],
        "gn": [(1.0 / 3.0, 0.1), (1.0 / 3.0, 0.4), (0.5, 0.2),
               (2.0 / 3.0, 0.1), (2.0 / 3.0, 0.35), (2.0 / 3.0, 0.8)],
    }
    worst = 0.0
    for model_value, combos in pairs.items():
        n = 140 if model_value == "mtm" else 160
        grid = grid_cache(n, 10.0)
        for omega, p in combos:
            op = assemble(model_value, omega, p, grid)
            es = parity_eigvals(op)
            worst = max(worst, symmetry_residual(es, model_value))
    ok = worst <= 1e-8
    report(8, ok, f"worst reflection residual {worst:.2e} (tol 1e-8) "
                  f"over 6 (omega, p) pairs per model")
    assert ok


def test_criterion_09_zero_potential_bands(grid_cache):
    grid = grid_cache(200, 10.0)
    worst_dist = 0.0
    worst_edge = 0.0
    for model_value, omega, ps in (("mtm", 0.5, (0.0, 0.3)),
                                   ("gn", 2.0 / 3.0, (0.0, 0.4))):
        for p in ps:
            op = free_operator(model_value, omega, p, grid)
            es = parity_eigvals(op)
            bands = continuous_bands(model_value, omega, p)
            worst_dist = max(worst_dist, float(np.max(bands.distance(es.values))))
            for edge, _ in bands.band_edges:
                gap = float(np.min(np.abs(es.values - 1j * edge)))
                worst_edge = max(worst_edge, gap)
    ok = worst_dist <= 1e-8 and worst_edge <= 1e-10
    report(9, ok, f"free-operator spectrum off-band by {worst_dist:.2e} "
                  f"(tol 1e-8); band-edge eigenvalue mismatch {worst_edge:.2e} "
                  f"(tol 1e-10)")
    assert ok


def test_criterion_10_sweep_narratives(grid_cache):
    ps_mtm = np.union1d(np.arange(0.05, 1.0001, 0.05),
                        np.arange(0.31, 0.3901, 0.01))
    branches = track_branches("mtm", 0.0, ps_mtm, grid_cache(120, 10.0),
                              jobs=4)
    s_mtm = summarize_sweep(branches, "mtm", 0.0, ps_mtm)
    window = s_mtm["quartet_window"]
    mtm_ok = (window is not None and window[0] <= 0.36 <= window[1]
              and s_mtm["gap_closes_at"] == pytest.approx(1.0)
              and s_mtm["gap_closed_in_range"])

    ps_gn = np.arange(0.05, 1.0001, 0.05)
    branches = track_branches("gn", 2.0 / 3.0, ps_gn, grid_cache(160, 10.0),
                              jobs=4)
    s_gn = summarize_sweep(branches, "gn", 2.0 / 3.0, ps_gn)
    gn_ok = (s_gn["instability_threshold"] is not None
             and not s_gn["real_pair_present_at_final_p"])

    ok = mtm_ok and gn_ok
    report(10, ok, f"mtm quartet window {window} contains 0.36 and gap "
                   f"closes at p=1; gn threshold "
                   f"{s_gn['instability_threshold']} with real branch "
                   f"absent at p=1")
    assert ok


def test_criterion_11_eigensolver_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_res = worst_trace = worst_det = worst_sim = worst_scale = 0.0
    for dim in (8, 24, 48, 64):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        values, vectors = np.linalg.eig(a)
        worst_res = max(worst_res, float(np.max(
            relative_residuals(a, values, vectors))))
        es = eigvals(a)
        worst_trace = max(worst_trace,
                          abs(np.sum(es.values) - np.trace(a)) / abs(np.trace(a)))
        sign, logabs = np.linalg.slogdet(a)
        det = sign * np.exp(logabs)
        worst_det = max(worst_det, abs(np.prod(es.values) - det) / abs(det))
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                            + 1j * rng.standard_normal((dim, dim)))
        sim = eigvals(q @ a @ q.conj().T).values
        d = np.abs(es.values.reshape(-1, 1) - sim.reshape(1, -1))
        worst_sim = max(worst_sim, float(max(d.min(axis=0).max(),
                                             d.min(axis=1).max())))
        scaled = eigvals(2.5 * a).values
        worst_scale = max(worst_scale,
                          float(np.max(np.abs(scaled - 2.5 * es.values))))
    elapsed = time.perf_counter() - t0
    ok = (worst_res <= 1e-10 and worst_trace <= 1e-10 and worst_det <= 1e-9
          and worst_sim <= 1e-8 and worst_scale <= 1e-9 and elapsed < 10.0)
    report(11, ok, f"LAPACK at dims {{8,24,48,64}}: residual "
                   f"{worst_res:.1e}, trace {worst_trace:.1e}, det "
                   f"{worst_det:.1e}, similarity {worst_sim:.1e}, scaling "
                   f"{worst_scale:.1e} in {elapsed:.1f}s (budget 10s)")
    assert ok
