"""Isolated-eigenvalue extraction, slope fits, and branch continuation."""

from types import SimpleNamespace

import os

import numpy as np
import pytest

import diracstab.eigen as eigen_module
import diracstab.spectrum as spectrum
from diracstab.eigen import (EigenSet, blas_threads, eigvals,
                             inverse_iteration)
from diracstab.operator import assemble, continuous_bands
from diracstab.spectrum import (
    CLASS_QUARTET,
    CLASS_REAL,
    BranchNotFound,
    BranchPoint,
    TrackedBranch,
    default_margin,
    isolated_eigs,
    parity_eigvals,
    slope_fit,
    spurious_metric,
    summarize_sweep,
    track_branches,
)


class TestSpuriousMetric:
    def test_cutoff_filters_far_field(self):
        vals = np.array([2e-3 + 1j, 0.5 + 15j])
        assert spurious_metric(vals) == pytest.approx(2e-3)
        assert spurious_metric(vals, im_cutoff=20.0) == pytest.approx(0.5)

    def test_accepts_eigenset_like(self):
        holder = SimpleNamespace(values=np.array([1e-4 + 0.2j]))
        assert spurious_metric(holder) == pytest.approx(1e-4)

    def test_everything_above_cutoff(self):
        with pytest.raises(ValueError):
            spurious_metric(np.array([12j, -12j]), im_cutoff=10.0)


class TestIsolation:
    def test_default_margin_tracks_gap(self):
        assert default_margin(continuous_bands("mtm", 0.0, 0.0)) == pytest.approx(0.1)
        assert default_margin(continuous_bands("mtm", 0.0, 1.0)) == pytest.approx(1e-3)

    def test_free_operator_has_no_isolated_eigenvalues(self, grid_cache):
        op = assemble("mtm", 0.5, 0.3, grid_cache(80, 10.0),
                      zero_potential=True)
        es = eigvals(op.matrix_a)
        iso = isolated_eigs(es, continuous_bands("mtm", 0.5, 0.3))
        assert iso.size == 0

    def test_mtm_isolated_pairs_at_small_p(self, grid_cache):
        # frozen from a converged run: one real pair, one imaginary pair
        op = assemble("mtm", 0.0, 0.2, grid_cache(200, 10.0))
        es = eigvals(op.matrix_a)
        iso = isolated_eigs(es, continuous_bands("mtm", 0.0, 0.2))
        for target in (0.34615373, -0.34615373, 0.36582879j, -0.36582879j):
            assert np.min(np.abs(iso - target)) <= 1e-6

    def test_gn_isolated_pairs_at_small_p(self, grid_cache):
        op = assemble("gn", 2.0 / 3.0, 0.1, grid_cache(300, 10.0))
        es = eigvals(op.matrix_a)
        iso = isolated_eigs(es, continuous_bands("gn", 2.0 / 3.0, 0.1))
        for target in (0.07350171, -0.07350171, 0.04768846j, -0.04768846j):
            assert np.min(np.abs(iso - target)) <= 1e-6

    def test_gn_interior_point_pair_inside_gap(self, p0_spectra):
        # at omega = 1/3 an extra imaginary pair sits 0.0475 from the band
        # edge: visible with a tightened margin, filtered at the default
        es = p0_spectra("gn", 1.0 / 3.0, 300)
        bands = continuous_bands("gn", 1.0 / 3.0, 0.0)
        tight = isolated_eigs(es, bands, margin=0.02)
        pair = tight[(np.abs(tight.real) < 1e-3)
                     & (np.abs(tight.imag) > 0.55)
                     & (np.abs(tight.imag) < 0.67)]
        assert pair.size == 2
        assert np.min(np.abs(pair - 0.61923j)) <= 1e-3
        assert np.min(np.abs(pair + 0.61923j)) <= 1e-3
        loose = isolated_eigs(es, bands)
        assert np.count_nonzero((np.abs(loose.imag) > 0.55)
                                & (np.abs(loose.imag) < 0.67)) == 0

    def test_gn_no_interior_pair_at_higher_frequency(self, p0_spectra):
        es = p0_spectra("gn", 2.0 / 3.0, 300)
        bands = continuous_bands("gn", 2.0 / 3.0, 0.0)
        iso = isolated_eigs(es, bands, margin=0.02)
        window = (np.abs(iso.imag) > 0.05) & (np.abs(iso.imag) < 0.33)
        assert np.count_nonzero(window) == 0


class TestParitySolve:
    def test_isolated_values_match_full_solve(self, grid_cache):
        # an independent check of the reduced solve: the direct solve of
        # the whole 4(N+1) matrix finds the same isolated eigenvalues
        op = assemble("gn", 2.0 / 3.0, 0.3, grid_cache(160, 10.0))
        bands = continuous_bands("gn", 2.0 / 3.0, 0.3)
        reduced = parity_eigvals(op)
        assert reduced.backend == "lapack-parity"
        assert reduced.values.size == op.dim
        iso = isolated_eigs(reduced, bands)
        full = isolated_eigs(eigvals(op.matrix_a), bands)
        assert iso.size == full.size == 4
        # matched, not sorted: the parity solve gives exact zeros where the
        # full solve gives +-1e-15, and a lexicographic sort splits on those
        gaps = np.abs(iso[:, None] - full[None, :])
        assert max(gaps.min(axis=0).max(), gaps.min(axis=1).max()) <= 1e-10

    def test_half_dimension_vectors_match_full_inverse_iteration(
            self, grid_cache):
        op = assemble("gn", 2.0 / 3.0, 0.3, grid_cache(160, 10.0))
        bands = continuous_bands("gn", 2.0 / 3.0, 0.3)
        es, solves = spectrum._parity_solve(op)
        iso = isolated_eigs(es, bands)
        assert iso.size == 4
        assert np.all(np.abs(iso) > spectrum._NEAR_ORIGIN_RADIUS)
        half = spectrum._isolated_vectors(op, solves, iso)
        full = inverse_iteration(op.matrix_a, iso)
        assert np.max(half.residuals) <= 1e-12
        for u, v in zip(half.vectors.T, full.vectors.T):
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-14)
            assert abs(np.vdot(u, v)) >= 1.0 - 1e-10

    def test_near_origin_values_use_the_full_matrix(self, grid_cache):
        # the kernel cluster at p = 0 sits inside the near-origin radius
        op = assemble("gn", 2.0 / 3.0, 0.0, grid_cache(60, 10.0))
        es, solves = spectrum._parity_solve(op)
        near = es.values[np.abs(es.values) <= spectrum._NEAR_ORIGIN_RADIUS]
        assert near.size > 0
        half = spectrum._isolated_vectors(op, solves, near)
        full = inverse_iteration(op.matrix_a, near)
        assert np.array_equal(half.vectors, full.vectors)
        assert np.array_equal(half.residuals, full.residuals)


class TestSlopeFit:
    def test_validation(self, grid_cache):
        grid = grid_cache(30, 10.0)
        with pytest.raises(ValueError):
            slope_fit("mtm", 0.0, [0.02, 0.04], grid)
        with pytest.raises(ValueError):
            slope_fit("mtm", 0.0, [0.05, 0.1, 0.2], grid)
        with pytest.raises(ValueError):
            slope_fit("mtm", 0.0, [0.0, 0.05, 0.1], grid)

    def test_branch_not_found_names_wavenumber(self, grid_cache, monkeypatch):
        def bogus(model, omega, p, grid):
            return EigenSet(values=np.array([10.0 + 10.0j]))

        monkeypatch.setattr(spectrum, "_solve_values", bogus)
        with pytest.raises(BranchNotFound, match="p=0.02"):
            slope_fit("mtm", 0.0, [0.02, 0.03, 0.04], grid_cache(30, 10.0))


@pytest.fixture(scope="module")
def mtm_sweep(grid_cache):
    ps = np.arange(0.25, 0.451, 0.025)
    grid = grid_cache(120, 10.0)
    branches = track_branches("mtm", 0.0, ps, grid, jobs=2)
    return ps, branches


class TestTracking:
    def test_grid_validation(self, grid_cache):
        grid = grid_cache(30, 10.0)
        with pytest.raises(ValueError):
            track_branches("mtm", 0.0, [0.1], grid)
        with pytest.raises(ValueError):
            track_branches("mtm", 0.0, [0.2, 0.1], grid)
        with pytest.raises(ValueError):
            track_branches("mtm", 0.0, [0.0, 0.1], grid)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_rejects_fewer_than_one_job(self, grid_cache, jobs):
        with pytest.raises(ValueError, match="jobs"):
            track_branches("mtm", 0.0, [0.1, 0.2], grid_cache(30, 10.0),
                           jobs=jobs)

    def test_sweep_solves_values_only(self, grid_cache, monkeypatch):
        asked = []
        solve = spectrum.eigvals

        def recording(matrix, want_vectors=False):
            asked.append(want_vectors)
            return solve(matrix, want_vectors=want_vectors)

        monkeypatch.setattr(spectrum, "eigvals", recording)
        branches = track_branches("mtm", 0.0, [0.2, 0.25, 0.3],
                                  grid_cache(60, 10.0), jobs=2)
        # one solve per component block at each of the three points
        assert asked == [False] * 6
        worst = max(pt.residual for br in branches for pt in br.points)
        assert worst <= 1e-8

    def test_pool_caps_blas_threads(self, grid_cache, monkeypatch):
        before = blas_threads()
        if before is None:
            pytest.skip("no OpenBLAS library is loaded")
        try:
            cores = len(os.sched_getaffinity(0))
        except AttributeError:
            cores = os.cpu_count()
        seen = []
        solve = spectrum.eigvals

        def recording(matrix, want_vectors=False):
            seen.append(blas_threads())
            return solve(matrix, want_vectors=want_vectors)

        monkeypatch.setattr(spectrum, "eigvals", recording)
        track_branches("mtm", 0.0, [0.2, 0.25], grid_cache(30, 10.0), jobs=2)
        assert len(seen) == 4
        assert max(seen) <= max(1, cores // 2)
        assert blas_threads() == before

    def test_serial_sweep_runs_one_blas_thread(self, grid_cache, monkeypatch):
        before = blas_threads()
        if before is None:
            pytest.skip("no OpenBLAS library is loaded")
        seen = []
        solve = spectrum.eigvals

        def recording(matrix, want_vectors=False):
            seen.append(blas_threads())
            return solve(matrix, want_vectors=want_vectors)

        monkeypatch.setattr(spectrum, "eigvals", recording)
        track_branches("gn", 2.0 / 3.0, [0.2, 0.25], grid_cache(30, 10.0),
                       jobs=1)
        assert seen == [1, 1]
        assert blas_threads() == before

    @pytest.mark.parametrize("model,omega,block", [("mtm", 0.0, 61),
                                                   ("gn", 2.0 / 3.0, 122)])
    def test_sweep_factors_no_full_matrix(self, grid_cache, monkeypatch,
                                          model, omega, block):
        factored = []
        factor = eigen_module.lu_factor

        def recording(matrix, **kwargs):
            factored.append(matrix.shape)
            return factor(matrix, **kwargs)

        monkeypatch.setattr(eigen_module, "lu_factor", recording)
        branches = track_branches(model, omega, [0.2, 0.25, 0.3],
                                  grid_cache(60, 10.0), jobs=2)
        # a +-pair shares one factorization
        assert factored and set(factored) == {(block, block)}
        assert len(factored) < sum(len(br.points) for br in branches)

    def test_quartet_transition_recorded(self, mtm_sweep):
        _, branches = mtm_sweep
        assert len(branches) >= 4
        labels = [label for br in branches for _, label in br.events]
        assert any("imaginary_pair -> complex_quartet" in s for s in labels)
        classes = {pt.classification for br in branches for pt in br.points}
        assert CLASS_QUARTET in classes

    def test_residuals_small(self, mtm_sweep):
        _, branches = mtm_sweep
        worst = max(pt.residual for br in branches for pt in br.points)
        assert worst <= 1e-8

    def test_tracked_points_closed_under_reflections(self, mtm_sweep):
        # at every wavenumber the tracked set must contain the conjugate,
        # negated, and negated-conjugate image of each point
        _, branches = mtm_sweep
        by_p = {}
        for br in branches:
            for pt in br.points:
                by_p.setdefault(pt.p, []).append(pt.lam)
        for p, lams in by_p.items():
            arr = np.array(lams)
            for mapped in (np.conj(arr), -arr, -np.conj(arr)):
                for lam in mapped:
                    assert np.min(np.abs(arr - lam)) <= 1e-6, p

    def test_summary_facts(self, mtm_sweep):
        ps, branches = mtm_sweep
        summary = summarize_sweep(branches, "mtm", 0.0, ps)
        assert summary["model"] == "mtm"
        assert summary["p_final"] == pytest.approx(0.45)
        assert summary["quartet_window"][0] <= 0.36 <= summary["quartet_window"][1]
        assert summary["max_growth_rate"] > 0.0
        assert summary["max_growth_p"] is not None
        assert summary["gap_closes_at"] == pytest.approx(1.0)
        assert summary["gap_closed_in_range"] is False
        for ev in summary["events"]:
            assert set(ev) == {"branch_id", "p", "label"}

    def test_final_p_matched_within_roundoff(self):
        # tracked on np.arange, whose last point is 0.35000000000000003,
        # and summarized on the parsed range, whose last point is 0.35
        tracked = np.arange(0.05, 0.3501, 0.05)
        assert tracked[-1] != 0.35
        branch = TrackedBranch(branch_id=0, points=[
            BranchPoint(float(p), complex(0.1 * p), 0.0, CLASS_REAL)
            for p in tracked])
        summary = summarize_sweep([branch], "gn", 2.0 / 3.0,
                                  [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35])
        assert summary["real_pair_present_at_final_p"] is True
        assert summary["instability_threshold"] is None

    def test_growth_rate_decreases_with_frequency(self, grid_cache):
        # at fixed small p the unstable growth rate is larger for the
        # lower-frequency soliton
        grid = grid_cache(120, 10.0)
        rates = {}
        for omega in (-0.5, 0.5):
            op = assemble("mtm", omega, 0.2, grid)
            es = eigvals(op.matrix_a)
            iso = isolated_eigs(es, continuous_bands("mtm", omega, 0.2))
            rates[omega] = float(iso.real.max())
        assert rates[-0.5] > 2.0 * rates[0.5]
