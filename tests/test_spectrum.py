"""Isolated-eigenvalue extraction, slope fits, and branch continuation."""

from types import SimpleNamespace

import numpy as np
import pytest

import diracstab.spectrum as spectrum
from diracstab.eigen import EigenSet, eigvals
from diracstab.operator import assemble, continuous_bands
from diracstab.spectrum import (
    CLASS_QUARTET,
    BranchNotFound,
    default_margin,
    isolated_eigs,
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
        def bogus(model, omega, p, grid, want_vectors=False):
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
