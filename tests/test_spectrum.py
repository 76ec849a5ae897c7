"""Isolated-eigenvalue extraction, slope fits, and branch continuation."""

import errno
import logging
import os
import signal
import time
from types import SimpleNamespace

import numpy as np
import pytest

import diracstab.pool as pool
import diracstab.spectrum as spectrum
from conftest import (blas_threads, conjugate_classes, free_operator,
                      lifted_residuals, lifted_vectors,
                      pthreads_blas_threads, stability_matrix, thread_ids)
from diracstab.cheb import build_grid
from diracstab.eigen import EigenSet, eigvals, inverse_vectors
from diracstab.operator import assemble, continuous_bands, parity_products
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


def near_origin(roots):
    """Which roots lie within the refinement's near-origin radius."""
    return np.abs(roots) <= spectrum._NEAR_ORIGIN_RADIUS


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

    @pytest.mark.parametrize("margin", [np.nan, np.inf, -np.inf, -1.0])
    def test_rejects_invalid_margin(self, margin):
        bands = continuous_bands("mtm", 0.0, 0.2)
        with pytest.raises(ValueError, match="margin must be finite"):
            isolated_eigs(np.array([0.3 + 0.0j]), bands, margin)

    def test_free_operator_has_no_isolated_eigenvalues(self, grid_cache):
        op = free_operator("mtm", 0.5, 0.3, grid_cache(80, 10.0))
        es = eigvals(stability_matrix(op))
        iso = isolated_eigs(es, continuous_bands("mtm", 0.5, 0.3))
        assert iso.size == 0

    def test_mtm_isolated_pairs_at_small_p(self, grid_cache):
        # frozen from a converged run: one real pair, one imaginary pair
        op = assemble("mtm", 0.0, 0.2, grid_cache(200, 10.0))
        es = eigvals(stability_matrix(op))
        iso = isolated_eigs(es, continuous_bands("mtm", 0.0, 0.2))
        for target in (0.34615373, -0.34615373, 0.36582879j, -0.36582879j):
            assert np.min(np.abs(iso - target)) <= 1e-6

    def test_gn_isolated_pairs_at_small_p(self, grid_cache):
        op = assemble("gn", 2.0 / 3.0, 0.1, grid_cache(300, 10.0))
        es = eigvals(stability_matrix(op))
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
        full = isolated_eigs(eigvals(stability_matrix(op)), bands)
        assert iso.size == full.size == 4
        # matched, not sorted: the parity solve gives exact zeros where the
        # full solve gives +-1e-15, and a lexicographic sort splits on those
        gaps = np.abs(iso[:, None] - full[None, :])
        assert max(gaps.min(axis=0).max(), gaps.min(axis=1).max()) <= 1e-10

    def test_half_dimension_vectors_match_full_inverse_iteration(
            self, grid_cache):
        op = assemble("gn", 2.0 / 3.0, 0.3, grid_cache(160, 10.0))
        bands = continuous_bands("gn", 2.0 / 3.0, 0.3)
        solves = spectrum._parity_solve(op)
        kept = spectrum._classes(solves, bands, default_margin(bands),
                                 2.0 / 3.0)
        iso, _, residuals = spectrum._refined_values(solves, solves, kept)
        assert iso.size == 4
        assert np.all(np.abs(iso) > spectrum._NEAR_ORIGIN_RADIUS)
        assert np.max(residuals) <= 1e-12
        # two steps of inverse iteration on the 4(N+1)-square A
        a = stability_matrix(op)
        full = inverse_vectors(a, iso, inverse_vectors(a, iso))
        values, _, vectors = lifted_vectors(op, solves, kept)
        np.testing.assert_array_equal(values, iso)
        for u, w in zip(vectors.T, full.T):
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-14)
            assert abs(np.vdot(u, w)) >= 1.0 - 1e-10

    def test_parity_residuals_equal_full_matrix_residuals(self, grid_cache):
        op = assemble("gn", 2.0 / 3.0, 0.3, grid_cache(160, 10.0))
        bands = continuous_bands("gn", 2.0 / 3.0, 0.3)
        solves = spectrum._parity_solve(op)
        kept = spectrum._classes(solves, bands, default_margin(bands),
                                 2.0 / 3.0)
        iso, _, half = spectrum._refined_values(solves, solves, kept)
        assert iso.size == 4 and np.max(half) <= 1e-12
        values, oracle = lifted_residuals(op, solves, kept)
        np.testing.assert_array_equal(values, iso)
        np.testing.assert_allclose(oracle, half, rtol=0, atol=1e-14)

    def test_full_point_refines_a_quartet_with_two_solves(
            self, grid_cache, shifted_matrices):
        # the full route refines as the two-grid route does, with the fine
        # grid as its own coarse one: a conjugate class of mu = lambda**2
        # takes one shifted solve of B C from the fixed start and one from
        # that iterate, and its four values share the residual
        fine, _ = spectrum._sweep_levels("mtm", 0.5, grid_cache(20, 10.0))
        iso, residuals, route = spectrum._solve_isolated(
            "mtm", 0.5, fine, None, 0.3, 0.3)
        assert route == "coarse grid below the floor"
        mus = iso ** 2
        assert iso.size == 4 and np.all(iso.real != 0.0)
        assert np.unique(np.where(mus.imag < 0.0, mus.conj(), mus)).size == 1
        assert [(m.shape, m.dtype, m.solves) for m in shifted_matrices] == \
            [((21, 21), np.complex128, 1)] * 2
        assert np.all(residuals == residuals[0]) and residuals[0] <= 1e-13

    def test_near_origin_values_use_their_pair_matrix(self, grid_cache,
                                                      shifted_matrices):
        # the kernel cluster at p = 0 sits inside the near-origin radius
        op = assemble("gn", 2.0 / 3.0, 0.0, grid_cache(60, 10.0))
        solves = spectrum._parity_solve(op)
        kept = conjugate_classes(solves, near_origin)
        near, _, half = spectrum._refined_values(solves, solves, kept)
        assert near.size > sum(mu.size for mu in kept) > 0
        # two one-step shifted M = [[0, B], [C, 0]] per conjugate class,
        # not per value, at 2(N+1) where the blocks split, in place of the
        # 4(N+1)-square A
        assert [m.shape for m in shifted_matrices] == \
            [(122, 122)] * (2 * sum(mu.size for mu in kept))
        assert np.max(half) <= 1e-12
        values, oracle = lifted_residuals(op, solves, kept)
        np.testing.assert_array_equal(values, near)
        np.testing.assert_allclose(oracle, half, rtol=0, atol=1e-14)

    def test_near_origin_solves_are_real_and_half_size(self, grid_cache,
                                                       shifted_matrices):
        # a benchmark sweep input with a real near-origin pair; its
        # complex quartets shift the (N+1)-square B C by a complex mu
        n = 22
        # no coarse grid: the full solve, as below the floor
        fine, _ = spectrum._sweep_levels("mtm", 0.25, grid_cache(n, 10.0))
        iso, residuals, route = spectrum._solve_isolated(
            "mtm", 0.25, fine, None, None, 0.95)
        assert route == "coarse grid below the floor"
        near = iso[np.abs(iso) <= spectrum._NEAR_ORIGIN_RADIUS]
        assert near.size == 2 and np.all(near.imag == 0.0)
        assert max(m.shape[0] for m in shifted_matrices) <= 2 * (n + 1)
        # two one-step real shifted M of order 2(N+1) for the near-origin
        # class, shared by its two values, in place of the complex
        # 4(N+1)-square A
        pair_solves = [m for m in shifted_matrices
                       if m.shape[0] == 2 * (n + 1)]
        assert len(pair_solves) == 2
        assert all(m.dtype == np.float64 for m in pair_solves)
        assert np.max(residuals) <= 1e-13

    @pytest.mark.parametrize("model,omega,n,p", [("gn", 2.0 / 3.0, 60, 0.0),
                                                 ("mtm", 0.25, 22, 0.95)])
    def test_near_origin_members_share_their_class_residual(
            self, grid_cache, model, omega, n, p):
        # the p = 0 kernel cluster, and the benchmark's near-origin point:
        # one vector per class, mirrored to every member, so that the
        # members' residuals are equal bit for bit
        op = assemble(model, omega, p, grid_cache(n, 10.0))
        solves = spectrum._parity_solve(op)
        kept = conjugate_classes(solves, near_origin)
        near, _, half = spectrum._refined_values(solves, solves, kept)
        squares = near ** 2
        keys = np.where(squares.imag < 0.0, squares.conj(), squares)
        sizes = []
        for key in np.unique(keys):
            shared = half[keys == key]
            sizes.append(shared.size)
            assert np.all(shared.view(np.int64) == shared[:1].view(np.int64))
        assert sum(sizes) == near.size and set(sizes) <= {2, 4}
        assert len(sizes) == sum(mu.size for mu in kept) > 0
        values, oracle = lifted_residuals(op, solves, kept)
        np.testing.assert_array_equal(values, near)
        np.testing.assert_allclose(oracle, half, rtol=0, atol=1e-14)

    def test_unsplit_near_origin_residuals_match_the_oracle(self,
                                                            grid_cache):
        # gn at p > 0: one 2(N+1)-square block pair, M of order 4(N+1)
        op = assemble("gn", 2.0 / 3.0, 0.003, grid_cache(100, 10.0))
        solves = spectrum._parity_solve(op)
        assert len(solves) == 1
        kept = conjugate_classes(solves, near_origin)
        near, _, half = spectrum._refined_values(solves, solves, kept)
        assert near.size > 0
        assert np.max(half) <= 1e-12
        values, oracle = lifted_residuals(op, solves, kept)
        np.testing.assert_array_equal(values, near)
        np.testing.assert_allclose(oracle, half, rtol=0, atol=1e-14)


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
        def bogus(op):
            return EigenSet(values=np.array([10.0 + 10.0j]))

        monkeypatch.setattr(spectrum, "parity_eigvals", bogus)
        with pytest.raises(BranchNotFound, match="p=0.02"):
            slope_fit("mtm", 0.0, [0.02, 0.03, 0.04], grid_cache(30, 10.0))


class TwoPartError(Exception):
    """An exception that pickles but does not unpickle: its args hold the
    joined message, where __init__ takes its two parts."""

    def __init__(self, head, tail):
        super().__init__(head + tail)


def started_workers(monkeypatch, file_record):
    """The pid of each pool worker that starts while the test runs, one
    entry per start; the workers are forked processes, so they record
    through a FileRecord."""
    workers = file_record("workers")
    loop = pool._worker_loop

    def recording(*args):
        workers.append(os.getpid())
        loop(*args)

    monkeypatch.setattr(pool, "_worker_loop", recording)
    return workers


def assert_no_children():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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

    def test_sweep_solves_values_only(self, grid_cache, monkeypatch,
                                      file_record):
        # the pool's workers are forked processes: record through a file
        asked = file_record("asked")
        solve = spectrum.eigvals

        def recording(matrix):
            es = solve(matrix)
            asked.append(es.vectors is not None)
            return es

        monkeypatch.setattr(spectrum, "eigvals", recording)
        branches = track_branches("mtm", 0.0, [0.2, 0.25, 0.3],
                                  grid_cache(60, 10.0), jobs=2)
        # one solve per component block at each of the three points
        assert list(asked) == [False] * 6
        worst = max(pt.residual for br in branches for pt in br.points)
        assert worst <= 1e-8

    def test_pool_caps_blas_threads(self, grid_cache, monkeypatch,
                                    file_record):
        before = blas_threads()
        if before is None:
            pytest.skip("no OpenBLAS library is loaded")
        try:
            cores = len(os.sched_getaffinity(0))
        except AttributeError:
            cores = os.cpu_count()
        seen = file_record("threads")
        solve = spectrum.eigvals

        def recording(matrix):
            seen.append(blas_threads())
            return solve(matrix)

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

        def recording(matrix):
            seen.append(blas_threads())
            return solve(matrix)

        monkeypatch.setattr(spectrum, "eigvals", recording)
        track_branches("gn", 2.0 / 3.0, [0.2, 0.25], grid_cache(30, 10.0),
                       jobs=1)
        assert seen == [1, 1]
        assert blas_threads() == before

    @pytest.mark.parametrize("model,omega", [("mtm", 0.0),
                                             ("gn", 2.0 / 3.0)])
    def test_sweep_writes_no_full_matrix(self, grid_cache, monkeypatch,
                                         file_record, model, omega):
        shapes = file_record("shapes")

        def recording(solve):
            def wrapped(matrix, *args, **kwargs):
                assert np.isrealobj(matrix)
                shapes.append(max(np.shape(matrix)))
                return solve(matrix, *args, **kwargs)
            return wrapped

        for name in ("eigvals", "inverse_vectors"):
            monkeypatch.setattr(spectrum, name,
                                recording(getattr(spectrum, name)))
        branches = track_branches(model, omega, [0.2, 0.25, 0.3],
                                  grid_cache(60, 10.0), jobs=2)
        assert sum(len(br.points) for br in branches) > 0
        # every matrix solved is a real block product, of order N+1 or
        # 2(N+1), never the 4(N+1)-square A
        assert shapes and max(shapes) <= 2 * 61

    @pytest.mark.parametrize("model,omega,block", [("mtm", 0.0, 61),
                                                   ("gn", 2.0 / 3.0, 122)])
    def test_sweep_factors_no_full_matrix(self, grid_cache, shifted_matrices,
                                          model, omega, block):
        branches = track_branches(model, omega, [0.2, 0.25, 0.3],
                                  grid_cache(60, 10.0), jobs=2)
        # +-lambda and their conjugates share one conjugate class of mu =
        # lambda**2, which costs two one-step shifted matrices
        shapes = {m.shape for m in shifted_matrices}
        assert shifted_matrices and shapes == {(block, block)}
        classes = 0
        for p in (0.2, 0.25, 0.3):
            mus = np.array([pt.lam for br in branches for pt in br.points
                            if pt.p == p]) ** 2
            classes += np.unique(np.where(mus.imag < 0.0, mus.conj(),
                                          mus)).size
        assert classes < sum(len(br.points) for br in branches)
        assert len(shifted_matrices) == 2 * classes
        assert all(m.solves == 1 for m in shifted_matrices)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_solving_process_builds_the_levels_once(
            self, grid_cache, monkeypatch, file_record, jobs):
        # the command's process builds no level it does not solve with
        workers = started_workers(monkeypatch, file_record)
        monkeypatch.setattr(pool, "_usable_cpus", lambda: 2)
        built = file_record("built", tuple)
        base = spectrum.parity_base

        def recording(op):
            built.append([os.getpid(), op.grid.n])
            return base(op)

        monkeypatch.setattr(spectrum, "parity_base", recording)
        track_branches("gn", 2.0 / 3.0, [0.2, 0.25, 0.3],
                       grid_cache(120, 10.0), jobs=jobs)
        # each process that solves a point builds the fine grid's level
        # and the coarse one's, once
        pids = {pid for pid, _ in built}
        assert sorted(built) == sorted((pid, n) for pid in pids
                                       for n in (60, 120))
        if jobs == 1:
            assert pids == {os.getpid()} and len(workers) == 0
        else:
            assert os.getpid() not in pids
            assert pids == set(workers) and len(workers) == 2

    def test_more_jobs_than_points(self, grid_cache, monkeypatch,
                                   file_record):
        workers = started_workers(monkeypatch, file_record)
        # more cpus than points, on any runner
        monkeypatch.setattr(pool, "_usable_cpus", lambda: 8)
        ps, grid = [0.2, 0.25], grid_cache(30, 10.0)
        pooled = track_branches("mtm", 0.0, ps, grid, jobs=8)
        # one worker process per point, not per job
        assert len(workers) == len(set(workers)) == len(ps)
        assert pooled == track_branches("mtm", 0.0, ps, grid, jobs=1)

    def test_runs_inline_without_fork(self, grid_cache, monkeypatch,
                                      file_record):
        workers = started_workers(monkeypatch, file_record)
        monkeypatch.setattr(pool, "_usable_cpus", lambda: 2)
        monkeypatch.delattr(os, "fork")
        ps, grid = [0.2, 0.25], grid_cache(30, 10.0)
        inline = track_branches("mtm", 0.0, ps, grid, jobs=2)
        assert len(workers) == 0
        assert inline == track_branches("mtm", 0.0, ps, grid, jobs=1)

    def test_map_forked_keeps_item_order(self, monkeypatch, file_record):
        workers = started_workers(monkeypatch, file_record)
        monkeypatch.setattr(pool, "_usable_cpus", lambda: 4)
        # a lambda cannot be pickled: fn reaches the workers by the fork
        ratio = lambda k: (100 // k, os.getpid())  # noqa: E731
        items = [7, 3, 9, 1, 5]
        pooled = pool.map_forked(ratio, items, 2)
        assert [q for q, _ in pooled] == [100 // k for k in items]
        assert len(set(workers)) == 2
        assert {pid for _, pid in pooled} <= set(workers)
        # one job, or one item, runs inline
        parent = [(100 // k, os.getpid()) for k in items]
        assert pool.map_forked(ratio, items, 1) == parent
        assert pool.map_forked(ratio, items[:1], 4) == parent[:1]
        assert len(workers) == 2

    def test_map_forked_caps_workers_at_usable_cpus(self, monkeypatch,
                                                    file_record):
        # a fork pool starts every worker at once: jobs=64 must not fork 64
        workers = started_workers(monkeypatch, file_record)
        monkeypatch.setattr(pool, "_usable_cpus", lambda: 2)
        pid = lambda k: (k, os.getpid())  # noqa: E731
        pooled = pool.map_forked(pid, range(5), 64)
        assert [k for k, _ in pooled] == list(range(5))
        assert len(workers) == len(set(workers)) == 2
        assert {p for _, p in pooled} <= set(workers)
        # one usable cpu runs inline
        monkeypatch.setattr(pool, "_usable_cpus", lambda: 1)
        assert pool.map_forked(pid, range(5), 64) == \
            [(k, os.getpid()) for k in range(5)]
        assert len(workers) == 2

    @pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "forked"])
    def test_map_forked_runs_items_on_one_blas_thread(self, monkeypatch,
                                                      file_record, cpus):
        before = blas_threads()
        if before is None:
            pytest.skip("no OpenBLAS library is loaded")
        monkeypatch.setattr(pool, "_usable_cpus", lambda: cpus)
        # forked workers record through a file
        seen = file_record("threads")

        def recording(k):
            seen.append([os.getpid(), blas_threads()])
            return k

        assert pool.map_forked(recording, range(4), 2) == list(range(4))
        pids, threads = zip(*seen)
        assert (os.getpid() in pids) == (cpus == 1)
        assert threads == (1,) * 4
        assert blas_threads() == before

    def test_pool_leaves_no_helper_thread(self, grid_cache, monkeypatch,
                                          file_record):
        # a fork shuts OpenBLAS's thread server down in the parent; a
        # *_set_num_threads call restarts it with a helper thread that
        # spins idle, so the cap must write the count without one
        before = thread_ids()
        if before is None:
            pytest.skip("no /proc/self/task")
        counts = blas_threads()
        if pthreads_blas_threads() < 2:
            pytest.skip("no pthreads OpenBLAS on two or more threads")
        monkeypatch.setattr(pool, "_usable_cpus", lambda: 2)
        seen = file_record("threads")

        def recording(k):
            seen.append([os.getpid(), blas_threads()])
            return k

        assert pool.map_forked(recording, range(4), 2) == list(range(4))
        assert thread_ids() <= before
        pids, threads = zip(*seen)
        assert os.getpid() not in pids
        assert threads == (1,) * 4
        assert blas_threads() == counts
        grid = grid_cache(30, 10.0)
        for jobs in (2, 1):
            before = thread_ids()
            track_branches("gn", 2.0 / 3.0, [0.2, 0.25], grid, jobs=jobs)
            assert thread_ids() <= before
            assert blas_threads() == counts

    def test_pool_leaves_no_processes(self, grid_cache, monkeypatch):
        monkeypatch.setattr(pool, "_usable_cpus", lambda: 2)
        track_branches("gn", 2.0 / 3.0, [0.2, 0.25, 0.3],
                       grid_cache(30, 10.0), jobs=2)
        assert_no_children()

        def fails(k):
            raise ValueError(f"item {k}")

        with pytest.raises(ValueError, match="item 0"):
            pool.map_forked(fails, range(4), 2)
        assert_no_children()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_worker_that_exits_fails_its_item(self, monkeypatch):
        monkeypatch.setattr(pool, "_usable_cpus", lambda: 2)

        def exits(k):
            if k == 2:
                os._exit(3)
            return k

        def hung(signum, frame):
            raise TimeoutError("the pool waits for a worker that exited")

        # the parent raises, and does not wait for a reply that never comes
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(RuntimeError,
                               match="without returning item 2"):
                pool.map_forked(exits, range(6), 2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert_no_children()

    def test_lowest_failing_item_raises(self, monkeypatch):
        monkeypatch.setattr(pool, "_usable_cpus", lambda: 2)

        def fails(k):
            if k == 1:
                # while one worker holds item 1, the other fails item 3
                time.sleep(0.5)
            if k in (1, 3):
                raise ValueError(f"item {k}")
            return k

        # the exception a loop over the items raises, on any pool
        for jobs in (1, 2):
            with pytest.raises(ValueError, match="item 1"):
                pool.map_forked(fails, range(5), jobs)
        assert_no_children()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_worker_that_fails_to_start_leaves_no_fd(self, monkeypatch):
        try:
            before = set(os.listdir("/proc/self/fd"))
        except OSError:
            pytest.skip("no /proc/self/fd")
        monkeypatch.setattr(pool, "_usable_cpus", lambda: 3)
        fork, forks = os.fork, []

        def second_fails():
            forks.append(len(forks))
            if len(forks) == 2:
                raise OSError(errno.EAGAIN, "fork refused")
            return fork()

        monkeypatch.setattr(os, "fork", second_fails)
        with pytest.raises(OSError, match="fork refused") as raised:
            pool.map_forked(lambda k: k, range(3), 3)
        assert raised.value.errno == errno.EAGAIN
        # the started worker's pipes and the failed one's are all closed
        assert set(os.listdir("/proc/self/fd")) == before
        assert_no_children()

    def test_unpicklable_result_fails_its_item(self, monkeypatch):
        monkeypatch.setattr(pool, "_usable_cpus", lambda: 2)

        class Unpicklable:
            def __reduce__(self):
                raise ValueError("unpicklable")

        def result(k):
            return Unpicklable() if k == 1 else k

        with pytest.raises(ValueError, match="unpicklable"):
            pool.map_forked(result, range(4), 2)
        assert_no_children()
        # inline, nothing is pickled
        assert isinstance(pool.map_forked(result, range(2), 1)[1],
                          Unpicklable)

    def test_result_that_does_not_unpickle_fails_its_item(self, monkeypatch):
        monkeypatch.setattr(pool, "_usable_cpus", lambda: 2)

        def result(k):
            return TwoPartError("ite", "m") if k == 1 else k

        # the parent's unpickling error, as the lowest failing item's
        with pytest.raises(RuntimeError,
                           match="^item 1 returned a result that does not "
                                 "unpickle: TypeError: "):
            pool.map_forked(result, range(4), 2)
        assert_no_children()
        # inline, nothing is pickled
        assert str(pool.map_forked(result, range(2), 1)[1]) == "item"

    @pytest.mark.parametrize("breaks", ["pickling", "unpickling"])
    def test_unpicklable_exception_keeps_its_item(self, monkeypatch, breaks):
        monkeypatch.setattr(pool, "_usable_cpus", lambda: 2)

        class LocalError(Exception):
            """A class inside a function does not pickle."""

        def error(message):
            if breaks == "pickling":
                return LocalError(message)
            return TwoPartError(message[:4], message[4:])

        def fails(k):
            if k == 1:
                # while one worker holds item 1, the other fails item 3
                time.sleep(0.5)
            if k in (1, 3):
                raise error(f"item {k} failed")
            return k

        name = type(error("")).__name__
        with pytest.raises(RuntimeError,
                           match=f"^item 1 raised {name}: item 1 failed$"):
            pool.map_forked(fails, range(5), 2)
        assert_no_children()
        # inline, nothing is pickled
        with pytest.raises(type(error("")), match="^item 1 failed$"):
            pool.map_forked(fails, range(5), 1)

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

    @pytest.mark.parametrize("points", [2, 3, 5])
    def test_match_radius_is_median_of_rates(self, points):
        # one rate for two points, two rates from the last three otherwise;
        # bit for bit the radius np.median gives
        rng = np.random.default_rng(points)
        for _ in range(200):
            ps = np.cumsum(rng.uniform(0.01, 0.1, points))
            lams = (rng.standard_normal(points)
                    + 1j * rng.standard_normal(points))
            branch = TrackedBranch(branch_id=0, points=[
                BranchPoint(float(p), complex(lam), 0.0, CLASS_REAL)
                for p, lam in zip(ps, lams)])
            tail = branch.points[-3:]
            rates = [abs(b.lam - a.lam) / (b.p - a.p)
                     for a, b in zip(tail, tail[1:])]
            step = float(rng.uniform(0.01, 0.1))
            expected = max(3.0 * float(np.median(rates)) * step, 0.05 * step)
            assert spectrum._match_radius(branch, step) == expected

    def test_growth_rate_decreases_with_frequency(self, grid_cache):
        # at fixed small p the unstable growth rate is larger for the
        # lower-frequency soliton
        grid = grid_cache(120, 10.0)
        rates = {}
        for omega in (-0.5, 0.5):
            op = assemble("mtm", omega, 0.2, grid)
            es = eigvals(stability_matrix(op))
            iso = isolated_eigs(es, continuous_bands("mtm", omega, 0.2))
            rates[omega] = float(iso.real.max())
        assert rates[-0.5] > 2.0 * rates[0.5]


# criterion 10's sweep grids
_GN_GRID = ("gn", 2.0 / 3.0, 160, np.arange(0.05, 1.0001, 0.05))
_MTM_GRID = ("mtm", 0.0, 120, np.union1d(np.arange(0.05, 1.0001, 0.05),
                                         np.arange(0.31, 0.3901, 0.01)))
# a split-pair sweep that takes the two-grid route: the mtm blocks carry
# p**2 on their diagonals, and each component pair its own transfer
_MTM_SPLIT_GRID = ("mtm", 0.5, 200, np.arange(0.1, 0.5001, 0.1))
_TWO_GRID = "two-grid"


class RouteLog:
    """The route each sweep point took while the test ran, as [p, route]
    records read from track_branches' DEBUG log: _TWO_GRID, or the guard
    that sent the point to the full solve.  The exact p comes from each
    record's arguments."""

    def __init__(self, caplog):
        self._caplog = caplog

    def records(self):
        """The route records themselves, in order."""
        return [r for r in self._caplog.records
                if r.name == spectrum.logger.name
                and r.levelno == logging.DEBUG and r.msg.startswith("p=")]

    def __iter__(self):
        return ([r.args[0], r.args[1] if len(r.args) > 1 else _TWO_GRID]
                for r in self.records())


@pytest.fixture
def routes(caplog):
    """The RouteLog of this test."""
    caplog.set_level(logging.DEBUG, logger=spectrum.logger.name)
    return RouteLog(caplog)


def refine_with(monkeypatch, change):
    """Patch the shifted solves of the two-grid route, and of it alone:
    within _refined_values calls that carry a transfer, inverse_vectors
    returns change(vectors)."""
    refining = []
    refined, vectors = spectrum._refined_values, spectrum.inverse_vectors

    def flagged(pairs, solves, kept, transfer=None):
        refining.append(transfer is not None)
        try:
            return refined(pairs, solves, kept, transfer)
        finally:
            refining.pop()

    def changed(matrix, values, *args, **kwargs):
        xs = vectors(matrix, values, *args, **kwargs)
        return change(xs) if any(refining) else xs

    monkeypatch.setattr(spectrum, "_refined_values", flagged)
    monkeypatch.setattr(spectrum, "inverse_vectors", changed)


def singular(xs):
    """A refine_with change: the shifted matrix was singular."""
    raise np.linalg.LinAlgError("Singular matrix")


class TestTwoGrid:
    """Sweep points found on the coarse grid and refined at N, against the
    full solve at N, and the guards that send a point to the full solve."""

    @pytest.mark.parametrize("model,omega,n,ps",
                             [_GN_GRID, _MTM_GRID, _MTM_SPLIT_GRID],
                             ids=["gn", "mtm", "mtm-split"])
    def test_routes_agree(self, grid_cache, monkeypatch, routes, model,
                          omega, n, ps):
        grid = grid_cache(n, 10.0)
        two = track_branches(model, omega, ps, grid, jobs=2)
        taken = dict(routes)
        # no coarse grid: N_c = 2 floor(N / 4) stays below N
        monkeypatch.setattr(spectrum, "_COARSE_FLOOR", n)
        full = track_branches(model, omega, ps, grid, jobs=2)
        assert [br.branch_id for br in two] == [br.branch_id for br in full]
        assert [br.events for br in two] == [br.events for br in full]
        for a, b in zip(two, full):
            assert ([(pt.p, pt.classification) for pt in a.points]
                    == [(pt.p, pt.classification) for pt in b.points])
            for x, y in zip(a.points, b.points):
                assert abs(x.lam - y.lam) <= 1e-10
                assert x.residual <= 1e-8
                # a real mu refines in real arithmetic: exact axis pairs
                if x.classification == CLASS_REAL:
                    assert x.lam.imag == 0.0
                elif x.classification == spectrum.CLASS_IMAG:
                    assert x.lam.real == 0.0
        if model == "gn":
            # the coarse grid resolves every gn value to the drift tolerance
            assert taken == {float(p): _TWO_GRID for p in ps[1:]} | {
                float(ps[0]): "first point"}
        if (model, omega, n) == _MTM_SPLIT_GRID[:3]:
            # a real pair in one component pair, a quartet in the other
            assert [taken[p] for p in ps] == [
                "first point", _TWO_GRID, _TWO_GRID, _TWO_GRID,
                "refined value drifts"]

    @pytest.mark.parametrize("model,omega,n,p,classes", [
        ("gn", 2.0 / 3.0, 160, 0.3, {(322, 322): 2, (162, 162): 2}),
        ("mtm", 0.5, 200, 0.3, {(201, 201): 2, (101, 101): 2}),
    ], ids=["gn", "mtm"])
    def test_one_coarse_and_one_fine_solve_per_class(
            self, grid_cache, shifted_matrices, model, omega, n, p, classes):
        grid = grid_cache(n, 10.0)
        fine, coarse = spectrum._sweep_levels(model, omega, grid)
        lams, _, route = spectrum._solve_isolated(model, omega, fine, coarse,
                                                  None, p)
        assert route == _TWO_GRID
        # a conjugate class of mu = lambda**2: +-lambda and their conjugates
        mus = lams ** 2
        assert np.unique(np.where(mus.imag < 0.0, mus.conj(),
                                  mus)).size == sum(classes.values()) // 2
        matrices = list(shifted_matrices)
        assert {shape: sum(m.shape == shape for m in matrices)
                for shape in classes} == classes
        assert len(matrices) == sum(classes.values())
        assert all(m.solves == 1 for m in matrices)
        # a real mu is refined in real arithmetic
        real = np.count_nonzero(np.unique(mus[mus.imag >= 0.0]).imag == 0.0)
        assert sum(m.dtype == np.float64 for m in matrices) == 2 * real

    @pytest.mark.parametrize("model,omega,n,count", [
        ("gn", 2.0 / 3.0, 160, 4), ("mtm", 0.5, 200, 6),
    ], ids=["gn", "mtm"])
    def test_refined_residuals_equal_full_matrix_residuals(
            self, grid_cache, model, omega, n, count):
        # the two-grid route's residuals, from the coarse solves carried to
        # N, are those of its vectors on the dense oracle at N: a real and
        # an imaginary pair for gn, a real pair and a quartet for mtm
        p = 0.3
        grid = grid_cache(n, 10.0)
        _, coarse = spectrum._sweep_levels(model, omega, grid)
        solves = spectrum._parity_solve(
            assemble(model, omega, p, coarse.grid), coarse.base)
        bands = continuous_bands(model, omega, p)
        kept = spectrum._classes(solves, bands, default_margin(bands), omega)
        op = assemble(model, omega, p, grid)
        pairs = parity_products(op)
        found, _, residuals = spectrum._refined_values(pairs, solves, kept,
                                                       coarse.transfer)
        assert found.size == count
        assert np.all(np.abs(found) > spectrum._NEAR_ORIGIN_RADIUS)
        assert np.max(residuals) <= 1e-12
        values, oracle = lifted_residuals(op, pairs, kept, solves,
                                          coarse.transfer)
        np.testing.assert_array_equal(values, found)
        np.testing.assert_allclose(oracle, residuals, rtol=0, atol=1e-14)

    def test_first_point_takes_full_solve(self, grid_cache, routes):
        track_branches("gn", 2.0 / 3.0, [0.2, 0.25, 0.3],
                       grid_cache(160, 10.0), jobs=2)
        assert dict(routes) == {0.2: "first point", 0.25: _TWO_GRID,
                                0.3: _TWO_GRID}

    @pytest.mark.parametrize("model,omega,n,ps", [
        ("gn", 2.0 / 3.0, 160, [0.2, 0.25, 0.3]),
        ("mtm", 0.5, 120, [0.6, 0.7, 0.8, 0.9, 1.0]),
    ], ids=["gn", "mtm"])
    def test_route_log_is_one_record_per_point_in_p_order(
            self, grid_cache, caplog, routes, model, omega, n, ps):
        # the command's process logs every route after the solves, so the
        # log, unlike the order the workers finish in, does not depend on
        # jobs
        logged = {}
        for jobs in (1, 2):
            caplog.clear()
            track_branches(model, omega, ps, grid_cache(n, 10.0), jobs=jobs)
            assert [p for p, _ in routes] == ps
            logged[jobs] = [r.getMessage() for r in routes.records()]
        assert logged[1] == logged[2]
        if model == "gn":
            assert logged[1] == ["p=0.2: full solve (first point)",
                                 "p=0.25: two-grid", "p=0.3: two-grid"]

    def test_closed_gap_takes_full_solve(self, grid_cache, routes):
        # the mtm gap closes at p = sqrt(1 - omega), about 0.707 here
        track_branches("mtm", 0.5, [0.5, 0.8, 0.9], grid_cache(120, 10.0),
                       jobs=2)
        taken = dict(routes)
        assert taken[0.8] == taken[0.9] == "gap closed"

    @pytest.mark.parametrize("model,omega,ps,guard", [
        ("gn", 0.7, [0.9, 0.95, 1.0], "coarse value near a band"),
        ("gn", 2.0 / 3.0, [0.001, 0.002, 0.003],
         "coarse value near the origin"),
    ], ids=["band", "origin"])
    def test_proximity_takes_full_solve(self, grid_cache, routes, model,
                                        omega, ps, guard):
        track_branches(model, omega, ps, grid_cache(160, 10.0), jobs=2)
        taken = dict(routes)
        assert [taken[p] for p in ps[1:]] == [guard, guard]

    def test_drift_takes_full_solve(self, grid_cache, routes):
        # mtm omega=0 is under-resolved at N_c = 60: its values move by
        # about 0.2 between N = 60 and N = 120
        track_branches("mtm", 0.0, [0.2, 0.25], grid_cache(120, 10.0),
                       jobs=1)
        assert dict(routes)[0.25] == "refined value drifts"

    def test_coalescing_takes_full_solve(self, grid_cache, monkeypatch,
                                         routes):
        # at N_c = 60 the real pair of N = 120 is a second imaginary pair,
        # +-0.1000i, whose mu changes sign as it refines: its members refine
        # to +-0.3584, one each, which no longer coalesce but drift
        track_branches("mtm", 0.0, [0.15, 0.2], grid_cache(120, 10.0),
                       jobs=1)
        assert dict(routes)[0.2] == "refined value drifts"
        # two classes that do refine to one: every shifted solve of the
        # two-grid route returns its first class's vector for all of them
        refine_with(monkeypatch, lambda xs: xs[:, [0] * xs.shape[1]])
        branches = track_branches("gn", 2.0 / 3.0, [0.2, 0.25],
                                  grid_cache(160, 10.0), jobs=1)
        assert dict(routes)[0.25] == "two coarse values refine to one"
        assert [pt.p for br in branches for pt in br.points].count(0.25) == 4

    # the poisoned vectors warn on their way through the lift
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_refinement_takes_full_solve(self, grid_cache,
                                                    monkeypatch, routes):
        refine_with(monkeypatch, lambda xs: xs * np.nan)
        branches = track_branches("gn", 2.0 / 3.0, [0.2, 0.25],
                                  grid_cache(160, 10.0), jobs=1)
        assert dict(routes)[0.25] == "non-finite refinement"
        assert all(np.isfinite(pt.lam) and pt.residual <= 1e-8
                   for br in branches for pt in br.points)

    def test_singular_shift_takes_full_solve(self, grid_cache, monkeypatch,
                                             routes):
        # a shifted solve of the two-grid route that raises LinAlgError
        refine_with(monkeypatch, singular)
        branches = track_branches("gn", 2.0 / 3.0, [0.2, 0.25],
                                  grid_cache(160, 10.0), jobs=1)
        assert dict(routes)[0.25] == "non-finite refinement"
        assert [pt.p for br in branches for pt in br.points].count(0.25) == 4

    def test_members_take_their_sign_from_their_class(self, grid_cache):
        # the class of the coarse +-0.1000i above: its mu refines from
        # -0.0100 to +0.1285, and its members to +0.3584 and -0.3584 by
        # construction; both are equally near each coarse value, so a
        # nearest-root rule would tie
        grid = grid_cache(120, 10.0)
        _, coarse = spectrum._sweep_levels("mtm", 0.0, grid)
        solves = spectrum._parity_solve(assemble("mtm", 0.0, 0.2, coarse.grid),
                                        coarse.base)
        bands = continuous_bands("mtm", 0.0, 0.2)
        kept = spectrum._classes(solves, bands, default_margin(bands), 0.0)
        pairs = parity_products(assemble("mtm", 0.0, 0.2, grid))
        found, lams, _ = spectrum._refined_values(pairs, solves, kept,
                                                  coarse.transfer)
        tie = np.abs(np.abs(found) - 0.1) <= 1e-3
        assert sorted(found[tie].imag) == pytest.approx([-0.1, 0.1], abs=1e-3)
        assert np.all(found[tie].real == 0.0)
        assert sorted(lams[tie].real) == pytest.approx([-0.3584, 0.3584],
                                                       abs=1e-4)
        assert lams[tie][0] == -lams[tie][1]

    @pytest.mark.parametrize("p", [0.002, 0.3, 1.1])
    @pytest.mark.parametrize("model,omega", [("gn", 2.0 / 3.0), ("mtm", 0.5)])
    def test_full_point_keeps_the_tracked_values(self, grid_cache, model,
                                                 omega, p):
        # the full route's values are parity_eigvals' tracked ones, bit for
        # bit: a class is kept or dropped whole, and its members are the
        # roots root_pairs takes, in root_pairs' order
        grid = grid_cache(100, 10.0)
        bands = continuous_bands(model, omega, p)
        margin = default_margin(bands)
        fine, _ = spectrum._sweep_levels(model, omega, grid)
        values, residuals, route = spectrum._solve_isolated(
            model, omega, fine, None, p, p)
        assert route == "coarse grid below the floor"
        every = parity_eigvals(assemble(model, omega, p, grid)).values
        tracked = every[(bands.distance(every) > margin)
                        & (np.abs(every.imag) <= 1.0 + abs(omega))]
        assert tracked.size > 0
        np.testing.assert_array_equal(values.view(np.int64),
                                      tracked.view(np.int64))
        assert np.max(residuals) <= 1e-8

    def test_coarse_floor(self, grid_cache, routes):
        # N_c = 2 floor(N / 4) must reach 60: N = 120 does, N = 116 not
        levels = spectrum._sweep_levels
        assert levels("gn", 2.0 / 3.0, grid_cache(116, 10.0))[1] is None
        coarse = levels("gn", 2.0 / 3.0, grid_cache(120, 10.0))[1].grid
        assert (coarse.n, coarse.scale) == (60, 10.0)
        # the benchmark's coarse mtm sweep and the N = 60 solve-count tests
        for n in (22, 60):
            ps = [0.2, 0.25, 0.3]
            track_branches("gn", 2.0 / 3.0, ps, grid_cache(n, 10.0), jobs=2)
        assert sorted(routes) == [[p, "coarse grid below the floor"]
                                  for p in ps for _ in (22, 60)]


class TestMatching:
    """The matching rule on synthetic sweep points, far from the seeds.

    Each step assigns the pair of branch and candidate nearest overall,
    ties to the earlier branch, then the next nearest of what is left; a
    second candidate within 1.1 times the nearest distance sends the
    branch to the candidate nearest its extrapolation, with a warning.
    """

    @staticmethod
    def track(monkeypatch, ps, points):
        # one list of candidate eigenvalues per grid point, solved in order
        solved = iter([(np.array(iso, dtype=complex), np.zeros(len(iso)),
                        _TWO_GRID) for iso in points])
        monkeypatch.setattr(spectrum, "_solve_isolated",
                            lambda *args: next(solved))
        return track_branches("mtm", 0.0, ps, build_grid(30), jobs=1)

    def test_nearest_pair_wins_over_branch_order(self, monkeypatch):
        branches = self.track(monkeypatch, [1.0, 1.125],
                              [[5.0, 5.25], [5.1875]])
        # branch 1 is 0.0625 away, branch 0 0.1875, both inside 0.375
        assert [pt.lam for pt in branches[1].points] == [5.25, 5.1875]
        assert len(branches[0].points) == 1
        assert branches[0].events == [(1.125, "lost (no match within radius)")]

    def test_unmatched_branch_near_a_band_is_absorbed(self, monkeypatch):
        # at p = 0.625 the inner mtm band edge is 0.609375i and the margin
        # 0.0609375: 0.5i lies within twice the margin of the band, 0.4i
        # farther, and neither has a candidate within its radius
        branches = self.track(monkeypatch, [0.5, 0.625],
                              [[5.0, 0.5j, 0.4j], [5.0625]])
        events = {br.points[0].lam: br.events for br in branches}
        assert events == {
            5.0: [], 0.5j: [(0.625, "absorbed into continuous bands")],
            0.4j: [(0.625, "lost (no match within radius)")]}

    def test_exact_tie_goes_to_lower_branch_id(self, monkeypatch):
        branches = self.track(monkeypatch, [1.0, 1.125],
                              [[5.0, 5.25], [5.125]])
        assert [pt.lam for pt in branches[0].points] == [5.0, 5.125]
        assert len(branches[1].points) == 1
        assert len(branches) == 2

    def test_near_tie_follows_the_extrapolation(self, monkeypatch, caplog):
        # moving at +1 per unit p, the branch is extrapolated to 5.25; the
        # candidate behind it is nearer, the one ahead within 1.1 times
        with caplog.at_level("WARNING", logger=spectrum.logger.name):
            branches = self.track(monkeypatch, [1.0, 1.125, 1.25],
                                  [[5.0], [5.125], [5.0, 5.2578125]])
        assert [pt.lam for pt in branches[0].points] == [5.0, 5.125,
                                                         5.2578125]
        assert [pt.lam for pt in branches[1].points] == [5.0]
        warnings = [r.getMessage() for r in caplog.records]
        assert warnings == ["ambiguous branch match at p=1.25 for branch 0: "
                            "2 candidates within radius; using extrapolation"]
