"""Stability spectra from the real parity blocks, and their post-processing.

Solves a stability operator through the real products B C of its parity
blocks, filters continuous-band and boundary artifacts, computes the
max-real-part discretization metric, extracts isolated eigenvalues, fits
the small-p eigenvalue slopes, and continues isolated branches across a
sweep in the transverse wavenumber.  A sweep point's residuals come from
eigenvectors of M = [[0, B], [C, 0]] for each block pair, taken and
checked in the parity basis, where they equal the residuals on the
4(N+1)-square stability matrix; that matrix is never written.

A sweep point takes the two-grid route: its isolated values are found
by the values-only solve on a coarse grid of even degree N_c = 2
floor(N / 4), and each is refined at N by inverse iteration on the fine
B C, whose iterate also gives the residual.  The drift of a value
between the grids is the per-value resolution check of Boyd's rule
(Chebyshev and Fourier Spectral Methods, ch. 7).  Guards send a point
to the full solve at N instead, which finds every value the fine grid
has: N_c below _COARSE_FLOOR, the sweep's first point, a closed gap, a
coarse value near the origin or a band, and a refinement that is not
finite, coalesces or drifts (see _refined_point).  spectrum, slope_fit
and validate keep the full solve.
_map_forked runs independent solves inline or on a pool of forked worker
processes: a sweep's points when track_branches is given jobs > 1, and
the p = 0 cells of the command line's validate.
"""

from __future__ import annotations

import logging
import math
# unused here: benchmarks/tracing.py patches spectrum.ThreadPoolExecutor,
# and benchmarks/selfcheck.py reads it
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field

import numpy as np

from .analytics import asymptotic_prediction
from .cheb import ChebGrid, build_grid
from .eigen import (EigenSet, eigvals, inverse_vectors, root_pairs,
                    single_blas_thread)
from .operator import (SpectralBands, assemble, continuous_bands,
                       parity_blocks)
from .soliton import ModelKind

__all__ = [
    "SpectralBands", "TrackedBranch", "BranchPoint", "BranchNotFound",
    "spurious_metric", "isolated_eigs", "default_margin", "parity_eigvals",
    "slope_fit", "track_branches", "summarize_sweep",
]

logger = logging.getLogger(__name__)

CLASS_REAL = "real_pair"
CLASS_IMAG = "imaginary_pair"
CLASS_QUARTET = "complex_quartet"
CLASS_NEAR_ORIGIN = "near_origin"

_CLASS_TOL = 1e-6          # relative axis tolerance, solver-residual scale
_NEAR_ORIGIN_RADIUS = 5e-3
_MARGIN_FLOOR = 1e-3
_MARGIN_FRACTION = 0.05
# smallest coarse degree N_c of the two-grid route (N >= 120).  Against
# N = 160, gn omega = 2/3 values drift by up to 1.3e-6 at N_c = 60, by
# 6.4e-5 at 50 and 2.3e-3 at 40, so below 60 nearly every point would
# fail the drift guard and pay both solves.
_COARSE_FLOOR = 60


class BranchNotFound(RuntimeError):
    """An expected eigenvalue branch could not be located at some p."""


@dataclass(frozen=True)
class BranchPoint:
    """One continuation point of a tracked branch."""

    p: float
    lam: complex
    residual: float
    classification: str


@dataclass
class TrackedBranch:
    """A continued eigenvalue branch over an ascending p-grid.

    events records (p, label) pairs at classification changes and at
    branch termination (absorption into the bands or loss of matching).
    """

    branch_id: int
    points: list = field(default_factory=list)
    events: list = field(default_factory=list)

    @property
    def last(self) -> BranchPoint:
        return self.points[-1]


def spurious_metric(eigs, im_cutoff: float = 10.0) -> float:
    """Largest |Re| among eigenvalues with |Im| below the cutoff.

    At p = 0 the whole spectrum is symmetric and purely imaginary in the
    continuum limit, so this measures discretization artifacts.  No
    eigenvalue is excluded; the near-origin kernel cluster contributes
    legitimately.
    """
    values = np.asarray(getattr(eigs, "values", eigs), dtype=complex).ravel()
    kept = values[np.abs(values.imag) < im_cutoff]
    if kept.size == 0:
        raise ValueError("no eigenvalues below the imaginary-part cutoff")
    return float(np.abs(kept.real).max())


def default_margin(bands: SpectralBands) -> float:
    """Band-distance threshold: a fraction of the gap width with a floor."""
    return max(_MARGIN_FRACTION * bands.gap_width, _MARGIN_FLOOR)


def isolated_eigs(eigs, bands: SpectralBands, margin: float | None = None):
    """Eigenvalues farther than margin from every continuous-spectrum band.

    Boundary-row artifacts sit on the band edges, so the distance filter
    removes them together with the discrete band samples.
    """
    values = np.asarray(getattr(eigs, "values", eigs), dtype=complex).ravel()
    if margin is None:
        margin = default_margin(bands)
    if values.size == 0:
        return np.array([], dtype=complex)
    keep = bands.distance(values) > margin
    return values[keep]


def _parity_solve(op):
    """All eigenvalues of op, and per real block pair (B, C, B C, eig(B C)).

    One values-only real solve (dgeev) of each block product, at
    dimension N+1 where the blocks split and 2(N+1) elsewhere, in place
    of a complex solve of the stability matrix at 4(N+1).
    """
    solves = []
    for b, c in parity_blocks(op):
        bc = b @ c
        solves.append((b, c, bc, eigvals(bc).values))
    return root_pairs(np.concatenate([s[-1] for s in solves])), solves


def parity_eigvals(op) -> EigenSet:
    """All eigenvalues of a stability operator, from its real parity blocks.

    The values come in exact +-pairs, and every real mu = lambda**2 gives
    a pair that is exactly real or exactly imaginary.
    """
    return _parity_solve(op)[0]


def _lift(c, xs, lams):
    """Unit eigenvectors [y; z] of M = [[0, B], [C, 0]] for lams, from
    eigenvectors x of B C for lams**2: [x; C x / lam] scaled to unit
    norm, returned as the parts ys and zs on the rows of B and of C."""
    zs = (c @ xs) / lams
    norms = np.hypot(np.linalg.norm(xs, axis=0), np.linalg.norm(zs, axis=0))
    return xs / norms, zs / norms


def _parity_vectors(solves, values):
    """Unit eigenvectors [y; z] of M = [[0, B], [C, 0]] for values taken
    from _parity_solve, in the real bases of each block pair (B, C).

    Yields (pair, rows, ys, zs): the values at index rows are +-sqrt(mu)
    for eigenvalues mu of pair's block product B C, and the columns of ys
    and zs are the parts of their vectors on the rows of B and of C.
    Away from the origin, one inverse iteration on B C - mu, real when mu
    is, gives x for both signs of lam, and _lift makes [y; z].  Near the
    origin C x / lam is ill-conditioned, so each value there takes its
    vector from inverse iteration on the pair's own real M.
    """
    near = np.abs(values) <= _NEAR_ORIGIN_RADIUS
    for pair, (b, c, bc, mu) in enumerate(solves):
        roots = np.sqrt(mu)
        # root_pairs made the values from these very roots, bit for bit
        hit = (values[:, None] == roots) | (values[:, None] == -roots)
        rows, cols = np.nonzero(hit & ~near[:, None])
        if rows.size:
            wanted, column = np.unique(cols, return_inverse=True)
            xs = inverse_vectors(bc, mu[wanted])[:, column]
            yield (pair, rows) + _lift(c, xs, values[rows])
        rows = np.flatnonzero(hit.any(axis=1) & near)
        if rows.size:
            k = b.shape[0]
            m = np.zeros((2 * k, 2 * k))
            m[:k, k:], m[k:, :k] = b, c
            ws = inverse_vectors(m, values[rows])
            yield pair, rows, ws[:k], ws[k:]


def _block_scale(pairs) -> float:
    """||M||_F over all block pairs: the root of the summed ||B||_F^2 +
    ||C||_F^2."""
    return math.sqrt(sum(np.linalg.norm(b) ** 2 + np.linalg.norm(c) ** 2
                         for b, c, *_ in pairs))


def _pair_residuals(b, c, ys, zs, lams) -> np.ndarray:
    """||M w - lam w|| per column w = [y; z] of one block pair's M."""
    gaps = np.concatenate([b @ zs - ys * lams, c @ ys - zs * lams])
    return np.linalg.norm(gaps, axis=0)


def _isolated_residuals(solves, values) -> np.ndarray:
    """||M w - lam w|| / ||M||_F for values taken from _parity_solve.

    w is the unit eigenvector of _parity_vectors, and ||M||_F is
    _block_scale's.  The change of basis to the parity blocks is
    unitary, so this is the residual on the stability matrix A of w
    carried back into A's space.
    """
    residuals = np.empty(values.size)
    scale = _block_scale(solves)
    for pair, rows, ys, zs in _parity_vectors(solves, values):
        b, c = solves[pair][:2]
        residuals[rows] = _pair_residuals(b, c, ys, zs, values[rows]) / scale
    return residuals


def _solve_values(model, omega, p, grid):
    return parity_eigvals(assemble(model, omega, p, grid))


def slope_fit(model, omega: float, p_samples, grid: ChebGrid) -> dict:
    """Estimate the small-p eigenvalue slopes from a sequence of solves.

    For each p the dominant real-axis and imaginary-axis isolated
    eigenvalues are located near their predicted positions; lambda/p is
    then fit against p^2 by least squares and the intercepts reported as
    {"lambda_r_hat", "lambda_i_hat"}.
    """
    model = ModelKind(model)
    ps = np.asarray(sorted(float(p) for p in p_samples))
    if ps.size < 3:
        raise ValueError("need at least 3 wavenumber samples for the fit")
    if ps[0] <= 0.0 or ps[-1] > 0.15:
        raise ValueError("wavenumber samples must lie in (0, 0.15]")
    pred = asymptotic_prediction(model, omega, with_corrections=False)
    ratios_r, ratios_i = [], []
    for p in ps:
        values = _solve_values(model, omega, p, grid).values
        seed_r = p * pred.lambda_r
        seed_i = 1j * p * pred.lambda_i
        picks = []
        for seed in (seed_r, seed_i):
            j = int(np.argmin(np.abs(values - seed)))
            lam = values[j]
            if abs(lam - seed) > 0.5 * max(abs(seed), 0.02):
                raise BranchNotFound(
                    f"no eigenvalue near {seed:.6g} at p={p:g} "
                    f"(closest: {lam:.6g})")
            picks.append(lam)
        ratios_r.append(picks[0].real / p)
        ratios_i.append(picks[1].imag / p)
    fit_r = np.polyfit(ps ** 2, ratios_r, 1)
    fit_i = np.polyfit(ps ** 2, ratios_i, 1)
    return {"lambda_r_hat": float(fit_r[1]), "lambda_i_hat": float(fit_i[1])}


def _classify(lam: complex) -> str:
    scale = _CLASS_TOL * (1.0 + abs(lam))
    if abs(lam) <= _NEAR_ORIGIN_RADIUS:
        return CLASS_NEAR_ORIGIN
    if abs(lam.imag) <= scale:
        return CLASS_REAL
    if abs(lam.real) <= scale:
        return CLASS_IMAG
    return CLASS_QUARTET


class _FullSolve(Exception):
    """A guard of the two-grid route: the point takes the full solve."""


def _coarse_grid(grid: ChebGrid):
    """The two-grid route's coarse grid, on grid's map: even degree
    N_c = 2 floor(N / 4), or None when N_c is below _COARSE_FLOOR."""
    n = 2 * (grid.n // 4)
    return build_grid(n, grid.scale) if n >= _COARSE_FLOOR else None


def _tracked(values, bands, margin, omega):
    # point branches stay within the p = 0 outer band edge, |Im| <= 1 + |omega|
    iso = isolated_eigs(values, bands, margin)
    return iso[np.abs(iso.imag) <= 1.0 + abs(omega)]


def _full_point(model, omega, grid, p, bands, margin, guard):
    """Every eigenvalue at N from one values-only parity solve; the kept
    ones and their residuals.  guard names why the point came here."""
    logger.debug("p=%g: full solve (%s)", p, guard)
    values, solves = _parity_solve(assemble(model, omega, p, grid))
    iso = _tracked(values, bands, margin, omega)
    return iso, _isolated_residuals(solves, iso)


def _refined_point(model, omega, grid, coarse, p, bands, margin):
    """The kept values of the coarse grid, refined at N, and their residuals.

    Each kept mu_c = lambda_c**2 of a block pair takes one inverse
    iteration on the fine B C - mu_c (inverse_vectors: two shifted
    solves, as the full solve's residuals take, real when mu_c is), and
    mu becomes the Rayleigh quotient of the unit iterate x, exactly real
    when mu_c is.  mu_c and its conjugate share one refinement, and so
    do the four values +-sqrt(mu), +-conj(sqrt(mu)), with one residual
    from the lift of x.

    Raises _FullSolve when a guard fails, for the full solve to find
    every value at N:
    - a coarse value within _NEAR_ORIGIN_RADIUS of 0, where C x / lambda
      is ill-conditioned and the full solve takes vectors from M;
    - a coarse value within 2 margin of a band, where band modes are
      born as N grows;
    - a refinement that is not finite (a singular shift);
    - two coarse values that refine to one, so that the coarse grid
      missed a value of the fine one;
    - a refined value that drifts from its coarse value by more than
      _CLASS_TOL (1 + |lambda|): the coarse grid does not resolve it,
      and may have missed others.
    """
    values, solves = _parity_solve(assemble(model, omega, p, coarse))
    found = _tracked(values, bands, margin, omega)
    if np.any(np.abs(found) <= _NEAR_ORIGIN_RADIUS):
        raise _FullSolve("coarse value near the origin")
    if np.any(bands.distance(found) <= 2.0 * margin):
        raise _FullSolve("coarse value near a band")
    fine = parity_blocks(assemble(model, omega, p, grid))
    lams = np.empty(found.size, dtype=complex)
    residuals = np.empty(found.size)
    scale = _block_scale(fine)
    for (b, c), (_, _, _, mu) in zip(fine, solves):
        roots = np.sqrt(mu)
        hit = (found[:, None] == roots) | (found[:, None] == -roots)
        rows, cols = np.nonzero(hit)
        if not rows.size:
            continue
        flip = mu[cols].imag < 0.0
        wanted, column = np.unique(np.where(flip, mu[cols].conj(), mu[cols]),
                                   return_inverse=True)
        bc = b @ c
        try:
            xs = inverse_vectors(bc, wanted)
        except np.linalg.LinAlgError as exc:
            raise _FullSolve("non-finite refinement") from exc
        mus = np.einsum("ij,ij->j", xs.conj(), bc @ xs)
        real = wanted.imag == 0.0
        mus[real] = mus[real].real
        tops = np.sqrt(mus)
        ys, zs = _lift(c, xs, tops)
        residuals[rows] = (_pair_residuals(b, c, ys, zs, tops) / scale)[column]
        refined = np.where(flip, tops[column].conj(), tops[column])
        # the sign of the coarse value's root, whichever branch sqrt took
        keep = np.abs(found[rows] - refined) <= np.abs(found[rows] + refined)
        lams[rows] = np.where(keep, refined, -refined)
    if not (np.all(np.isfinite(lams)) and np.all(np.isfinite(residuals))):
        raise _FullSolve("non-finite refinement")
    tol = _CLASS_TOL * (1.0 + np.abs(lams))
    # each value is close to itself; any other close pair has coalesced
    close = np.abs(lams[:, None] - lams) <= tol[:, None]
    if np.count_nonzero(close) > lams.size:
        raise _FullSolve("two coarse values refine to one")
    if np.any(np.abs(lams - found) > tol):
        raise _FullSolve("refined value drifts")
    order = np.lexsort((lams.real, lams.imag))
    return lams[order], residuals[order]


def _solve_isolated(model, omega, grid, coarse, p0, p):
    """One sweep point: isolated eigenvalues, their residuals, the bands.

    Only values with |Im lambda| <= 1 + |omega|, the p = 0 outer band
    edge, are kept: point branches stay within the original gap scale,
    while under-resolved band modes far up the imaginary axis can pass
    the distance filter at moderate N and would otherwise spawn artifact
    branches.  The values come from the two-grid route, _refined_point
    on the coarse grid coarse, and otherwise from the full solve at N:
    without a coarse grid, at the sweep's first point p0, where the gap
    is closed, and wherever a guard of _refined_point fails.
    """
    bands = continuous_bands(model, omega, p)
    margin = default_margin(bands)
    try:
        if coarse is None:
            raise _FullSolve("coarse grid below the floor")
        if p == p0:
            raise _FullSolve("first point")
        if bands.gap_width == 0.0:
            raise _FullSolve("gap closed")
        iso, res = _refined_point(model, omega, grid, coarse, p, bands, margin)
    except _FullSolve as guard:
        iso, res = _full_point(model, omega, grid, p, bands, margin,
                               str(guard))
    return iso, res, bands, margin


# (fn, shared) of the open pool, in one of its workers
_worker_task = ()


def _start_worker(fn, shared):
    global _worker_task
    _worker_task = (fn, shared)


def _run_in_worker(item):
    fn, shared = _worker_task
    return fn(*shared, item)


def _fork_context():
    """multiprocessing's fork context, or None where the platform has none."""
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def _map_forked(fn, shared: tuple, items, jobs: int) -> list:
    """[fn(*shared, item) for item in items], in item order.

    Runs inline at jobs == 1, for a single item, or where the platform
    cannot fork; otherwise on a pool of min(jobs, len(items)) forked
    worker processes.  The workers inherit fn and shared through the
    fork, so neither is pickled; only the items and the results are.  A
    fork copies the calling thread alone, and each worker keeps the
    caller's BLAS thread counts.  An exception raised by fn in a worker
    is raised here.
    """
    items = list(items)
    context = _fork_context() if jobs > 1 and len(items) > 1 else None
    if context is None:
        return [fn(*shared, item) for item in items]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(jobs, len(items)),
                             mp_context=context, initializer=_start_worker,
                             initargs=(fn, shared)) as pool:
        return list(pool.map(_run_in_worker, items))


def _match_radius(branch: TrackedBranch, step: float) -> float:
    # median |dlambda/dp| over the last two steps, scaled to the current
    # step so mixed-resolution grids keep a consistent radius
    tail = branch.points[-3:]
    rates = [abs(b.lam - a.lam) / (b.p - a.p) for a, b in zip(tail, tail[1:])]
    if not rates:
        return max(3.0 * step, 0.05 * step)
    # the median of one or two rates, without np.median's numpy.ma import
    return max(3.0 * (sum(rates) / len(rates)) * step, 0.05 * step)


def _velocity(branch: TrackedBranch) -> complex:
    pts = branch.points
    if len(pts) < 2:
        return 0.0 + 0.0j
    a, b = pts[-2], pts[-1]
    dp = b.p - a.p
    return (b.lam - a.lam) / dp if dp > 0 else 0.0 + 0.0j


def track_branches(model, omega: float, p_grid, grid: ChebGrid,
                   jobs: int = 1) -> list:
    """Continue isolated eigenvalue branches across an ascending p-grid.

    Each grid point is solved on one BLAS thread, through _map_forked:
    inline at jobs == 1, and at jobs > 1 on a pool of min(jobs,
    len(p_grid)) forked worker processes, which inherit the model and
    grid and receive only p (inline where the platform cannot fork).
    Forked workers overlap their solves at every matrix order, where
    threads do not: numpy keeps the GIL through most of an eigvals call
    below about order 500.  A fork copies the calling thread alone, so a
    caller that runs threads of its own should keep jobs == 1.  The
    matching pass itself is sequential and deterministic, so the branches
    do not depend on jobs.  Each point but the first takes the two-grid
    route of _refined_point where its guards allow: the values found on
    the coarse grid of _coarse_grid, built once here and inherited by the
    workers, refined at N; a guard sends the point to the full solve
    (_full_point), whose candidates the refined ones equal to about
    1e-12.  Branches are seeded at the first grid point
    from the asymptotic predictions plus any remaining isolated
    eigenvalues, and terminated with an 'absorbed' or 'lost' event when
    no candidate falls inside the match radius.

    At each step the pairs of branch and candidate inside the branch's
    match radius are assigned nearest first, ties to the earlier branch
    and then to the lower candidate, each branch and candidate at most
    once.  A branch with a second free candidate within 1.1 times its
    distance takes the free candidate nearest its linear extrapolation
    instead, and a warning is logged.  Only candidates with
    |Im lambda| <= 1 + |omega|, the p = 0 outer band edge, are tracked.
    """
    model = ModelKind(model)
    ps = [float(p) for p in p_grid]
    if len(ps) < 2:
        raise ValueError("p-grid must contain at least two points")
    if any(b <= a for a, b in zip(ps, ps[1:])):
        raise ValueError("p-grid must be strictly ascending")
    if ps[0] <= 0.0:
        raise ValueError("p-grid values must be positive")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")

    # a second BLAS thread slows these solves down even at jobs=1, so the
    # pool's workers, forked on the one thread set here, are the only
    # parallelism
    with single_blas_thread():
        solved = _map_forked(_solve_isolated,
                             (model, omega, grid, _coarse_grid(grid), ps[0]),
                             ps, jobs)

    pred = asymptotic_prediction(model, omega, with_corrections=False)
    first_step = ps[1] - ps[0]
    seed_radius = 3.0 * first_step * max(pred.lambda_r, pred.lambda_i, 1.0)

    branches: list[TrackedBranch] = []
    active: list[TrackedBranch] = []

    def start_branch(p, lam, residual):
        br = TrackedBranch(branch_id=len(branches))
        br.points.append(BranchPoint(p, complex(lam), float(residual),
                                     _classify(lam)))
        branches.append(br)
        active.append(br)

    # seed at the first grid point
    p0 = ps[0]
    iso0, res0, _, _ = solved[0]
    claimed = np.zeros(iso0.size, dtype=bool)
    seeds = [p0 * pred.lambda_r, -p0 * pred.lambda_r,
             1j * p0 * pred.lambda_i, -1j * p0 * pred.lambda_i]
    for seed in seeds:
        if iso0.size == 0:
            break
        dist = np.abs(iso0 - seed)
        dist[claimed] = np.inf
        j = int(np.argmin(dist))
        if dist[j] <= seed_radius:
            claimed[j] = True
            start_branch(p0, iso0[j], res0[j])
    for j in np.flatnonzero(~claimed):
        start_branch(p0, iso0[j], res0[j])

    # sequential continuation
    for k in range(1, len(ps)):
        p = ps[k]
        step = ps[k] - ps[k - 1]
        iso, res, bands, margin = solved[k]
        lams = np.array([br.last.lam for br in active], dtype=complex)
        radii = np.array([_match_radius(br, step) for br in active])
        dist = np.abs(iso - lams[:, None])
        # the pairs inside each branch's radius, nearest first, ties in
        # branch then candidate order; a pair skipped here never becomes
        # valid again, so the first valid pair is the nearest one left
        rows, cols = np.nonzero(dist <= radii[:, None])
        order = np.lexsort((cols, rows, dist[rows, cols]))
        taken = np.zeros(iso.size, dtype=bool)
        match = np.full(len(active), -1)
        for i, j in zip(rows[order], cols[order]):
            if match[i] >= 0 or taken[j]:
                continue
            br = active[i]
            # near-tie: prefer the candidate closest to the extrapolation
            near = np.flatnonzero(~taken & (dist[i] <= radii[i])
                                  & (dist[i] <= 1.1 * dist[i, j]))
            if near.size > 1:
                guess = br.last.lam + _velocity(br) * step
                j = near[np.argmin(np.abs(iso[near] - guess))]
                logger.warning(
                    "ambiguous branch match at p=%g for branch %d: "
                    "%d candidates within radius; using extrapolation",
                    p, br.branch_id, near.size)
            taken[j] = True
            match[i] = j

        still_active = []
        for br, j in zip(active, match):
            if j >= 0:
                lam = complex(iso[j])
                cls = _classify(lam)
                if cls != br.last.classification:
                    br.events.append(
                        (p, f"classification {br.last.classification} -> {cls}"))
                br.points.append(BranchPoint(p, lam, float(res[j]), cls))
                still_active.append(br)
            else:
                near_band = bands.distance(br.last.lam)[0] <= 2.0 * margin
                label = ("absorbed into continuous bands" if near_band
                         else "lost (no match within radius)")
                br.events.append((p, label))
        active = still_active
        for j in np.flatnonzero(~taken):
            start_branch(p, iso[j], res[j])

    return branches


def summarize_sweep(branches, model, omega: float, p_grid) -> dict:
    """Aggregate sweep facts: growth, thresholds, quartet window, events."""
    model = ModelKind(model)
    ps = [float(p) for p in p_grid]
    p_final = ps[-1]
    max_growth = 0.0
    max_growth_p = None
    real_ps, quartet_ps = [], []
    real_at_final = False
    for br in branches:
        for pt in br.points:
            if pt.lam.real > max_growth:
                max_growth = pt.lam.real
                max_growth_p = pt.p
            if pt.classification == CLASS_REAL:
                real_ps.append(pt.p)
                if math.isclose(pt.p, p_final, rel_tol=1e-9):
                    real_at_final = True
            elif pt.classification == CLASS_QUARTET:
                quartet_ps.append(pt.p)
    summary = {
        "model": model.value,
        "omega": omega,
        "p_final": p_final,
        "max_growth_rate": max_growth,
        "max_growth_p": max_growth_p,
        "real_pair_present_at_final_p": real_at_final,
        "instability_threshold": None if real_at_final or not real_ps
                                 else max(real_ps),
        "quartet_window": ([min(quartet_ps), max(quartet_ps)]
                           if quartet_ps else None),
        "events": [
            {"branch_id": br.branch_id, "p": p, "label": label}
            for br in branches for p, label in br.events
        ],
    }
    if model is ModelKind.MASSIVE_THIRRING:
        close_p = float(np.sqrt(1.0 - omega))
        summary["gap_closes_at"] = close_p
        summary["gap_closed_in_range"] = close_p <= p_final
    else:
        summary["gap_closes_at"] = None
        summary["gap_closed_in_range"] = False
    return summary
