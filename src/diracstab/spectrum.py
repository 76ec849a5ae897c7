"""Stability spectra from the real parity blocks, and their post-processing.

Solves a stability operator through the real products B C of its parity
blocks, filters continuous-band and boundary artifacts, computes the
max-real-part discretization metric, extracts isolated eigenvalues, fits
the small-p eigenvalue slopes, and continues isolated branches across a
sweep in the transverse wavenumber.  A sweep point's residuals come from
eigenvectors of the block products, checked on the full matrix.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .analytics import asymptotic_prediction
from .cheb import ChebGrid
from .eigen import (EigenSet, eigvals, inverse_iteration, relative_residuals,
                    root_pairs, single_blas_thread)
from .operator import (SpectralBands, assemble, continuous_bands,
                       parity_blocks, parity_vector)
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
    """All eigenvalues of op, and per real block pair (C, B C, eig(B C)).

    One values-only real solve (dgeev) of each block product, at
    dimension N+1 where the blocks split and 2(N+1) elsewhere, in place
    of a complex solve of op.matrix_a at 4(N+1).
    """
    solves = []
    for b, c in parity_blocks(op):
        bc = b @ c
        solves.append((c, bc, eigvals(bc).values))
    return root_pairs(np.concatenate([mu for _, _, mu in solves])), solves


def parity_eigvals(op) -> EigenSet:
    """All eigenvalues of a stability operator, from its real parity blocks.

    The values come in exact +-pairs, and every real mu = lambda**2 gives
    a pair that is exactly real or exactly imaginary.
    """
    return _parity_solve(op)[0]


def _isolated_vectors(op, solves, values) -> EigenSet:
    """Unit eigenvectors of op.matrix_a and their residuals, for values
    taken from _parity_solve(op).

    Away from the origin, a value lam is +-sqrt(mu) for an eigenvalue mu
    of one block product B C; one inverse iteration on B C - mu, real
    when mu is, gives x for both signs, lifted to [x; C x / lam] in the
    parity basis.  Near the origin C x / lam is ill-conditioned, so those
    values keep inverse iteration on the full matrix.  The residuals
    ||A v - lam v|| / ||A||_F are taken with the full matrix either way.
    """
    a = op.matrix_a
    vectors = np.empty((op.dim, values.size), dtype=complex)
    near = np.abs(values) <= _NEAR_ORIGIN_RADIUS
    if near.any():
        vectors[:, near] = inverse_iteration(a, values[near]).vectors
    for pair, (c, bc, mu) in enumerate(solves):
        roots = np.sqrt(mu)
        # root_pairs made the values from these very roots, bit for bit
        hit = (values[:, None] == roots) | (values[:, None] == -roots)
        rows, cols = np.nonzero(hit & ~near[:, None])
        if rows.size == 0:
            continue
        wanted, column = np.unique(cols, return_inverse=True)
        xs = inverse_iteration(bc, mu[wanted]).vectors
        cxs = c @ xs
        for i, k in zip(rows, column):
            v = parity_vector(op, pair, xs[:, k], cxs[:, k] / values[i])
            vectors[:, i] = v / np.linalg.norm(v)
    return EigenSet(values=values, vectors=vectors,
                    residuals=relative_residuals(a, values, vectors))


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


def _solve_isolated(model, omega, p, grid, im_window):
    """One sweep point: isolated eigenvalues, their residuals, the bands.

    The solve is values-only, from the real parity blocks; residuals come
    from eigenvectors of the block products for the few kept values.
    """
    op = assemble(model, omega, p, grid)
    bands = continuous_bands(model, omega, p)
    margin = default_margin(bands)
    values, solves = _parity_solve(op)
    iso = isolated_eigs(values, bands, margin)
    iso = iso[np.abs(iso.imag) <= im_window]
    return (iso, _isolated_vectors(op, solves, iso).residuals, bands,
            margin)


def _match_radius(branch: TrackedBranch, step: float) -> float:
    # median |dlambda/dp| over the last two steps, scaled to the current
    # step so mixed-resolution grids keep a consistent radius
    tail = branch.points[-3:]
    rates = [abs(b.lam - a.lam) / (b.p - a.p) for a, b in zip(tail, tail[1:])]
    if not rates:
        return max(3.0 * step, 0.05 * step)
    return max(3.0 * float(np.median(rates)) * step, 0.05 * step)


def _velocity(branch: TrackedBranch) -> complex:
    pts = branch.points
    if len(pts) < 2:
        return 0.0 + 0.0j
    a, b = pts[-2], pts[-1]
    dp = b.p - a.p
    return (b.lam - a.lam) / dp if dp > 0 else 0.0 + 0.0j


def track_branches(model, omega: float, p_grid, grid: ChebGrid,
                   jobs: int = 1, im_window: float | None = None) -> list:
    """Continue isolated eigenvalue branches across an ascending p-grid.

    Eigensolves for the grid points run in a pool of jobs >= 1 threads, on
    one BLAS thread each; the matching pass itself is sequential and
    deterministic.  Branches are
    seeded at the first grid point from the asymptotic predictions plus
    any remaining isolated eigenvalues, and terminated with an 'absorbed'
    or 'lost' event when no candidate falls inside the match radius.

    Only candidates with |Im lambda| <= im_window are tracked: point
    branches stay within the original gap scale, while under-resolved
    band modes far up the imaginary axis can pass the distance filter
    at moderate N and would otherwise spawn artifact branches.  The
    default window is 1 + |omega|, the p = 0 outer band edge.
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
    if im_window is None:
        im_window = 1.0 + abs(omega)

    # a second BLAS thread slows these solves down even at --jobs 1, so
    # the pool's jobs are the only parallelism
    with single_blas_thread(), \
            ThreadPoolExecutor(max_workers=jobs) as pool:
        solved = list(pool.map(
            lambda p: _solve_isolated(model, omega, p, grid, im_window), ps))

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
        taken = np.zeros(iso.size, dtype=bool)
        pending = list(active)
        assigned: dict[int, int] = {}
        while pending:
            best = None
            for bi, br in enumerate(pending):
                radius = _match_radius(br, step)
                if iso.size == 0:
                    continue
                dist = np.abs(iso - br.last.lam)
                dist[taken] = np.inf
                j = int(np.argmin(dist))
                if dist[j] <= radius and (best is None or dist[j] < best[0]):
                    best = (float(dist[j]), bi, j, radius)
            if best is None:
                break
            dist_best, bi, j, radius = best
            br = pending[bi]
            # near-tie: prefer the candidate closest to the extrapolation
            dist = np.abs(iso - br.last.lam)
            dist[taken] = np.inf
            near = np.flatnonzero((dist <= radius) & (dist <= 1.1 * dist_best))
            if near.size > 1:
                guess = br.last.lam + _velocity(br) * step
                j = int(near[np.argmin(np.abs(iso[near] - guess))])
                logger.warning(
                    "ambiguous branch match at p=%g for branch %d: "
                    "%d candidates within radius; using extrapolation",
                    p, br.branch_id, near.size)
            taken[j] = True
            assigned[br.branch_id] = j
            pending.remove(br)

        still_active = []
        for br in active:
            if br.branch_id in assigned:
                j = assigned[br.branch_id]
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
