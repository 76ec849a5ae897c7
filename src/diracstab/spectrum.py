"""Stability spectra from the real parity blocks, and their post-processing.

Solves a stability operator through the real products B C of its parity
blocks, filters continuous-band and boundary artifacts, computes the
max-real-part discretization metric, extracts isolated eigenvalues, fits
the small-p eigenvalue slopes, and continues isolated branches across a
sweep in the transverse wavenumber.  A sweep point's residuals come from
eigenvectors of M = [[0, B], [C, 0]] for each block pair, taken and
checked in the parity basis, where they equal the residuals on the
4(N+1)-square stability matrix; that matrix is never written.

A sweep point selects, refines and checks conjugate classes of mu =
lambda**2, each an eigenvalue mu of a real B C with Im mu >= 0
(_classes), and _members alone expands a class into its values
+-sqrt(mu) and, where mu is not real, their conjugates.  It takes the
two-grid route: its isolated classes are found by the values-only solve
on a coarse grid of even degree N_c = 2 floor(N / 4), and each is
refined at N by one shifted solve of the fine B C, from its coarse
eigenvector interpolated to N, whose iterate also gives the residual.
The full solve takes its residuals from the same routine,
_refined_values, with the fine grid as its own coarse one, but keeps its
values; only classes near the origin take vectors from M.  Both lift the
iterate to an eigenvector of M, while each shifted solve stays real for
a real mu, and B and C act on the lift's complex vectors in real
arithmetic.  A sweep takes the p = 0 block products of both grids once
(operator.parity_base), and every point writes its own B, C and B C from
them in O(N**2).  The drift of a value between the grids is the
per-value resolution check of Boyd's rule (Chebyshev and Fourier
Spectral Methods, ch. 7).  Guards send a point to the full solve at N
instead, which finds every value the fine grid has: N_c below
_COARSE_FLOOR, the sweep's first point, a closed gap, a coarse value
near the origin or a band, and a refinement that is not finite,
coalesces or drifts.  _solve_isolated checks them in that order and
returns the point's route: two-grid, or the first guard that failed;
track_branches logs it.
spectrum, slope_fit and validate keep the full solve.
_map_forked runs independent solves inline or on a pool of forked worker
processes, at most one per usable cpu (_usable_cpus): a sweep's points
when track_branches is given jobs > 1, and the p = 0 cells of the
command line's validate.  The pool forks with os alone, not
multiprocessing: each worker reads item indices from one pipe and writes
pickled results to another, the next index goes to the first worker to
return, and the exception of the lowest failing item is raised, the one
a loop over the items would raise.
"""

from __future__ import annotations

import functools
import logging
import math
import os
# unused here: benchmarks/tracing.py patches spectrum.ThreadPoolExecutor,
# and benchmarks/selfcheck.py reads it
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .analytics import asymptotic_prediction
from .cheb import ChebGrid, build_grid
from .eigen import (EigenSet, eigvals, inverse_vectors, root_pairs,
                    single_blas_thread)
from .operator import (SpectralBands, assemble, continuous_bands,
                       parity_base, parity_products, parity_transfer)
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
# the route of a sweep point whose guards all hold (_solve_isolated)
_TWO_GRID = "two-grid"


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


def _checked_margin(margin: float) -> float:
    """margin, which must be finite and non-negative, else ValueError."""
    if not 0.0 <= margin < np.inf:
        raise ValueError(f"margin must be finite and non-negative, got {margin}")
    return margin


def isolated_eigs(eigs, bands: SpectralBands, margin: float | None = None):
    """Eigenvalues farther than margin from every continuous-spectrum band.

    Boundary-row artifacts sit on the band edges, so the distance filter
    removes them together with the discrete band samples.  A margin that
    is negative or not finite raises ValueError.
    """
    values = np.asarray(getattr(eigs, "values", eigs), dtype=complex).ravel()
    margin = _checked_margin(default_margin(bands) if margin is None
                             else margin)
    if values.size == 0:
        return np.array([], dtype=complex)
    keep = bands.distance(values) > margin
    return values[keep]


def _parity_solve(op, base=None):
    """Per real block pair of op, (B, C, B C, eig(B C)).

    One values-only real solve (dgeev) of each block product, at
    dimension N+1 where the blocks split and 2(N+1) elsewhere, in place
    of a complex solve of the stability matrix at 4(N+1).  The products
    come from parity_products, on base, the p = 0 products of op's model
    and grid (parity_base), when the caller holds them.
    """
    return [(b, c, bc, eigvals(bc).values)
            for b, c, bc in parity_products(op, base)]


def parity_eigvals(op) -> EigenSet:
    """All eigenvalues of a stability operator, from its real parity blocks.

    The values come in exact +-pairs, and every real mu = lambda**2 gives
    a pair that is exactly real or exactly imaginary.
    """
    return root_pairs(np.concatenate([mu for *_, mu in _parity_solve(op)]))


def _real_product(a, xs):
    """a @ xs for a real a, in real arithmetic: a complex xs enters as
    its float64 view, where numpy would cast all of a to complex."""
    xs = np.ascontiguousarray(xs)
    return a @ xs if xs.dtype == float else (a @ xs.view(float)).view(complex)


def _lift(c, xs, lams):
    """Unit eigenvectors [y; z] of M = [[0, B], [C, 0]] for lams, from
    eigenvectors x of B C for lams**2: [x; C x / lam] scaled to unit
    norm, returned as the parts ys and zs on the rows of B and of C."""
    zs = _real_product(c, xs) / lams
    norms = np.hypot(np.linalg.norm(xs, axis=0), np.linalg.norm(zs, axis=0))
    return xs / norms, zs / norms


def _block_scale(pairs) -> float:
    """||M||_F over all block pairs: the root of the summed ||B||_F^2 +
    ||C||_F^2."""
    return math.sqrt(sum(np.linalg.norm(b) ** 2 + np.linalg.norm(c) ** 2
                         for b, c, *_ in pairs))


def _pair_residuals(b, c, ys, zs, lams) -> np.ndarray:
    """||M w - lam w|| per column w = [y; z] of one block pair's M."""
    gaps = np.concatenate([_real_product(b, zs) - ys * lams,
                           _real_product(c, ys) - zs * lams])
    return np.linalg.norm(gaps, axis=0)


def _members(roots, real):
    """The values of the conjugate classes of mu = lambda**2 with roots
    sqrt(mu), and each value's class: +-r, then +-conj(r) where mu is
    not real."""
    both = np.flatnonzero(~real)
    classes = np.concatenate([np.arange(roots.size)] * 2 + [both] * 2)
    values = np.concatenate([roots, -roots, roots[both].conj(),
                             -roots[both].conj()])
    return values, classes


def _origin_vectors(b, c, lams):
    """The parts ys and zs of unit eigenvectors of M = [[0, B], [C, 0]]
    for lams near the origin: two inverse_vectors steps on M itself."""
    k = b.shape[0]
    m = np.zeros((2 * k, 2 * k))
    m[:k, k:], m[k:, :k] = b, c
    ws = inverse_vectors(m, lams, inverse_vectors(m, lams))
    return ws[:k], ws[k:]


def _refined_values(pairs, solves, kept, transfer=None):
    """The values of the conjugate classes kept, refined on the block
    pairs, with residuals ||M w - lam w|| / ||M||_F, as (values, lams,
    residuals): values[i] refines to lams[i].

    pairs are one grid's (B, C, B C, ...) and solves the (B, C, B C,
    eig(B C)) of _parity_solve, pair for pair, on the same grid or, with
    transfer, on the coarser one that transfer leads from; kept holds
    each solve's classes (_classes).  A class outside _NEAR_ORIGIN_RADIUS
    takes two shifted solves, one inverse_vectors step each, real when mu
    is: of the solve's B C - mu from the fixed start, and of the pair's
    from that vector, carried by transfer.  mu becomes the Rayleigh
    quotient of the unit iterate x, exactly real when the class's mu is,
    and _members expands the class's roots before and after alike, so
    that each value's sign and conjugation are those of the value it
    refines to; they share the residual of the lift of x.  A class within
    _NEAR_ORIGIN_RADIUS of 0, where C x / lambda is ill-conditioned,
    keeps its values, and each takes its w from _origin_vectors; this
    needs the solves on the pairs' own grid.  ||M||_F is _block_scale's.
    The change of basis to the parity blocks is unitary, so this is the
    residual on the stability matrix A of w carried back into A's space.
    """
    scale = _block_scale(pairs)
    parts = [(np.empty(0, dtype=complex),) * 2 + (np.empty(0),)]
    for (b, c, bc, *_), (_, _, start_bc, _), mu in zip(pairs, solves, kept):
        roots = np.sqrt(mu)
        real = mu.imag == 0.0
        near = np.abs(roots) <= _NEAR_ORIGIN_RADIUS
        if not np.all(near):
            wanted, real_far = mu[~near], real[~near]
            xs = inverse_vectors(start_bc, wanted)
            if transfer is not None:
                xs = _transferred(transfer, xs)
            xs = inverse_vectors(bc, wanted, xs)
            mus = np.einsum("ij,ij->j", xs.conj(), bc @ xs).astype(complex)
            mus[real_far] = mus[real_far].real
            refined = np.sqrt(mus)
            gaps = _pair_residuals(b, c, *_lift(c, xs, refined), refined)
            values, classes = _members(roots[~near], real_far)
            parts.append((values, _members(refined, real_far)[0],
                          gaps[classes] / scale))
        if np.any(near):
            values = _members(roots[near], real[near])[0]
            ys, zs = _origin_vectors(b, c, values)
            parts.append((values, values,
                          _pair_residuals(b, c, ys, zs, values) / scale))
    return tuple(np.concatenate(part) for part in zip(*parts))


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
        values = parity_eigvals(assemble(model, omega, p, grid)).values
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


def _coarse_grid(grid: ChebGrid):
    """The two-grid route's coarse grid, on grid's map: even degree
    N_c = 2 floor(N / 4), or None when N_c is below _COARSE_FLOOR."""
    n = 2 * (grid.n // 4)
    return build_grid(n, grid.scale) if n >= _COARSE_FLOOR else None


class _Level(NamedTuple):
    """One grid of a sweep: the grid, the p = 0 block products of the
    swept model on it (parity_base), and, on the coarse grid, the
    parity_transfer to the fine one."""

    grid: ChebGrid
    base: tuple
    transfer: np.ndarray | None = None


def _sweep_level(model, omega, grid, fine=None) -> _Level:
    """grid's _Level for a sweep of model at omega; pass fine for the
    coarse grid, to which the transfer leads."""
    base = parity_base(assemble(model, omega, 0.0, grid))
    transfer = None if fine is None else parity_transfer(grid, fine)
    return _Level(grid, base, transfer)


def _transferred(transfer, xs):
    """Columns xs of a coarse block pair's vectors, carried to the fine
    grid by blockdiag(P_J, ..., P_J), one P_J = transfer per component."""
    parts = xs.reshape(-1, transfer.shape[1], xs.shape[1])
    return (transfer @ parts).reshape(-1, xs.shape[1])


def _classes(solves, bands, margin, omega):
    """Per block pair of solves, the eigenvalues mu of its B C with
    Im mu >= 0, one per conjugate class, ascending, whose roots sqrt(mu)
    a sweep tracks: the isolated ones (isolated_eigs) within the p = 0
    outer band edge, |Im| <= 1 + |omega|.  Band distance and |Im| are
    exactly symmetric under lambda -> -lambda and lambda -> conj(lambda),
    so every value of a class is tracked or none."""
    kept = []
    for *_, mu in solves:
        mu = np.sort(mu[mu.imag >= 0.0])
        roots = np.sqrt(mu)
        kept.append(mu[(bands.distance(roots) > margin)
                       & (np.abs(roots.imag) <= 1.0 + abs(omega))])
    return kept


def _solve_isolated(model, omega, fine, coarse, p0, p):
    """One sweep point: (isolated eigenvalues, their residuals, the bands,
    the margin, the route), the values sorted like root_pairs.

    Only values with |Im lambda| <= 1 + |omega|, the p = 0 outer band
    edge, are kept (_classes): point branches stay within the original
    gap scale, while under-resolved band modes far up the imaginary axis
    can pass the distance filter at moderate N and would otherwise spawn
    artifact branches.  fine and coarse are the sweep's _Levels (coarse
    is None below the floor).

    The route is _TWO_GRID where every guard holds: _refined_values
    refines the kept conjugate classes of the coarse B C's eigenvalues
    mu_c, each by one shifted solve of the coarse B C, which gives mu_c's
    coarse eigenvector, and one of the fine B C from that vector, carried
    to N by the coarse level's transfer.  Otherwise it is the first guard
    that failed, and the full solve at N finds every value the fine grid
    has, with the fine grid as its own coarse one.  The guards, in order:
    - no coarse grid: N_c is below _COARSE_FLOOR;
    - the sweep's first point p0, whose values seed the branches;
    - a closed gap, where band modes make the isolated count move with N;
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
    bands = continuous_bands(model, omega, p)
    margin = default_margin(bands)
    route = ("coarse grid below the floor" if coarse is None
             else "first point" if p == p0
             else "gap closed" if bands.gap_width == 0.0 else _TWO_GRID)
    if route == _TWO_GRID:
        solves = _parity_solve(assemble(model, omega, p, coarse.grid),
                               coarse.base)
        kept = _classes(solves, bands, margin, omega)
        # one root per class: both tests below are symmetric in its values
        roots = np.sqrt(np.concatenate(kept))
        if np.any(np.abs(roots) <= _NEAR_ORIGIN_RADIUS):
            route = "coarse value near the origin"
        elif np.any(bands.distance(roots) <= 2.0 * margin):
            route = "coarse value near a band"
    if route == _TWO_GRID:
        pairs = parity_products(assemble(model, omega, p, fine.grid),
                                fine.base)
        try:
            found, lams, residuals = _refined_values(pairs, solves, kept,
                                                     coarse.transfer)
        except np.linalg.LinAlgError:  # a singular shift
            finite = False
        else:
            finite = np.all(np.isfinite(lams) & np.isfinite(residuals))
        if not finite:
            route = "non-finite refinement"
    if route == _TWO_GRID:
        tol = _CLASS_TOL * (1.0 + np.abs(lams))
        # each value is close to itself; any other close pair has coalesced
        close = np.abs(lams[:, None] - lams) <= tol[:, None]
        if np.count_nonzero(close) > lams.size:
            route = "two coarse values refine to one"
        elif np.any(np.abs(lams - found) > tol):
            route = "refined value drifts"
    if route != _TWO_GRID:
        solves = _parity_solve(assemble(model, omega, p, fine.grid), fine.base)
        lams, _, residuals = _refined_values(
            solves, solves, _classes(solves, bands, margin, omega))
    order = np.lexsort((lams.real, lams.imag))
    return lams[order], residuals[order], bands, margin, route


def _usable_cpus() -> int:
    """The cpus this process may run on: its affinity mask, where the
    platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _worker_loop(fn, items, tasks: int, replies: int) -> None:
    """A pool worker's loop: reads an item index from the tasks pipe and
    writes the pickled (index, ok, value) of fn(items[index]) to the
    replies pipe, ok False and value the exception where fn raised,
    until the parent closes the tasks pipe."""
    import pickle
    with open(replies, "wb") as out:
        while index_bytes := os.read(tasks, 8):
            index = int.from_bytes(index_bytes, "little")
            try:
                reply = pickle.dumps((index, True, fn(items[index])))
            except Exception as exc:  # fn's error, or an unpicklable value
                reply = pickle.dumps((index, False, exc))
            out.write(reply)
            out.flush()


def _map_forked(fn, items, jobs: int) -> list:
    """[fn(item) for item in items], in item order.

    Runs on a pool of min(jobs, len(items), _usable_cpus()) forked worker
    processes, or inline where that is 1 or the platform cannot fork.  A
    fork pool starts all its workers at once, so the cap keeps a large
    jobs from forking more processes than can run.  The workers inherit
    fn and items through the fork, so neither is pickled; each has one
    pipe for item indices and one for its pickled results, and the next
    index goes to whichever worker returns first.  A fork copies the
    calling thread alone, and each worker keeps the caller's BLAS thread
    counts.  Once an item fails, no further item is sent; the items
    already sent are awaited, and the exception of the lowest failing
    index is raised here, the one a loop over the items would raise.  A
    worker that exits without returning its item fails that item with a
    RuntimeError.  Every worker is reaped before this returns or raises.
    The pool uses os, pickle and select only, not multiprocessing.
    """
    items = list(items)
    workers = min(jobs, len(items), _usable_cpus())
    if workers < 2 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    import pickle
    import select

    pool = {}    # each worker's replies pipe -> (its pid, its tasks pipe)
    busy = {}    # replies pipe -> index of the item sent to that worker
    results, failed = [None] * len(items), {}
    unsent = iter(range(len(items)))

    def send(replies):
        index = next(unsent, None)
        if index is not None:
            os.write(pool[replies][1], index.to_bytes(8, "little"))
            busy[replies] = index

    try:
        for _ in range(workers):
            task_r, task_w = os.pipe()
            reply_r, reply_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    for replies, (_, tasks) in pool.items():
                        replies.close()
                        os.close(tasks)
                    os.close(task_w)
                    os.close(reply_r)
                    _worker_loop(fn, items, task_r, reply_w)
                    code = 0
                finally:
                    os._exit(code)
            os.close(task_r)
            os.close(reply_w)
            pool[open(reply_r, "rb")] = (pid, task_w)
        for replies in pool:
            send(replies)
        while busy:
            for replies in select.select(list(busy), [], [])[0]:
                index = busy.pop(replies)
                try:
                    _, ok, value = pickle.load(replies)
                except (EOFError, pickle.UnpicklingError):
                    ok, value = False, RuntimeError(
                        f"pool worker {pool[replies][0]} exited without "
                        f"returning item {index}")
                if ok:
                    results[index] = value
                else:
                    failed[index] = value
                if not failed:
                    send(replies)
    finally:
        for replies, (_, tasks) in pool.items():
            os.close(tasks)
            replies.close()
        for pid, _ in pool.values():
            os.waitpid(pid, 0)
    if failed:
        raise failed[min(failed)]
    return results


def _match_radius(branch: TrackedBranch, step: float) -> float:
    # median |dlambda/dp| over the last two steps, scaled to the current
    # step so mixed-resolution grids keep a consistent radius
    tail = branch.points[-3:]
    rates = [abs(b.lam - a.lam) / (b.p - a.p) for a, b in zip(tail, tail[1:])]
    if not rates:
        return 3.0 * step
    # the median of one or two rates, without np.median's numpy.ma import
    return max(3.0 * (sum(rates) / len(rates)) * step, 0.05 * step)


def _velocity(branch: TrackedBranch) -> complex:
    pts = branch.points
    if len(pts) < 2:
        return 0.0 + 0.0j
    a, b = pts[-2], pts[-1]
    return (b.lam - a.lam) / (b.p - a.p)


def track_branches(model, omega: float, p_grid, grid: ChebGrid,
                   jobs: int = 1) -> list:
    """Continue isolated eigenvalue branches across an ascending p-grid.

    Each grid point is solved on one BLAS thread, through _map_forked:
    inline at jobs == 1, and at jobs > 1 on a pool of min(jobs,
    len(p_grid), usable cpus) forked worker processes, which inherit the
    model, the grids and p_grid and receive only the index of p (inline
    where that is one worker or the platform cannot fork).
    Forked workers overlap their solves at every matrix order, where
    threads do not: numpy keeps the GIL through most of an eigvals call
    below about order 500.  A fork copies the calling thread alone, so a
    caller that runs threads of its own should keep jobs == 1.  The
    matching pass itself is sequential and deterministic, so the branches
    do not depend on jobs.  Each point but the first takes the two-grid
    route of _solve_isolated where its guards allow: the values found on
    the coarse grid of _coarse_grid, refined at N; a guard sends the
    point to the full solve at N, whose candidates the refined ones equal
    to about 1e-12.  This process logs each point's route once at DEBUG
    level, in p order, as "p=...: two-grid" or "p=...: full solve
    (<guard>)", so the log does not depend on jobs.  Both grids' _Levels,
    with the p = 0 block products and the transfer between the grids,
    are built once here and inherited by the workers.  Branches are
    seeded at the first grid point from the asymptotic predictions plus
    any remaining isolated eigenvalues, and terminated with an
    'absorbed' or 'lost' event when no candidate falls inside the match
    radius.

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
        fine, coarse = _sweep_level(model, omega, grid), _coarse_grid(grid)
        if coarse is not None:
            coarse = _sweep_level(model, omega, coarse, grid)
        solved = _map_forked(
            functools.partial(_solve_isolated, model, omega, fine, coarse,
                              ps[0]), ps, jobs)
    for p, (*_, route) in zip(ps, solved):
        if route == _TWO_GRID:
            logger.debug("p=%g: two-grid", p)
        else:
            logger.debug("p=%g: full solve (%s)", p, route)

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
    iso0, res0, *_ = solved[0]
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
        iso, res, bands, margin, _ = solved[k]
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
