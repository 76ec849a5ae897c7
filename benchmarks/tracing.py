"""Spans around calls into diracstab's public functions, and the per-layer
metrics built from them.

The wrappers are installed on the attribute of each *importing* module:
`cli` and `spectrum` bind `assemble`, `eigvals`, `continuous_bands`,
`asymptotic_prediction` and `build_grid` by name at import time, and
`operator` binds `eval_profile`, so patching the defining module alone
would miss every call.  `spectrum.ThreadPoolExecutor` is replaced by a
subclass that hands the submitting thread's open span to the worker, so
spans opened inside the `--jobs` pool keep their parent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import logging
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

# importing module -> names it binds from another diracstab module
WRAPPED = {
    "diracstab.cli": ("build_grid", "assemble", "eigvals", "continuous_bands",
                      "asymptotic_prediction", "track_branches",
                      "summarize_sweep", "spurious_metric", "isolated_eigs",
                      "eval_profile"),
    "diracstab.spectrum": ("assemble", "eigvals", "continuous_bands",
                           "asymptotic_prediction"),
    "diracstab.operator": ("eval_profile",),
}

# Standard dense nonsymmetric eigensolver estimates (Golub & Van Loan,
# Matrix Computations, 4th ed., sec. 7.5.6): Hessenberg reduction plus QR
# iteration for the values alone, and with the Schur vectors and the
# eigenvectors accumulated.
FLOPS_VALUES_ONLY = 10
FLOPS_WITH_VECTORS = 25
COMPLEX_BYTES = 16

_VALIDATE_LINE = re.compile(r"metric=(\S+) reference=\S+ ceiling=(\S+)")


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; the caller turns them into metrics at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def current(self) -> Span | None:
        return getattr(self._local, "span", None)

    @contextmanager
    def span(self, name: str):
        parent = self.current()
        s = Span(next(self._ids), parent.sid if parent else None, name,
                 time.monotonic())
        self._local.span = s
        try:
            yield s
        finally:
            s.end = time.monotonic()
            self._local.span = parent
            self.spans.append(s)

    def run_under(self, parent: Span | None, fn, *args, **kwargs):
        """Run fn in this thread with `parent` as the open span."""
        previous = self.current()
        self._local.span = parent
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.span = previous

    def wrap(self, fn, observe=None):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(s.attrs, result)
                return result
        return traced


def _observe_eigvals(attrs, es):
    attrs["dim"] = len(es.values)
    attrs["vectors"] = es.vectors is not None
    attrs["backend"] = es.backend
    attrs["iterations"] = int(es.iterations)


def _observe_assemble(attrs, op):
    attrs["dim"] = op.dim


def _observe_track(attrs, branches):
    points = [pt for br in branches for pt in br.points]
    attrs["isolated"] = len(points)
    attrs["residual_max"] = max((pt.residual for pt in points), default=0.0)
    attrs["events"] = sum(len(br.events) for br in branches)


_OBSERVERS = {"eigvals": _observe_eigvals, "assemble": _observe_assemble,
              "track_branches": _observe_track}


class AmbiguityCounter(logging.Handler):
    """Counts the 'ambiguous branch match' warnings of diracstab.spectrum."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if record.getMessage().startswith("ambiguous branch match"):
            self.count += 1


@contextmanager
def installed(tracer: Tracer):
    """Wrap every binding in WRAPPED and the sweep's thread pool; undo on exit."""
    saved = []

    def patch(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    class PropagatingPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.run_under, tracer.current(), fn,
                                  *args, **kwargs)

    try:
        for module_name, attrs in WRAPPED.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                fn = getattr(module, attr)
                patch(module, attr, tracer.wrap(fn, _OBSERVERS.get(attr)))
        patch(importlib.import_module("diracstab.spectrum"),
              "ThreadPoolExecutor", PropagatingPool)
        yield tracer
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the part of it that its children cover.

    Children running concurrently in the pool overlap each other; counting
    their union, not their sum, keeps the parent's self time from going
    below zero.
    """
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.sid, ())]
        out[s.sid] = s.duration - covered([k for k in kids if k[1] > k[0]])
    return out


def spurious_ratio_max(report_text: str) -> float:
    """Largest metric/ceiling over the lines `validate` prints (0 if none)."""
    ratios = [float(m) / float(c) for m, c in _VALIDATE_LINE.findall(report_text)]
    return max(ratios, default=0.0)


def layer_metrics(spans, ambiguous: int, bytes_written: int,
                  report_text: str) -> dict:
    """Per-layer metrics of one traced workload run, by name."""
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def busy(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def self_s(name):
        return sum(selfs[s.sid] for s in by_name.get(name, ()))

    # a call that raised has no observed attributes
    eig = [s for s in by_name.get("eigen.eigvals", ()) if s.attrs]
    asm = [s for s in by_name.get("operator.assemble", ()) if s.attrs]
    track = [s for s in by_name.get("spectrum.track_branches", ()) if s.attrs]
    child_busy = sum(c.duration for t in track for c in spans
                     if c.parent == t.sid)
    track_wall = busy("spectrum.track_branches")
    return {
        "eigen.eigvals.s": busy("eigen.eigvals"),
        "eigen.eigvals.calls": len(by_name.get("eigen.eigvals", ())),
        "eigen.eigvals.dim_max": max((s.attrs["dim"] for s in eig), default=0),
        "eigen.eigvals.flops_computed": sum(
            (FLOPS_WITH_VECTORS if s.attrs["vectors"] else FLOPS_VALUES_ONLY)
            * s.attrs["dim"] ** 3 for s in eig),
        "eigen.eigvals.vector_calls": sum(s.attrs["vectors"] for s in eig),
        "eigen.eigvals.native_calls": sum(s.attrs["backend"] == "native"
                                          for s in eig),
        "eigen.eigvals.qr_sweeps": sum(s.attrs["iterations"] for s in eig),
        "operator.assemble.self_s": self_s("operator.assemble"),
        "operator.assemble.calls": len(by_name.get("operator.assemble", ())),
        "operator.assemble.bytes_computed": sum(
            COMPLEX_BYTES * s.attrs["dim"] ** 2 for s in asm),
        "operator.continuous_bands.s": busy("operator.continuous_bands"),
        "soliton.eval_profile.s": busy("soliton.eval_profile"),
        "cheb.build_grid.s": busy("cheb.build_grid"),
        "analytics.asymptotic_prediction.s": busy(
            "analytics.asymptotic_prediction"),
        "analytics.asymptotic_prediction.calls": len(
            by_name.get("analytics.asymptotic_prediction", [])),
        "spectrum.track_branches.self_s": self_s("spectrum.track_branches"),
        "spectrum.track_branches.overlap": (child_busy / track_wall
                                            if track_wall > 0 else 0.0),
        "spectrum.isolated_count": sum(s.attrs["isolated"] for s in track),
        "spectrum.residual_max": max((s.attrs["residual_max"] for s in track),
                                     default=0.0),
        "spectrum.ambiguous_matches": ambiguous,
        "spectrum.events": sum(s.attrs["events"] for s in track),
        "spectrum.spurious_metric.ratio_max": spurious_ratio_max(report_text),
        "cli.self_s": self_s("cli.main"),
        "cli.bytes_written": bytes_written,
    }
