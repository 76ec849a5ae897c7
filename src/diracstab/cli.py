"""Command-line front end.

Subcommands: soliton, asymptotics, spectrum, sweep, validate.  All output
files are deterministic byte-for-byte for a fixed configuration: every
file starts with a header comment echoing the full effective config and
the package version, and contains no timestamps.

Each option is declared once, with its built-in default, in
build_parser.  A JSON config file (--config, keys named like the long
flags with underscores) becomes the subcommand parser's defaults, so the
parser applies the precedence: command-line flags > config file >
built-in defaults.  A null in the file keeps the built-in default, and an
int given for a float option is read as a float.

sweep --jobs K and validate solve on pool.map_forked: sweep on min(K,
wavenumbers, usable cpus) workers, validate on min(cells, usable cpus),
largest N first, with no flag for it.  Every output is formatted in the
command's process, so none depends on the worker count.

Every command solves on one BLAS thread.  Importing this module loads
numpy with OpenBLAS on one thread, unless numpy is loaded already or the
environment sets a count (OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS), which is kept.  spectrum, like the pool, solves under
pool.single_blas_thread, which covers a process that loaded numpy first.

Exit codes: 0 success; 2 domain or configuration error (among them a
non-finite value, a negative spectrum --margin, a soliton --x-max that
is not positive, or soliton --points below 1); 3 numerical
non-convergence; 4 validation failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# OpenBLAS reads its thread count once, when numpy loads it.  On one
# thread it never starts the thread server whose helper thread would spin
# idle until the first fork.  The variable is set for this import alone,
# so no subprocess inherits it.
if "numpy" not in sys.modules and os.environ.keys().isdisjoint(
        ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

import numpy as np

from . import __version__, pool
from .analytics import NumericsError, asymptotic_prediction
from .cheb import build_grid
# eigvals is unused here; benchmarks/tracing.py still wraps cli.eigvals
from .eigen import ConvergenceError, eigvals  # noqa: F401
from .operator import assemble, continuous_bands
from .soliton import (DomainError, ModelKind, SolitonProfile,
                      algebraic_profile_mtm, eval_profile)
from .spectrum import (BranchNotFound, _checked_margin, default_margin,
                       isolated_eigs, parity_eigvals, spurious_metric,
                       summarize_sweep, track_branches)

OUTDIR_ENV = "DIRACSTAB_OUTDIR"

_MODEL_DEFAULT_N = {"mtm": 300, "gn": 400}
_MODEL_DEFAULT_PSTOP = {"mtm": 2.0, "gn": 1.5}

# Published p=0 accuracy metrics being reproduced by `validate`:
# (model, omega, N) -> reference value.
_REFERENCE_METRICS = {
    ("mtm", -0.5, 100): 1.96e-1, ("mtm", -0.5, 300): 1.36e-4,
    ("mtm", -0.5, 500): 2.22e-7,
    ("mtm", 0.0, 100): 2.57e-1, ("mtm", 0.0, 300): 2.18e-4,
    ("mtm", 0.0, 500): 8.77e-5,
    ("mtm", 0.5, 100): 1.16e-1, ("mtm", 0.5, 300): 7.02e-5,
    ("mtm", 0.5, 500): 6.56e-8,
    ("gn", 1.0 / 3.0, 100): 6.48e-2, ("gn", 1.0 / 3.0, 300): 1.72e-2,
    ("gn", 1.0 / 3.0, 500): 1.38e-2,
    ("gn", 2.0 / 3.0, 100): 2.03e-3, ("gn", 2.0 / 3.0, 300): 1.68e-3,
    ("gn", 2.0 / 3.0, 500): 1.20e-3,
}

# Ceilings stated explicitly for specific cells override the generic
# one-order-of-magnitude rule.
_STATED_CEILINGS = {
    ("mtm", 0.0, 300): 1e-3,
    ("gn", 2.0 / 3.0, 300): 1e-2,
    ("mtm", 0.5, 500): 1e-6,
}

def _parse_range(text: str) -> list:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be start:stop:step, got {text!r}")
    start, stop, step = (float(t) for t in parts)
    if not np.isfinite([start, stop, step]).all():
        raise ValueError(f"range {text!r} must be finite")
    if step <= 0.0 or stop < start:
        raise ValueError(f"empty or invalid range {text!r}")
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    return [round(start + i * step, 12) for i in range(count)]


def _resolve_out(path: str) -> str:
    """path under $DIRACSTAB_OUTDIR, where that is set and path relative."""
    outdir = os.environ.get(OUTDIR_ENV, "")
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _config_echo(cfg: dict) -> str:
    items = ", ".join(f"{k}={cfg[k]!r}" for k in sorted(cfg))
    return f"# diracstab {__version__} | {items}"


def _emit(cfg: dict, stem: str, columns: list, rows: list) -> str:
    """Write rows in cfg's format to its --out, or to stem.<format>,
    resolved by _resolve_out; print the path and return it."""
    fmt = cfg["format"]
    path = _resolve_out(f"{stem}.{fmt}" if cfg["out"] is None else cfg["out"])
    with open(path, "w", encoding="utf-8") as fh:
        if fmt == "json":
            json.dump({"version": __version__, "config": cfg,
                       "columns": columns, "rows": rows},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
        else:
            fh.write(_config_echo(cfg) + "\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(repr(float(v)) if isinstance(v, float)
                                  else str(v) for v in row) + "\n")
    print(path)
    return path


def _options(parser: argparse.ArgumentParser) -> dict:
    """A subcommand's options by dest, but --help and --config: the keys
    of its config file and of its echoed configuration."""
    return {a.dest: a for a in parser._actions
            if a.dest not in ("help", "config")}


def _check_config_value(action: argparse.Action, value) -> None:
    """Reject a config-file value its flag's parser could not produce."""
    # store_const flags (nargs 0) yield their const; others parse to type
    expected = type(action.const) if action.nargs == 0 else action.type or str
    accepted = (int, float) if expected is float else expected
    wrong_bool = isinstance(value, bool) != (expected is bool)
    if wrong_bool or not isinstance(value, accepted):
        raise ValueError(f"config key {action.dest!r} must be "
                         f"{expected.__name__}, got {value!r}")
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"config key {action.dest!r} must be one of "
                         f"{list(action.choices)}, got {value!r}")


def _config_defaults(path: str, parser: argparse.ArgumentParser) -> dict:
    """The non-null values of the JSON config file at path, checked
    against parser's options; an int for a float option becomes a
    float, as its flag would parse it."""
    with open(path, "r", encoding="utf-8") as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise ValueError("config file must hold a JSON object")
    options = _options(parser)
    unknown = set(loaded) - set(options)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    defaults = {}
    for key, value in loaded.items():
        if value is not None:
            action = options[key]
            _check_config_value(action, value)
            defaults[key] = float(value) if action.type is float else value
    return defaults


def _require(cfg: dict, key: str):
    if cfg.get(key) is None:
        raise ValueError(f"missing required option --{key.replace('_', '-')}")
    return cfg[key]


def _model_of(cfg: dict) -> ModelKind:
    return ModelKind(_require(cfg, "model"))


def _grid_of(cfg: dict, model: ModelKind):
    """The grid of --n, by default the model's, and --scale."""
    if cfg["n"] is None:
        cfg["n"] = _MODEL_DEFAULT_N[model.value]
    return build_grid(cfg["n"], cfg["scale"])


def cmd_soliton(cfg: dict) -> int:
    if not 0.0 < cfg["x_max"] < np.inf:
        raise ValueError(f"--x-max must be positive and finite, "
                         f"got {cfg['x_max']}")
    if cfg["points"] < 1:
        raise ValueError(f"--points must be at least 1, got {cfg['points']}")
    model = _model_of(cfg)
    omega = _require(cfg, "omega")
    xs = np.linspace(-cfg["x_max"], cfg["x_max"], cfg["points"])
    if (model is ModelKind.MASSIVE_THIRRING and omega == -1.0
            and cfg["allow_limit"]):
        u = algebraic_profile_mtm(xs)
    else:
        u = eval_profile(SolitonProfile.create(model, omega), xs)
    rows = [[float(x), float(v.real), float(v.imag), float(abs(v))]
            for x, v in zip(xs, u)]
    _emit(cfg, f"soliton-{model.value}-omega{omega!r}",
          ["x", "re_u", "im_u", "abs_u"], rows)
    return 0


def cmd_asymptotics(cfg: dict) -> int:
    model = _model_of(cfg)
    if cfg["omega_range"] is None:
        cfg["omega_range"] = ("-0.95:0.95:0.05"
                              if model is ModelKind.MASSIVE_THIRRING
                              else "0.05:0.95:0.05")
    rows = []
    for om in _parse_range(cfg["omega_range"]):
        pred = asymptotic_prediction(model, om, with_corrections=False)
        rows.append([float(om), pred.lambda_r, pred.lambda_i])
    _emit(cfg, f"asymptotics-{model.value}", ["omega", "lambda_r", "lambda_i"],
          rows)
    return 0


def cmd_spectrum(cfg: dict) -> int:
    model = _model_of(cfg)
    omega = _require(cfg, "omega")
    # on one BLAS thread, as every other command solves
    with pool.single_blas_thread():
        op = assemble(model, omega, cfg["p"], _grid_of(cfg, model))
        bands = continuous_bands(model, omega, cfg["p"])
        # an explicit margin is checked before the solve
        margin = (default_margin(bands) if cfg["margin"] is None
                  else _checked_margin(cfg["margin"]))
        es = parity_eigvals(op)
    iso = set(complex(v) for v in isolated_eigs(es, bands, margin))
    cfg["band_edges"] = [[e, d] for e, d in bands.band_edges]
    cfg["gap_closed"] = bands.gap_closed
    cfg["margin"] = margin
    rows = [[float(v.real), float(v.imag), int(complex(v) in iso)]
            for v in es.values]
    _emit(cfg, f"spectrum-{model.value}-omega{omega!r}-p{cfg['p']!r}",
          ["re_lambda", "im_lambda", "isolated"], rows)
    return 0


def cmd_sweep(cfg: dict) -> int:
    model = _model_of(cfg)
    omega = _require(cfg, "omega")
    if cfg["p_range"] is None:
        cfg["p_range"] = f"0.05:{_MODEL_DEFAULT_PSTOP[model.value]}:0.05"
    ps = _parse_range(cfg["p_range"])
    if len(ps) < 2:
        raise ValueError(f"p-range {cfg['p_range']!r} has fewer than 2 points")
    branches = track_branches(model, omega, ps, _grid_of(cfg, model),
                              jobs=cfg["jobs"])
    rows = []
    for br in branches:
        for pt in br.points:
            rows.append([model.value, omega, pt.p, br.branch_id,
                         float(pt.lam.real), float(pt.lam.imag),
                         pt.classification])
    # canonical order regardless of tracking internals: by (p, branch)
    rows.sort(key=lambda r: (r[2], r[3]))
    summary = summarize_sweep(branches, model, omega, ps)
    out = _emit(cfg, f"sweep-{model.value}-omega{omega!r}",
                ["model", "omega", "p", "branch_id", "re_lambda",
                 "im_lambda", "class"], rows)
    summary_out = cfg["summary_out"]
    if summary_out is None:
        extension = "." + cfg["format"]
        stem = out[:-len(extension)] if out.endswith(extension) else out
        summary_out = stem + ".summary.json"
    else:
        summary_out = _resolve_out(summary_out)
    with open(summary_out, "w", encoding="utf-8") as fh:
        json.dump({"version": __version__, "config": cfg,
                   "summary": summary}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(summary_out)
    return 0


def _p0_metric(model: ModelKind, omega: float, grid) -> float:
    # a function of its own, so that the blocks are freed before the next
    # cell's
    op = assemble(model, omega, 0.0, grid)
    return spurious_metric(parity_eigvals(op), im_cutoff=10.0)


def cmd_validate(cfg: dict) -> int:
    models = ([ModelKind(cfg["model"])] if cfg["model"]
              else [ModelKind.MASSIVE_THIRRING, ModelKind.GROSS_NEVEU])
    n_list = [int(t) for t in cfg["n_values"].split(",") if t]
    if not n_list:
        raise ValueError("--n-values names no N")
    if len(set(n_list)) < len(n_list):
        raise ValueError(f"--n-values repeats an N: {cfg['n_values']}")
    for model in models:
        published = sorted({n for mod, _, n in _REFERENCE_METRICS
                            if mod == model.value})
        for n in n_list:
            if n not in published:
                raise ValueError(f"no published {model.value} metric for "
                                 f"N={n}; published N values: {published}")
    # one grid per N, shared by the models
    grids = {n: build_grid(n, cfg["scale"]) for n in n_list}
    cells = []
    for model in models:
        omegas = sorted({om for mod, om, _ in _REFERENCE_METRICS
                         if mod == model.value})
        for n in n_list:
            cells += [(model, om, grids[n]) for om in omegas]
    # one worker per cell up to the usable cpus, each on the pool's one
    # BLAS thread: the (mtm, +0.5, 500) cell passes on one thread only.
    # The cells go to the pool largest N first, so that no worker is left
    # with the large ones at the end.
    order = sorted(range(len(cells)), key=lambda k: -cells[k][2].n)
    solved = pool.map_forked(lambda k: _p0_metric(*cells[k]), order,
                             len(cells))
    metrics = dict(zip(order, solved))
    lines = []
    all_ok = True
    for k, (model, om, grid) in enumerate(cells):
        metric = metrics[k]
        key = (model.value, om, grid.n)
        reference = _REFERENCE_METRICS[key]
        ceiling = _STATED_CEILINGS.get(key, 10.0 * reference)
        ok = metric <= ceiling
        all_ok = all_ok and ok
        lines.append(
            f"{model.value} omega={om:+.4f} N={grid.n}: "
            f"metric={metric:.3e} reference={reference:.3e} "
            f"ceiling={ceiling:.3e} "
            f"{'PASS' if ok else 'FAIL'}")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if cfg["out"]:
        with open(_resolve_out(cfg["out"]), "w", encoding="utf-8") as fh:
            fh.write(_config_echo(cfg) + "\n")
            fh.write(report)
    return 0 if all_ok else 4


def _subcommand(sub, name: str, func, help_text: str):
    sp = sub.add_parser(name, help=help_text)
    sp.add_argument("--model", choices=["mtm", "gn"])
    sp.add_argument("--config", help="JSON config file (flag names as keys)")
    sp.add_argument("--out", help="output file path")
    sp.set_defaults(func=func, parser=sp)
    return sp


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="diracstab",
        description="Transverse spectral stability of line solitons in two "
                    "cubic Dirac models.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    soliton = _subcommand(sub, "soliton", cmd_soliton,
                          "sample a soliton profile to CSV")
    soliton.add_argument("--x-max", dest="x_max", type=float, default=20.0)
    soliton.add_argument("--points", type=int, default=801)
    soliton.add_argument("--allow-limit", dest="allow_limit",
                         action="store_const", const=True, default=False,
                         help="permit the omega=-1 algebraic profile")

    asymptotics = _subcommand(sub, "asymptotics", cmd_asymptotics,
                              "small-p eigenvalue slopes over an omega grid")
    asymptotics.add_argument("--omega-range", dest="omega_range",
                             help="start:stop:step")

    spectrum = _subcommand(sub, "spectrum", cmd_spectrum,
                           "one eigensolve at fixed (omega, p)")
    spectrum.add_argument("--p", type=float, default=0.0)
    spectrum.add_argument("--margin", type=float)

    sweep = _subcommand(sub, "sweep", cmd_sweep,
                        "track eigenvalue branches over p")
    sweep.add_argument("--p-range", dest="p_range", help="start:stop:step")
    sweep.add_argument("--jobs", type=int, default=1)
    sweep.add_argument("--summary-out", dest="summary_out")

    validate = _subcommand(sub, "validate", cmd_validate,
                           "recompute the p=0 accuracy tables and compare")
    validate.add_argument("--n-values", dest="n_values", default="100,300",
                          help="comma-separated list, e.g. 100,300")

    for sp in (soliton, spectrum, sweep):
        sp.add_argument("--omega", type=float)
    for sp in (spectrum, sweep):
        sp.add_argument("--n", type=int)
    for sp in (spectrum, sweep, validate):
        sp.add_argument("--scale", type=float, default=10.0)
    for sp in (soliton, asymptotics, spectrum, sweep):
        sp.add_argument("--format", choices=["csv", "json"], default="csv")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.config:
            args.parser.set_defaults(**_config_defaults(args.config,
                                                        args.parser))
            args = ap.parse_args(argv)
        return args.func({dest: getattr(args, dest)
                          for dest in _options(args.parser)})
    except (DomainError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, NumericsError, BranchNotFound) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
