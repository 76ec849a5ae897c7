"""Command-line front end.

Subcommands: soliton, asymptotics, spectrum, sweep, validate.  All output
files are deterministic byte-for-byte for a fixed configuration: every
file starts with a header comment echoing the full effective config and
the package version, and contains no timestamps.

Config precedence: command-line flags > JSON config file (--config, keys
named like the long flags with underscores) > built-in defaults.

sweep --jobs K and validate solve on forked worker processes through
spectrum._map_forked, each worker on one BLAS thread, and never on more
workers than the process has usable cpus (its affinity mask): sweep on
min(K, wavenumbers, cpus), validate on min(cells, cpus), with no flag for
it.  Each worker is sent the next wavenumber or cell as soon as it
returns one; a failure raises the error of the first failing one, as
--jobs 1 does.  The pool uses os.fork and pipes, not multiprocessing.
Every output is formatted in the command's process, so none depends on
the worker count.

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

import numpy as np

from . import __version__
from .analytics import NumericsError, asymptotic_prediction
from .cheb import build_grid
# eigvals is unused here; benchmarks/tracing.py still wraps cli.eigvals
from .eigen import ConvergenceError, eigvals, single_blas_thread  # noqa: F401
from .operator import assemble, continuous_bands
from .soliton import (DomainError, ModelKind, SolitonProfile,
                      algebraic_profile_mtm, eval_profile)
from .spectrum import (BranchNotFound, _checked_margin, _map_forked,
                       default_margin, isolated_eigs, parity_eigvals,
                       spurious_metric, summarize_sweep, track_branches)

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

_VALIDATE_OMEGAS = {"mtm": (-0.5, 0.0, 0.5), "gn": (1.0 / 3.0, 2.0 / 3.0)}


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


def _resolve_out(path: str | None, default_name: str) -> str:
    outdir = os.environ.get(OUTDIR_ENV, "")
    if path is None:
        path = default_name
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _config_echo(cfg: dict) -> str:
    items = ", ".join(f"{k}={cfg[k]!r}" for k in sorted(cfg))
    return f"# diracstab {__version__} | {items}"


def _write_rows(path: str, cfg: dict, columns: list, rows: list,
                fmt: str) -> None:
    if fmt == "json":
        doc = {"version": __version__, "config": cfg,
               "columns": columns, "rows": rows}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_config_echo(cfg) + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _check_config_value(action: argparse.Action, value) -> None:
    """Reject a config-file value its flag's parser could not produce."""
    if value is None:
        return
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


def _merged(args: argparse.Namespace, defaults: dict) -> dict:
    """flags > config file > defaults, with None meaning 'not given'."""
    cfg = dict(defaults)
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        actions = {a.dest: a for a in args.parser._actions}
        for key, value in loaded.items():
            _check_config_value(actions[key], value)
        cfg.update(loaded)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _require(cfg: dict, key: str):
    if cfg.get(key) is None:
        raise ValueError(f"missing required option --{key.replace('_', '-')}")
    return cfg[key]


def _model_of(cfg: dict) -> ModelKind:
    return ModelKind(_require(cfg, "model"))


def _fill_grid_defaults(cfg: dict, model: ModelKind) -> None:
    if cfg.get("n") is None:
        cfg["n"] = _MODEL_DEFAULT_N[model.value]
    if cfg.get("scale") is None:
        cfg["scale"] = 10.0


def cmd_soliton(args) -> int:
    defaults = {"model": None, "omega": None, "x_max": 20.0, "points": 801,
                "allow_limit": False, "out": None, "format": "csv"}
    cfg = _merged(args, defaults)
    if not 0.0 < cfg["x_max"] < np.inf:
        raise ValueError(f"--x-max must be positive and finite, "
                         f"got {cfg['x_max']}")
    if cfg["points"] < 1:
        raise ValueError(f"--points must be at least 1, got {cfg['points']}")
    model = _model_of(cfg)
    omega = float(_require(cfg, "omega"))
    xs = np.linspace(-cfg["x_max"], cfg["x_max"], int(cfg["points"]))
    if (model is ModelKind.MASSIVE_THIRRING and omega == -1.0
            and cfg["allow_limit"]):
        u = algebraic_profile_mtm(xs)
    else:
        profile = SolitonProfile.create(model, omega)
        u = eval_profile(profile, xs)
    cfg["model"] = model.value
    cfg["omega"] = omega
    rows = [[float(x), float(v.real), float(v.imag), float(abs(v))]
            for x, v in zip(xs, u)]
    out = _resolve_out(cfg["out"],
                       f"soliton-{model.value}-omega{omega!r}.{cfg['format']}")
    _write_rows(out, cfg, ["x", "re_u", "im_u", "abs_u"], rows, cfg["format"])
    print(out)
    return 0


def cmd_asymptotics(args) -> int:
    defaults = {"model": None, "omega_range": None, "out": None,
                "format": "csv"}
    cfg = _merged(args, defaults)
    model = _model_of(cfg)
    if cfg["omega_range"] is None:
        cfg["omega_range"] = ("-0.95:0.95:0.05"
                              if model is ModelKind.MASSIVE_THIRRING
                              else "0.05:0.95:0.05")
    omegas = _parse_range(cfg["omega_range"])
    cfg["model"] = model.value
    rows = []
    for om in omegas:
        pred = asymptotic_prediction(model, om, with_corrections=False)
        rows.append([float(om), pred.lambda_r, pred.lambda_i])
    out = _resolve_out(cfg["out"], f"asymptotics-{model.value}.{cfg['format']}")
    _write_rows(out, cfg, ["omega", "lambda_r", "lambda_i"], rows,
                cfg["format"])
    print(out)
    return 0


def cmd_spectrum(args) -> int:
    defaults = {"model": None, "omega": None, "p": 0.0, "n": None,
                "scale": None, "margin": None, "out": None, "format": "csv"}
    cfg = _merged(args, defaults)
    model = _model_of(cfg)
    omega = float(_require(cfg, "omega"))
    _fill_grid_defaults(cfg, model)
    grid = build_grid(int(cfg["n"]), float(cfg["scale"]))
    op = assemble(model, omega, float(cfg["p"]), grid)
    bands = continuous_bands(model, omega, float(cfg["p"]))
    # an explicit margin is checked before the solve
    margin = (default_margin(bands) if cfg["margin"] is None
              else _checked_margin(float(cfg["margin"])))
    es = parity_eigvals(op)
    iso = set(complex(v) for v in isolated_eigs(es, bands, margin))
    cfg["model"] = model.value
    cfg["omega"] = omega
    cfg["band_edges"] = [[e, d] for e, d in bands.band_edges]
    cfg["gap_closed"] = bands.gap_closed
    cfg["margin"] = margin
    rows = [[float(v.real), float(v.imag), int(complex(v) in iso)]
            for v in es.values]
    out = _resolve_out(
        cfg["out"],
        f"spectrum-{model.value}-omega{omega!r}-p{cfg['p']!r}.{cfg['format']}")
    _write_rows(out, cfg, ["re_lambda", "im_lambda", "isolated"], rows,
                cfg["format"])
    print(out)
    return 0


def cmd_sweep(args) -> int:
    defaults = {"model": None, "omega": None, "p_range": None, "n": None,
                "scale": None, "jobs": 1, "out": None, "summary_out": None,
                "format": "csv"}
    cfg = _merged(args, defaults)
    model = _model_of(cfg)
    omega = float(_require(cfg, "omega"))
    _fill_grid_defaults(cfg, model)
    if cfg["p_range"] is None:
        cfg["p_range"] = f"0.05:{_MODEL_DEFAULT_PSTOP[model.value]}:0.05"
    ps = _parse_range(cfg["p_range"])
    if len(ps) < 2:
        raise ValueError(f"p-range {cfg['p_range']!r} has fewer than 2 points")
    grid = build_grid(int(cfg["n"]), float(cfg["scale"]))
    branches = track_branches(model, omega, ps, grid, jobs=int(cfg["jobs"]))
    cfg["model"] = model.value
    cfg["omega"] = omega
    rows = []
    for br in branches:
        for pt in br.points:
            rows.append([model.value, float(omega), pt.p, br.branch_id,
                         float(pt.lam.real), float(pt.lam.imag),
                         pt.classification])
    # canonical order regardless of tracking internals: by (p, branch)
    rows.sort(key=lambda r: (r[2], r[3]))
    out = _resolve_out(cfg["out"],
                       f"sweep-{model.value}-omega{omega!r}.{cfg['format']}")
    _write_rows(out, cfg,
                ["model", "omega", "p", "branch_id", "re_lambda",
                 "im_lambda", "class"], rows, cfg["format"])
    summary = summarize_sweep(branches, model, omega, ps)
    summary_out = cfg["summary_out"]
    if summary_out is None:
        extension = "." + cfg["format"]
        stem = out[:-len(extension)] if out.endswith(extension) else out
        summary_out = stem + ".summary.json"
    else:
        summary_out = _resolve_out(summary_out, summary_out)
    with open(summary_out, "w", encoding="utf-8") as fh:
        json.dump({"version": __version__, "config": cfg,
                   "summary": summary}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(out)
    print(summary_out)
    return 0


def _p0_metric(model: ModelKind, omega: float, grid) -> float:
    # a function of its own, so that the blocks are freed before the next
    # cell's
    op = assemble(model, omega, 0.0, grid)
    return spurious_metric(parity_eigvals(op), im_cutoff=10.0)


def cmd_validate(args) -> int:
    defaults = {"model": None, "n_values": "100,300", "scale": None,
                "out": None}
    cfg = _merged(args, defaults)
    models = ([ModelKind(cfg["model"])] if cfg["model"]
              else [ModelKind.MASSIVE_THIRRING, ModelKind.GROSS_NEVEU])
    n_list = [int(t) for t in str(cfg["n_values"]).split(",") if t]
    if not n_list:
        raise ValueError("--n-values names no N")
    for model in models:
        published = sorted({n for mod, _, n in _REFERENCE_METRICS
                            if mod == model.value})
        for n in n_list:
            if any((model.value, om, n) not in _REFERENCE_METRICS
                   for om in _VALIDATE_OMEGAS[model.value]):
                raise ValueError(f"no published {model.value} metric for "
                                 f"N={n}; published N values: {published}")
    scale = float(cfg["scale"]) if cfg["scale"] is not None else 10.0
    cells = []
    for model in models:
        for n in n_list:
            grid = build_grid(n, scale)
            cells += [(model, om, grid)
                      for om in _VALIDATE_OMEGAS[model.value]]
    # one worker per cell up to the usable cpus, each on one BLAS thread,
    # as in a sweep: a second BLAS thread adds cpu time to these solves and
    # saves no wall time, and the (mtm, +0.5, 500) cell passes on one
    # thread only
    with single_blas_thread():
        metrics = _map_forked(lambda cell: _p0_metric(*cell), cells,
                              len(cells))
    lines = []
    all_ok = True
    for (model, om, grid), metric in zip(cells, metrics):
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
        out = _resolve_out(cfg["out"], cfg["out"])
        with open(out, "w", encoding="utf-8") as fh:
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

    sp = _subcommand(sub, "soliton", cmd_soliton,
                     "sample a soliton profile to CSV")
    sp.add_argument("--omega", type=float)
    sp.add_argument("--x-max", dest="x_max", type=float)
    sp.add_argument("--points", type=int)
    sp.add_argument("--allow-limit", dest="allow_limit", action="store_const",
                    const=True, help="permit the omega=-1 algebraic profile")
    sp.add_argument("--format", choices=["csv", "json"])

    sp = _subcommand(sub, "asymptotics", cmd_asymptotics,
                     "small-p eigenvalue slopes over an omega grid")
    sp.add_argument("--omega-range", dest="omega_range",
                    help="start:stop:step")
    sp.add_argument("--format", choices=["csv", "json"])

    sp = _subcommand(sub, "spectrum", cmd_spectrum,
                     "one eigensolve at fixed (omega, p)")
    sp.add_argument("--omega", type=float)
    sp.add_argument("--p", type=float)
    sp.add_argument("--n", type=int)
    sp.add_argument("--scale", type=float)
    sp.add_argument("--margin", type=float)
    sp.add_argument("--format", choices=["csv", "json"])

    sp = _subcommand(sub, "sweep", cmd_sweep,
                     "track eigenvalue branches over p")
    sp.add_argument("--omega", type=float)
    sp.add_argument("--p-range", dest="p_range", help="start:stop:step")
    sp.add_argument("--n", type=int)
    sp.add_argument("--scale", type=float)
    sp.add_argument("--jobs", type=int)
    sp.add_argument("--summary-out", dest="summary_out")
    sp.add_argument("--format", choices=["csv", "json"])

    sp = _subcommand(sub, "validate", cmd_validate,
                     "recompute the p=0 accuracy tables and compare")
    sp.add_argument("--n-values", dest="n_values",
                    help="comma-separated list, e.g. 100,300")
    sp.add_argument("--scale", type=float)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, NumericsError, BranchNotFound) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
