"""The two workloads, the seed -> input mapping, and the output checks.

Each workload has a small fixed pool of inputs with stored references in
`references/`.  Seed s uses pool entry s mod len(pool); entry 0 is the
configuration each workload was chosen for.  Entries within a pool keep
the matrix dimension, the number of solves and the solver path fixed, so
that seeds change the numbers the program computes but not how much work
it does.
"""

from __future__ import annotations

import csv
import json
import os
import re
from dataclasses import dataclass

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references")

P_RANGE = "0.05:1.0:0.05"

# Below the dim-96 switch (dim 4(N+1) = 92), so backend=auto runs the native
# QR.  The physics is under-resolved at this N: its sweep is checked by
# reproduction of stored output only.
COARSE_N = 22

# Tolerances of tests/test_acceptance.py criteria 3 (mtm) and 4 (gn): the
# relative slope deviation allowed against asymptotic_prediction.
SLOPE_TOL = {"mtm": 0.01, "gn": 0.015}


@dataclass(frozen=True)
class Entry:
    """One input of a workload: cli.main argv lists and the set-up grids."""

    calls: tuple
    grids: tuple


def _sweep(model, omega, n, jobs=None):
    argv = ["sweep", "--model", model, "--omega", omega, "--n", str(n),
            "--p-range", P_RANGE]
    return argv + (["--jobs", str(jobs)] if jobs else [])


def _validate(*models):
    return tuple(["validate", "--n-values", "100,300"]
                 + (["--model", m] if m else []) for m in models)


# why each workload exists is recorded in BENCHMARK.json
WORKLOADS = {
    # The native-QR sweep rides along with the gn sweep rather than forming
    # a workload of its own: alone, its pure-Python loop swung by a quarter
    # from run to run on a shared two-core host.
    "sweeps": [Entry((_sweep("gn", gn_om, 160, jobs=2),
                      _sweep("mtm", mtm_om, COARSE_N),
                      ["asymptotics", "--model", "mtm"],
                      ["asymptotics", "--model", "gn"]),
                     ((160, 10.0), (COARSE_N, 10.0)))
               for gn_om, mtm_om in (("0.6667", "0"), ("0.6", "0.25"),
                                     ("0.7", "0.5"))],
    # the same ten solves, in one call or split by model in either order
    "validate-p0": [Entry(calls, ((100, 10.0), (300, 10.0)))
                    for calls in (_validate(None), _validate("mtm", "gn"),
                                  _validate("gn", "mtm"))],
}


def entry_for(workload: str, seed: int) -> Entry:
    pool = WORKLOADS[workload]
    return pool[seed % len(pool)]


class Checks:
    """Counts correctness checks; each failure is kept as a message."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _printed_paths(stdout: str) -> list:
    return [line for line in stdout.splitlines() if line]


def _reference_name(path: str) -> str:
    return os.path.join(REFERENCES, os.path.basename(path))


def _load_summary(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["summary"]


def _check_summary(checks: Checks, got: dict, ref: dict, model: str,
                   label: str) -> None:
    for key in ("instability_threshold", "quartet_window",
                "real_pair_present_at_final_p"):
        checks.expect(got[key] == ref[key],
                      f"{label}: {key} {got[key]!r} != reference {ref[key]!r}")
    tol = SLOPE_TOL[model]
    rel = (abs(got["max_growth_rate"] - ref["max_growth_rate"])
           / abs(ref["max_growth_rate"]))
    checks.expect(rel <= tol, f"{label}: max_growth_rate "
                              f"{got['max_growth_rate']!r} off reference by "
                              f"{rel:.2e} (tol {tol})")
    events = [(e["p"], e["label"]) for e in got["events"]]
    ref_events = [(e["p"], e["label"]) for e in ref["events"]]
    checks.expect(sorted(events) == sorted(ref_events),
                  f"{label}: events {events} != reference {ref_events}")


def _first_p_values(csv_path: str):
    with open(csv_path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh
                                   if not line.startswith("#")))
    p0 = min(float(r["p"]) for r in rows)
    return p0, [complex(float(r["re_lambda"]), float(r["im_lambda"]))
                for r in rows if float(r["p"]) == p0]


def _check_first_p_slopes(checks: Checks, csv_path: str, model: str,
                          omega: float, label: str) -> None:
    """The eigenvalues nearest p*lambda_r and i*p*lambda_i at the first p
    give slopes within the acceptance tolerance of the prediction."""
    from diracstab.analytics import asymptotic_prediction
    pred = asymptotic_prediction(model, omega, with_corrections=False)
    p0, values = _first_p_values(csv_path)
    tol = SLOPE_TOL[model]
    for seed, slope, part in ((p0 * pred.lambda_r, pred.lambda_r, "real"),
                              (1j * p0 * pred.lambda_i, pred.lambda_i,
                               "imag")):
        lam = min(values, key=lambda v: abs(v - seed))
        got = (lam.real if part == "real" else lam.imag) / p0
        rel = abs(got - slope) / slope
        checks.expect(rel <= tol, f"{label}: {part} slope {got:.6g} at "
                                  f"p={p0} off prediction {slope:.6g} by "
                                  f"{rel:.2e} (tol {tol})")


def _check_sweep(checks: Checks, argv: list, stdout: str,
                 slopes: bool) -> None:
    model, omega = argv[argv.index("--model") + 1], argv[argv.index("--omega") + 1]
    label = f"sweep {model} omega={omega}"
    paths = _printed_paths(stdout)
    checks.expect(len(paths) == 2, f"{label}: printed {paths}")
    if len(paths) != 2:
        return
    csv_path, summary_path = paths
    _check_summary(checks, _load_summary(summary_path),
                   _load_summary(_reference_name(summary_path)), model, label)
    if slopes:
        _check_first_p_slopes(checks, csv_path, model, float(omega), label)


def _check_byte_equal(checks: Checks, stdout: str, label: str) -> None:
    paths = _printed_paths(stdout)
    checks.expect(len(paths) == 1, f"{label}: printed {paths}")
    if len(paths) != 1:
        return
    with open(paths[0], "rb") as got, \
            open(_reference_name(paths[0]), "rb") as ref:
        checks.expect(got.read() == ref.read(),
                      f"{label}: {os.path.basename(paths[0])} differs from "
                      "the reference")


_VALIDATE_LINE = re.compile(
    r"^(mtm|gn) omega=(\S+) N=(\d+): metric=\S+ reference=\S+ "
    r"ceiling=\S+ (PASS|FAIL)$")

# (model, N) -> number of omegas `validate --n-values 100,300` reports
_VALIDATE_CELLS = {("mtm", 100): 3, ("mtm", 300): 3, ("gn", 100): 2,
                   ("gn", 300): 2}


def _check_validate(checks: Checks, stdouts: list) -> None:
    lines = [line for out in stdouts for line in out.splitlines() if line]
    cells: dict = {}
    for line in lines:
        m = _VALIDATE_LINE.match(line)
        checks.expect(m is not None and m.group(4) == "PASS",
                      f"validate: {line}")
        if m:
            key = (m.group(1), int(m.group(3)))
            cells[key] = cells.get(key, 0) + 1
    checks.expect(cells == _VALIDATE_CELLS,
                  f"validate: cells {cells} != {_VALIDATE_CELLS}")


def check(workload: str, entry: Entry, codes: list, stdouts: list,
          checks: Checks) -> None:
    """Check one repetition's exit codes and outputs against the references.

    Output that cannot be read or parsed fails a check; it does not stop
    the benchmark.
    """
    for argv, code in zip(entry.calls, codes):
        checks.expect(code == 0, f"{' '.join(argv)}: exit code {code}")
    if codes != [0] * len(entry.calls):
        return
    try:
        if workload == "validate-p0":
            _check_validate(checks, stdouts)
            return
        for argv, stdout in zip(entry.calls, stdouts):
            if argv[0] == "sweep":
                coarse = argv[argv.index("--n") + 1] == str(COARSE_N)
                _check_sweep(checks, argv, stdout, slopes=not coarse)
            else:
                _check_byte_equal(checks, stdout, " ".join(argv))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        checks.expect(False, f"{workload}: unreadable output: {exc!r}")


def reference_files(entry: Entry, stdouts: list) -> list:
    """Output files of an entry that serve as its stored references."""
    files = []
    for argv, stdout in zip(entry.calls, stdouts):
        paths = _printed_paths(stdout)
        if argv[0] == "sweep":
            files.append(paths[1])
        elif argv[0] == "asymptotics":
            files.append(paths[0])
    return files

