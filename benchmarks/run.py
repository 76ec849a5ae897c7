"""diracstab benchmark: CLI workloads timed end to end, and a traced run
for the per-layer numbers.

    python3 benchmarks/run.py --workload sweeps --seed 0 --seconds 60 --trace 0
    python3 benchmarks/run.py --workload all          # every workload in turn
    python3 benchmarks/run.py --write-references      # refresh references/

Run it from the root of a checkout; it builds nothing and imports the
package from `src/`.  Each repetition runs one workload through
diracstab.cli.main in a fresh interpreter (child.py), so set-up is paid
every time, as a user pays it.  A run first starts the interpreter a few
times for set-up alone, then repeats the workload while another
repetition still fits in --seconds (at least once).  With --trace 1 the
repetitions alternate untraced and traced, and the result carries the
per-layer metrics of the traced ones and the tracing overhead.

The BLAS thread count is left at the machine default and recorded: the
sweep's --jobs threads competing with the BLAS threads is part of what the
baseline has to show.  The last line printed is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
each metric with its median, quartiles and sample count, and the
environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 3
# a run must end within 180 s; children are stopped before that
RUN_LIMIT_S = 170
SCRATCH = ".bench_out"


class BenchError(RuntimeError):
    """The benchmark cannot run here (no checkout, or a child crashed)."""


def tail_percentile(n: int):
    """Highest of the reported percentiles with at least ten samples beyond
    it, or None when there are fewer than twenty samples."""
    for permille in (999, 990, 900, 500):
        if n * (1000 - permille) >= 10 * 1000:
            return permille / 10.0
    return None


def summarize(values: list) -> dict:
    """Median, quartiles and count, and the tail percentile when one has
    ten samples beyond it."""
    ordered = sorted(values)
    q1, med, q3 = (statistics.quantiles(ordered, n=4) if len(ordered) > 1
                   else ordered * 3)
    out = {"median": med, "q1": q1, "q3": q3, "n": len(ordered),
           "tail": None}
    q = tail_percentile(len(ordered))
    if q is not None:
        idx = min(len(ordered) - 1, int(len(ordered) * q / 100.0))
        out["tail"] = (q, ordered[idx])
    return out


def _git_commit(root: str) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(root: str) -> dict:
    """Machine and library facts every perf number is reported with."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS",
                                               "default"),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
        "commit": _git_commit(root),
    }


class Runner:
    """Starts child interpreters for one workload input inside the checkout."""

    def __init__(self, root: str, entry: workloads.Entry):
        self.root = root
        self.entry = entry
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.scratch = os.path.join(root, SCRATCH, str(os.getpid()))
        self._count = 0

    def run(self, setup_only: bool, trace: bool) -> dict:
        self._count += 1
        rep_dir = os.path.join(self.scratch, f"rep{self._count}")
        out_dir = os.path.join(rep_dir, "out")
        os.makedirs(out_dir)
        spec_path = os.path.join(rep_dir, "spec.json")
        result_path = os.path.join(rep_dir, "result.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump({"calls": self.entry.calls, "grids": self.entry.grids,
                       "setup_only": setup_only, "trace": trace}, fh)
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"),
                   DIRACSTAB_OUTDIR=out_dir)
        with open(os.path.join(rep_dir, "stderr.txt"), "w+b") as err:
            start = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "child.py"),
                     spec_path, result_path],
                    cwd=self.root, env=env, stdout=err, stderr=err,
                    timeout=max(self.deadline - start, 1.0))
            except subprocess.TimeoutExpired:
                raise BenchError(f"run did not end within {RUN_LIMIT_S} s")
            elapsed = time.monotonic() - start
            if proc.returncode != 0:
                err.seek(0)
                raise BenchError("child failed:\n"
                                 + err.read().decode(errors="replace"))
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        result["setup_s"] = result.pop("setup_end") - start
        result["elapsed"] = elapsed
        return result

    def cleanup(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)
        parent = os.path.dirname(self.scratch)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


def run_workload(root: str, workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Measure one workload input for about `seconds`; metrics and checks."""
    entry = workloads.entry_for(workload, seed)
    runner = Runner(root, entry)
    checks = workloads.Checks()
    try:
        start = time.monotonic()
        runner.run(setup_only=True, trace=False)  # warms the file cache
        setups = [runner.run(setup_only=True, trace=False)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        reps = {False: [], True: []}
        durations = []
        kinds = [False, True] if trace else [False]
        while True:
            kind = kinds[len(durations) % len(kinds)]
            rep = runner.run(setup_only=False, trace=kind)
            workloads.check(workload, entry, rep["codes"], rep["stdout"],
                            checks)
            reps[kind].append(rep)
            setups.append(rep["setup_s"])
            durations.append(rep["elapsed"])
            enough = all(reps[k] for k in kinds) and len(durations) % len(kinds) == 0
            if enough and (time.monotonic() + statistics.median(durations)
                           > start + seconds):
                break
    finally:
        runner.cleanup()
    plain = reps[False]
    series = {
        "setup_s": setups,
        "wall_s": [r["wall_s"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    summary = {name: summarize(vals) for name, vals in series.items()}
    summary["pass_frac"] = {"median": 1.0 - len(checks.failures)
                            / checks.attempted, "n": checks.attempted}
    result = {"workload": workload, "seed": seed, "calls": entry.calls,
              "attempted": checks.attempted, "failed": len(checks.failures),
              "failures": checks.failures, "end_to_end": summary}
    if trace:
        traced = reps[True]
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - summary["wall_s"]["median"])
        result["per_layer"] = layers
    return result


def _load_units(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def report(result: dict, units: dict) -> None:
    """Human-readable lines: every metric by name with its unit."""
    print(f"== {result['workload']} seed {result['seed']}: "
          + " ; ".join(" ".join(c) for c in result["calls"]))
    for name, s in result["end_to_end"].items():
        if name == "pass_frac":
            continue
        tail = (f" p{s['tail'][0]:g}={s['tail'][1]:.6g}" if s["tail"]
                else " tail: n/a (<20 samples)")
        print(f"  {name:<14} median {s['median']:.6g} {units[name]}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}{tail}")
    failed, attempted = result["failed"], result["attempted"]
    print(f"  {'failed_frac':<14} {failed / attempted:.6g} frac "
          f"({failed} of {attempted} checks failed)")
    for msg in result["failures"]:
        print(f"  FAILED CHECK: {msg}")
    for name, value in result.get("per_layer", {}).items():
        print(f"  {name:<40} {value:.6g} {units[name]}")


def final_line(results: list, trace: bool, units: dict) -> str:
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else res["workload"] + "."
        if trace:
            values = res["per_layer"]
        else:
            values = {k: v["median"] for k, v in res["end_to_end"].items()}
        for name, value in values.items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def write_references(root: str) -> None:
    """Run every pool entry once and store its reference outputs."""
    for workload, pool in workloads.WORKLOADS.items():
        for entry in pool:
            runner = Runner(root, entry)
            try:
                rep = runner.run(setup_only=False, trace=False)
                if rep["codes"] != [0] * len(entry.calls):
                    raise BenchError(f"{entry.calls}: exit codes {rep['codes']}")
                for path in workloads.reference_files(entry, rep["stdout"]):
                    shutil.copyfile(path, os.path.join(
                        workloads.REFERENCES, os.path.basename(path)))
                    print(f"{workload}: {os.path.basename(path)}")
            finally:
                runner.cleanup()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"],
                    default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-references", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "diracstab", "cli.py")):
        print("error: run from the root of a diracstab checkout "
              "(src/diracstab/cli.py not found)", file=sys.stderr)
        return 2
    # the output checks compare against the checkout's own predictions
    sys.path.insert(0, os.path.join(root, "src"))
    try:
        if args.write_references:
            write_references(root)
            return 0
        units = _load_units(root)
        print("env " + json.dumps(environment(root), sort_keys=True))
        names = (list(workloads.WORKLOADS) if args.workload == "all"
                 else [args.workload])
        results = []
        for name in names:
            res = run_workload(root, name, args.seed, args.seconds,
                               bool(args.trace))
            report(res, units)
            results.append(res)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(final_line(results, bool(args.trace), units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
