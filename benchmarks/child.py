"""One workload repetition in a fresh interpreter.

Usage: python3 child.py SPEC.json RESULT.json

SPEC holds `calls` (argv lists for diracstab.cli.main), `grids` ([n, scale]
pairs built during set-up), `setup_only` and `trace`.  The parent sets
PYTHONPATH to the checkout's `src` and DIRACSTAB_OUTDIR to a directory of
its own.  Set-up ends once diracstab.cli is imported and the grids are
built; the parent times it from the moment it started this process, on the
same monotonic clock.  The workload runs from there until the last
cli.main call returns, which is after its last output file is written.
"""

import contextlib
import io
import json
import logging
import os
import resource
import sys
import time


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _bytes_under(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _, names in os.walk(directory) for name in names)


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    from diracstab import cli
    from diracstab.cheb import build_grid
    for n, scale in spec["grids"]:
        build_grid(n, scale)
    setup_end = time.monotonic()
    result = {"setup_end": setup_end}
    if not spec["setup_only"]:
        tracer = counter = None
        span = lambda name: contextlib.nullcontext()  # noqa: E731
        patched = contextlib.nullcontext()
        if spec["trace"]:
            import tracing
            tracer = tracing.Tracer()
            span = tracer.span
            patched = tracing.installed(tracer)
            counter = tracing.AmbiguityCounter()
            logging.getLogger("diracstab.spectrum").addHandler(counter)
        cpu0 = _cpu_seconds()
        codes, stdout = [], []
        with patched:
            for argv in spec["calls"]:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), span("cli.main"):
                    codes.append(cli.main(argv))
                stdout.append(buf.getvalue())
        end = time.monotonic()
        result.update(wall_s=end - setup_end, cpu_s=_cpu_seconds() - cpu0,
                      codes=codes, stdout=stdout)
        if tracer:
            text = "".join(stdout)
            written = (_bytes_under(os.environ["DIRACSTAB_OUTDIR"])
                       + len(text.encode()))
            result["layers"] = tracing.layer_metrics(
                tracer.spans, counter.count, written, text)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
