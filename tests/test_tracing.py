"""The benchmark's tracer still finds every binding it wraps.

benchmarks/tracing.py patches functions on the modules that import them;
a refactor that renames or stops importing one of them would silently
drop that layer from a traced run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import diracstab.cli as cli

TRACING_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def test_every_wrapped_binding_exists(tracing):
    for module_name, attrs in tracing.WRAPPED.items():
        module = importlib.import_module(module_name)
        for attr in attrs:
            assert callable(getattr(module, attr, None)), \
                f"{module_name}.{attr}"


def test_traced_sweep_records_each_layer(tracing, tmp_path, monkeypatch,
                                         capsys):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        rc = cli.main(["sweep", "--model", "gn", "--omega", "0.6667",
                       "--p-range", "0.1:0.2:0.1", "--n", "20",
                       "--jobs", "1"])
    capsys.readouterr()
    assert rc == 0
    names = {s.name for s in tracer.spans}
    assert {"operator.assemble", "eigen.eigvals",
            "soliton.eval_profile"} <= names
    # spans of the inline solves keep the sweep as their parent; at
    # --jobs 2 they would open in forked workers, out of the tracer's reach
    track = [s for s in tracer.spans if s.name == "spectrum.track_branches"]
    assert len(track) == 1
    # the p = 0 one of the sweep's base alone: a point writes its blocks
    # from p and that base, with no operator of its own
    assemblies = [s for s in tracer.spans if s.name == "operator.assemble"]
    assert len(assemblies) == 1
    assert all(s.parent == track[0].sid for s in assemblies)
