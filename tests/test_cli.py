"""End-to-end command-line checks, run in process via cli.main()."""

import json
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import diracstab
import diracstab.cli as cli
import diracstab.pool as pool
import diracstab.spectrum as spectrum
from diracstab import __version__
from conftest import blas_threads
from diracstab.eigen import ConvergenceError


@pytest.fixture(autouse=True)
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    return tmp_path


def read_csv(path):
    lines = path.read_text().splitlines()
    header, columns = lines[0], lines[1].split(",")
    rows = []
    for line in lines[2:]:
        cells = line.split(",")
        parsed = []
        for c in cells:
            try:
                parsed.append(float(c))
            except ValueError:
                parsed.append(c)
        rows.append(parsed)
    return header, columns, rows


def produced_file(capsys, outdir, index=0):
    names = capsys.readouterr().out.strip().splitlines()
    return outdir / names[index].split("/")[-1]


def use_workers(monkeypatch, count):
    # the pool runs at most one worker per usable cpu: a count of 1 pins
    # the inline path, and 2 the forked pool, on any runner
    monkeypatch.setattr(pool, "_usable_cpus", lambda: count)


class TestSoliton:
    def test_profile_csv(self, outdir, capsys):
        rc = cli.main(["soliton", "--model", "mtm", "--omega", "0.5"])
        assert rc == 0
        header, columns, rows = read_csv(produced_file(capsys, outdir))
        assert header.startswith(f"# diracstab {__version__} |")
        assert "model='mtm'" in header
        assert columns == ["x", "re_u", "im_u", "abs_u"]
        peak = {r[0]: r[3] for r in rows}[0.0]
        assert peak == pytest.approx(np.sqrt(2 * (1 - 0.5)), abs=1e-10)

    def test_rejects_out_of_range_frequency(self, capsys):
        assert cli.main(["soliton", "--model", "gn", "--omega", "0.0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_limit_profile_is_gated(self, outdir, capsys):
        assert cli.main(["soliton", "--model", "mtm", "--omega", "-1"]) == 2
        capsys.readouterr()
        rc = cli.main(["soliton", "--model", "mtm", "--omega", "-1",
                       "--allow-limit"])
        assert rc == 0
        _, _, rows = read_csv(produced_file(capsys, outdir))
        at_one = {r[0]: r for r in rows}[1.0]
        assert at_one[1] == pytest.approx(0.4, abs=1e-12)
        assert at_one[2] == pytest.approx(-0.8, abs=1e-12)

    def test_missing_model(self, capsys):
        assert cli.main(["soliton", "--omega", "0.5"]) == 2
        assert "--model" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--x-max", "inf"), ("--x-max", "nan"), ("--x-max", "0"),
        ("--x-max", "-5"), ("--points", "0"), ("--points", "-3"),
    ])
    def test_rejects_bad_sampling(self, outdir, capsys, flag, value):
        rc = cli.main(["soliton", "--model", "gn", "--omega", "0.5",
                       f"{flag}={value}"])
        assert rc == 2
        assert f"{flag} must be" in capsys.readouterr().err
        assert not list(outdir.iterdir())

    def test_rejects_infinite_x_max_in_config(self, outdir, capsys,
                                              tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"x_max": Infinity}')
        rc = cli.main(["soliton", "--model", "gn", "--omega", "0.5",
                       "--config", str(cfg)])
        assert rc == 2
        assert "--x-max must be positive and finite" in \
            capsys.readouterr().err
        assert [p.name for p in outdir.iterdir()] == ["cfg.json"]

    def test_single_point(self, outdir, capsys):
        rc = cli.main(["soliton", "--model", "gn", "--omega", "0.5",
                       "--x-max", "3", "--points", "1"])
        assert rc == 0
        _, _, rows = read_csv(produced_file(capsys, outdir))
        assert len(rows) == 1 and rows[0][0] == -3.0


class TestAsymptotics:
    def test_omega_grid_csv(self, outdir, capsys):
        rc = cli.main(["asymptotics", "--model", "mtm",
                       "--omega-range=-0.5:0.5:0.25"])
        assert rc == 0
        _, columns, rows = read_csv(produced_file(capsys, outdir))
        assert columns == ["omega", "lambda_r", "lambda_i"]
        assert len(rows) == 5
        mid = {r[0]: r for r in rows}[0.0]
        assert mid[1] == pytest.approx(np.sqrt(np.pi), abs=1e-10)
        assert mid[2] == pytest.approx(np.sqrt(np.pi), abs=1e-10)

    def test_slopes_collapse_near_upper_edge(self, outdir, capsys):
        rc = cli.main(["asymptotics", "--model", "gn",
                       "--omega-range", "0.9:0.95:0.05"])
        assert rc == 0
        _, _, rows = read_csv(produced_file(capsys, outdir))
        for row in rows:
            assert 0.0 < row[1] < 0.5
            assert 0.0 < row[2] < 0.5

    def test_json_document(self, outdir, capsys):
        rc = cli.main(["asymptotics", "--model", "mtm",
                       "--omega-range", "0:0.2:0.1", "--format", "json"])
        assert rc == 0
        doc = json.loads(produced_file(capsys, outdir).read_text())
        assert set(doc) == {"version", "config", "columns", "rows"}
        assert doc["version"] == __version__
        assert len(doc["rows"]) == 3

    @pytest.mark.parametrize("omega_range", ["0.1:inf:0.1", "0.1:0.5:inf"])
    def test_non_finite_range(self, outdir, capsys, omega_range):
        rc = cli.main(["asymptotics", "--model", "gn",
                       "--omega-range", omega_range])
        assert rc == 2
        assert f"range {omega_range!r} must be finite" in \
            capsys.readouterr().err


class TestSpectrum:
    def test_isolated_rows_near_prediction(self, outdir, capsys):
        rc = cli.main(["spectrum", "--model", "mtm", "--omega", "0",
                       "--p", "0.2", "--n", "120"])
        assert rc == 0
        _, columns, rows = read_csv(produced_file(capsys, outdir))
        assert columns == ["re_lambda", "im_lambda", "isolated"]
        isolated = [complex(r[0], r[1]) for r in rows if r[2] == 1.0]
        assert len(isolated) >= 4
        target = 0.2 * np.sqrt(np.pi)
        best = min(abs(v.real - target) for v in isolated if v.real > 0)
        assert best <= 0.03 * target

    def test_solves_on_one_blas_thread(self, capsys, monkeypatch):
        # this process loaded numpy before the command line did
        before, seen = blas_threads(), []

        def recording(solve):
            def solve_and_record(*args):
                seen.append(blas_threads())
                return solve(*args)
            return solve_and_record

        for name in ("assemble", "parity_eigvals"):
            monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
        assert cli.main(["spectrum", "--model", "gn", "--omega", "0.6667",
                         "--p", "0.3", "--n", "20"]) == 0
        # None where no OpenBLAS is loaded
        assert seen == [None if before is None else 1] * 2
        assert blas_threads() == before

    def test_closed_gap_flagged_in_header(self, outdir, capsys):
        rc = cli.main(["spectrum", "--model", "mtm", "--omega", "0",
                       "--p", "1", "--n", "80"])
        assert rc == 0
        header, _, _ = read_csv(produced_file(capsys, outdir))
        assert "gap_closed=True" in header

    @pytest.mark.parametrize("flag,value", [
        ("--scale", "inf"), ("--scale", "nan"), ("--p", "nan"), ("--p", "inf"),
    ])
    def test_non_finite_input(self, outdir, capsys, flag, value):
        rc = cli.main(["spectrum", "--model", "gn", "--omega", "0.6667",
                       "--p", "0.3", "--n", "20", flag, value])
        assert rc == 2
        assert "finite, got" in capsys.readouterr().err
        assert not list(outdir.iterdir())

    @pytest.mark.parametrize("margin", ["nan", "inf", "-1"])
    def test_rejects_invalid_margin(self, outdir, capsys, margin):
        rc = cli.main(["spectrum", "--model", "gn", "--omega", "0.6",
                       "--p", "0.3", "--n", "20", f"--margin={margin}"])
        assert rc == 2
        assert "margin must be finite and non-negative" in \
            capsys.readouterr().err
        assert not list(outdir.iterdir())

    def test_margin_is_checked_before_the_solve(self, outdir, capsys,
                                                monkeypatch):
        class Solved(Exception):
            pass

        def solve(op):
            raise Solved

        monkeypatch.setattr(cli, "parity_eigvals", solve)
        # the default N=400 solve is never reached
        args = ["spectrum", "--model", "gn", "--omega", "0.6", "--p", "0.3"]
        assert cli.main(args + ["--margin", "nan"]) == 2
        assert "margin must be finite and non-negative" in \
            capsys.readouterr().err
        assert not list(outdir.iterdir())
        with pytest.raises(Solved):
            cli.main(args + ["--margin", "0"])

    def test_zero_margin_is_accepted(self, outdir, capsys):
        # isolated means off the bands; the default margin flags 6 values
        rc = cli.main(["spectrum", "--model", "gn", "--omega", "0.6",
                       "--p", "0.3", "--n", "20", "--margin", "0"])
        assert rc == 0
        _, _, rows = read_csv(produced_file(capsys, outdir))
        assert sum(r[2] for r in rows) >= 6

    def test_byte_reproducible(self, outdir, capsys, monkeypatch):
        args = ["spectrum", "--model", "gn", "--omega", "0.5", "--p", "0.1",
                "--n", "80"]
        for sub in ("one", "two"):
            (outdir / sub).mkdir()
            monkeypatch.setenv(cli.OUTDIR_ENV, str(outdir / sub))
            assert cli.main(args) == 0
        capsys.readouterr()
        name = "spectrum-gn-omega0.5-p0.1.csv"
        assert (outdir / "one" / name).read_bytes() == \
               (outdir / "two" / name).read_bytes()


class TestSweep:
    def test_tracked_rows_and_summary(self, outdir, capsys):
        rc = cli.main(["sweep", "--model", "mtm", "--omega", "0",
                       "--p-range", "0.1:0.3:0.1", "--n", "80", "--jobs", "2"])
        assert rc == 0
        csv_path = produced_file(capsys, outdir, index=0)
        _, columns, rows = read_csv(csv_path)
        assert columns == ["model", "omega", "p", "branch_id",
                           "re_lambda", "im_lambda", "class"]
        keys = [(r[2], r[3]) for r in rows]
        assert keys == sorted(keys)
        summary_path = csv_path.with_name(csv_path.name[:-4] + ".summary.json")
        doc = json.loads(summary_path.read_text())
        assert set(doc) == {"version", "config", "summary"}
        assert doc["summary"]["p_final"] == pytest.approx(0.3)
        assert doc["summary"]["gap_closes_at"] == pytest.approx(1.0)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_summary_named_after_the_output(self, outdir, capsys, fmt):
        rc = cli.main(["sweep", "--model", "mtm", "--omega", "0",
                       "--p-range", "0.1:0.2:0.1", "--n", "20",
                       "--format", fmt])
        assert rc == 0
        expected = [f"sweep-mtm-omega0.0.{fmt}",
                    "sweep-mtm-omega0.0.summary.json"]
        assert capsys.readouterr().out.split() == [str(outdir / name)
                                                   for name in expected]
        assert sorted(p.name for p in outdir.iterdir()) == sorted(expected)

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_rejects_fewer_than_one_job(self, capsys, jobs):
        rc = cli.main(["sweep", "--model", "mtm", "--omega", "0",
                       "--p-range", "0.1:0.2:0.1", "--n", "20",
                       f"--jobs={jobs}"])
        assert rc == 2
        assert "jobs must be at least 1" in capsys.readouterr().err

    def test_byte_reproducible(self, outdir, capsys, monkeypatch):
        args = ["sweep", "--model", "mtm", "--omega", "0.5",
                "--p-range", "0.1:0.2:0.1", "--n", "60"]
        for sub in ("one", "two"):
            (outdir / sub).mkdir()
            monkeypatch.setenv(cli.OUTDIR_ENV, str(outdir / sub))
            assert cli.main(args) == 0
        capsys.readouterr()
        for name in ("sweep-mtm-omega0.5.csv", "sweep-mtm-omega0.5.summary.json"):
            assert (outdir / "one" / name).read_bytes() == \
                   (outdir / "two" / name).read_bytes()

    # N = 100 and 60 take the full solve at every point; gn at N = 160
    # and mtm at N = 200 take the two-grid route at most of theirs, on
    # the p = 0 products and the transfer that the workers inherit
    @pytest.mark.parametrize("model,omega,n", [("gn", "0.6667", "100"),
                                               ("mtm", "0", "60"),
                                               ("gn", "0.6667", "160"),
                                               ("mtm", "0.5", "200")])
    def test_outputs_do_not_depend_on_jobs(self, outdir, capsys, monkeypatch,
                                           model, omega, n):
        # every solve runs on one BLAS thread, inline or in a forked
        # worker, whatever --jobs is; only the header's config names it
        outputs = []
        for jobs in ("1", "2", "4"):
            (outdir / jobs).mkdir()
            monkeypatch.setenv(cli.OUTDIR_ENV, str(outdir / jobs))
            assert cli.main(["sweep", "--model", model, "--omega", omega,
                             "--p-range", "0.1:0.5:0.1", "--n", n,
                             "--jobs", jobs]) == 0
            csv_path, summary_path = capsys.readouterr().out.split()
            with open(csv_path, "rb") as fh:
                rows = fh.read().split(b"\n", 1)[1]
            with open(summary_path, encoding="utf-8") as fh:
                summary = json.load(fh)["summary"]
            outputs.append((rows, json.dumps(summary)))
        assert outputs[0] == outputs[1] == outputs[2]

    # the first point of a range is solved as any other: a range that
    # starts at a later p gives the same rows from there on, bit for bit.
    # Branch ids restart with the range, so they are left out
    @pytest.mark.parametrize("model,omega,n,start", [
        ("gn", "0.6667", "160", "0.5"), ("mtm", "0.5", "200", "0.3"),
    ], ids=["gn", "mtm"])
    def test_rows_do_not_depend_on_where_the_range_starts(
            self, outdir, capsys, monkeypatch, model, omega, n, start):
        use_workers(monkeypatch, 2)
        rows = []
        for first, jobs in (("0.05", "2"), (start, "1")):
            assert cli.main(["sweep", "--model", model, "--omega", omega,
                             "--n", n, "--p-range", f"{first}:1.0:0.05",
                             "--jobs", jobs, "--out", f"from{first}.csv"]) == 0
            lines = produced_file(capsys, outdir).read_text().splitlines()
            columns = lines[1].split(",")
            keep = [columns.index(c) for c in ("p", "re_lambda", "im_lambda",
                                               "class")]
            kept = [tuple(line.split(",")[k] for k in keep)
                    for line in lines[2:]]
            rows.append(sorted((r for r in kept if float(r[0]) >= float(start)),
                               key=lambda r: (*map(float, r[:3]), r[3])))
        assert rows[0] and rows[0] == rows[1]

    def test_convergence_failure_in_a_worker_exits_3(self, capsys,
                                                     monkeypatch):
        # patched before the pool forks, so its workers inherit it
        parent = os.getpid()
        solve = spectrum.eigvals

        def failing(matrix):
            if os.getpid() != parent:
                raise ConvergenceError("LAPACK eigensolve did not converge")
            return solve(matrix)

        monkeypatch.setattr(spectrum, "eigvals", failing)
        use_workers(monkeypatch, 2)
        rc = cli.main(["sweep", "--model", "gn", "--omega", "0.6667",
                       "--p-range", "0.1:0.3:0.1", "--n", "20", "--jobs", "2"])
        assert rc == 3
        assert "numerical failure: LAPACK eigensolve did not converge" in \
            capsys.readouterr().err

    def test_invalid_ranges(self, capsys):
        base = ["sweep", "--model", "mtm", "--omega", "0", "--n", "60"]
        assert cli.main(base + ["--p-range", "0.5:0.1:0.1"]) == 2
        assert cli.main(base + ["--p-range", "0.1:0.1:0.1"]) == 2
        assert cli.main(base + ["--p-range", "0.1:0.5"]) == 2
        for p_range in ("0.1:inf:0.1", "0.1:0.5:inf", "nan:0.5:0.1"):
            assert cli.main(base + ["--p-range", p_range]) == 2
            assert f"range {p_range!r} must be finite" in \
                capsys.readouterr().err


@pytest.mark.parametrize("model", ["mtm", "gn"])
@pytest.mark.parametrize("argv", [["spectrum", "--p", "1e155"],
                                  ["sweep", "--p-range", "1e155:2e155:1e155"]],
                         ids=["spectrum", "sweep"])
def test_p_whose_blocks_overflow_exits_2(outdir, capsys, model, argv):
    # mtm's band edges hold p ** 2, which raised OverflowError here; the
    # tests run with RuntimeWarning as an error, as the console script
    # runs on CI
    rc = cli.main([argv[0], "--model", model, "--omega", "0.5", "--n", "20",
                   *argv[1:]])
    assert rc == 2
    assert "error: transverse wavenumber p" in capsys.readouterr().err
    assert not list(outdir.iterdir())


class TestValidate:
    def test_reference_table_reproduced(self, outdir, capsys):
        rc = cli.main(["validate", "--model", "mtm", "--n-values", "100",
                       "--out", "report.txt"])
        captured = capsys.readouterr().out
        assert rc == 0
        lines = [l for l in captured.splitlines() if l]
        assert len(lines) == 3
        assert all(line.endswith("PASS") for line in lines)
        report = (outdir / "report.txt").read_text()
        assert report.startswith(f"# diracstab {__version__}")
        assert "PASS" in report

    def test_out_header_echoes_the_scale(self, outdir, capsys):
        # the scale every cell ran at, not None, when --scale is not given
        assert cli.main(["validate", "--model", "gn", "--n-values", "100",
                         "--out", "report.txt"]) == 0
        header = (outdir / "report.txt").read_text().splitlines()[0]
        assert "scale=10.0" in header.split(" | ")[1].split(", ")

    def test_cells_solved_largest_n_first(self, capsys, monkeypatch):
        # inline, so that the calls are seen in the order the pool gets them
        use_workers(monkeypatch, 1)
        solved = []
        metric = cli._p0_metric

        def recording(model, omega, grid):
            solved.append((model.value, grid.n))
            return metric(model, omega, grid)

        monkeypatch.setattr(cli, "_p0_metric", recording)
        assert cli.main(["validate", "--n-values", "100,300"]) == 0
        reported = [(line.split()[0], int(line.split()[2][2:-1]))
                    for line in capsys.readouterr().out.splitlines()]
        assert [n for _, n in solved] == [300] * 5 + [100] * 5
        assert sorted(solved) == sorted(reported)
        # reported in the published order: by model, then N
        assert reported == ([("mtm", 100)] * 3 + [("mtm", 300)] * 3
                            + [("gn", 100)] * 2 + [("gn", 300)] * 2)

    def test_published_n500_column(self, capsys):
        # the parity solve's error near lambda = 0 grows like the square
        # root of the error of eig(B C); the N = 500 ceilings bound it
        rc = cli.main(["validate", "--n-values", "500"])
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert rc == 0
        assert len(lines) == 5
        assert all(line.endswith("PASS") for line in lines)

    def test_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_STATED_CEILINGS",
                            {("mtm", 0.0, 100): 1e-12})
        monkeypatch.setattr(cli, "_REFERENCE_METRICS",
                            {("mtm", 0.0, 100): 2.57e-1})
        rc = cli.main(["validate", "--model", "mtm", "--n-values", "100"])
        assert rc == 4
        assert "FAIL" in capsys.readouterr().out

    def test_outputs_do_not_depend_on_workers(self, outdir, capsys,
                                              monkeypatch):
        # both models; only the parent formats lines, so the pool changes
        # no byte of the report or of stdout
        outputs = []
        for count in (1, 2):
            sub = outdir / str(count)
            sub.mkdir()
            monkeypatch.setenv(cli.OUTDIR_ENV, str(sub))
            use_workers(monkeypatch, count)
            assert cli.main(["validate", "--n-values", "100",
                             "--out", "report.txt"]) == 0
            outputs.append((capsys.readouterr().out,
                            (sub / "report.txt").read_bytes()))
        assert len(outputs[0][0].splitlines()) == 5
        assert outputs[0] == outputs[1]

    def test_failure_exit_code_in_the_pool(self, capsys, monkeypatch):
        use_workers(monkeypatch, 2)
        monkeypatch.setattr(cli, "_STATED_CEILINGS",
                            {("mtm", 0.0, 100): 1e-12})
        rc = cli.main(["validate", "--model", "mtm", "--n-values", "100"])
        assert rc == 4
        verdicts = [line.rsplit(" ", 1)[-1]
                    for line in capsys.readouterr().out.splitlines()]
        assert verdicts == ["PASS", "FAIL", "PASS"]

    def test_lapack_failure_in_a_worker_exits_3(self, capsys, monkeypatch):
        # patched before the pool forks, so its workers inherit it
        use_workers(monkeypatch, 2)
        parent = os.getpid()
        solve = np.linalg.eigvals

        def failing(a):
            if os.getpid() != parent:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return solve(a)

        monkeypatch.setattr(np.linalg, "eigvals", failing)
        rc = cli.main(["validate", "--model", "mtm", "--n-values", "100"])
        captured = capsys.readouterr()
        assert rc == 3
        assert "numerical failure:" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv,n", [
        (["--model", "mtm", "--n-values", "200"], 200),
        (["--model", "gn", "--n-values", "100,250"], 250),
        (["--n-values", "300,500,700"], 700),
    ], ids=["mtm-200", "gn-100-250", "all-700"])
    def test_unpublished_n_exits_2_before_solving(self, argv, n, capsys,
                                                  monkeypatch):
        solved = []
        monkeypatch.setattr(cli, "_p0_metric",
                            lambda *args: solved.append(args) or 0.0)
        assert cli.main(["validate"] + argv) == 2
        captured = capsys.readouterr()
        assert f"N={n}" in captured.err
        assert "[100, 300, 500]" in captured.err
        assert captured.out == ""
        assert solved == []

    @pytest.mark.parametrize("argv", [
        ["--model", "gn", "--n-values", "100,100"],
        ["--n-values", "100,300,100"],
    ], ids=["gn-100-100", "all-100-300-100"])
    def test_repeated_n_exits_2_before_solving(self, argv, capsys,
                                               monkeypatch):
        solved = []
        monkeypatch.setattr(cli, "_p0_metric",
                            lambda *args: solved.append(args) or 0.0)
        assert cli.main(["validate"] + argv) == 2
        captured = capsys.readouterr()
        assert "repeats" in captured.err
        assert captured.out == ""
        assert solved == []

    @pytest.mark.parametrize("n_values", ["", ","])
    def test_empty_n_values_exits_2(self, n_values, capsys):
        assert cli.main(["validate", f"--n-values={n_values}"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_cells_run_on_one_blas_thread(self, capsys, monkeypatch,
                                          file_record):
        # the cells run in the pool's forked workers: record through a file
        before = blas_threads()
        seen = file_record("threads")
        metric = cli._p0_metric

        def recording(*args):
            seen.append([os.getpid(), blas_threads()])
            return metric(*args)

        monkeypatch.setattr(cli, "_p0_metric", recording)
        use_workers(monkeypatch, 2)
        assert cli.main(["validate", "--model", "gn",
                         "--n-values", "100"]) == 0
        pids, threads = zip(*seen)
        assert os.getpid() not in pids
        # None where no OpenBLAS is loaded
        assert list(threads) == [None if before is None else 1] * 2
        assert blas_threads() == before

    def test_models_share_each_grid(self, capsys, monkeypatch):
        built = []
        build = cli.build_grid
        monkeypatch.setattr(cli, "build_grid",
                            lambda *args: built.append(args) or build(*args))
        use_workers(monkeypatch, 1)
        assert cli.main(["validate", "--n-values", "100"]) == 0
        assert built == [(100, 10.0)]

    def test_cells_write_no_full_matrix(self, capsys, monkeypatch):
        # inline, so that the peak below is a cell's and not the parent's
        use_workers(monkeypatch, 1)
        tracemalloc.start()
        try:
            assert cli.main(["validate", "--n-values", "100"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        # less than the complex 4(N+1)-square stability matrix alone
        # would take
        assert peak < 16 * (4 * 101) ** 2


class TestNumericalFailure:
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--model", "mtm", "--omega", "0", "--n", "20"],
        ["sweep", "--model", "mtm", "--omega", "0", "--n", "20",
         "--p-range", "0.1:0.2:0.1"],
        ["validate", "--model", "mtm", "--n-values", "100"],
    ], ids=["spectrum", "sweep", "validate"])
    def test_lapack_failure_exits_3(self, argv, capsys, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        monkeypatch.setattr(np.linalg, "eig", fail)
        assert cli.main(argv) == 3
        assert "numerical failure:" in capsys.readouterr().err


class TestSolveDimension:
    # the blocks split by component for mtm and at p = 0
    @pytest.mark.parametrize("argv,dim", [
        (["spectrum", "--model", "gn", "--omega", "0.5", "--n", "20"], 21),
        (["sweep", "--model", "mtm", "--omega", "0", "--n", "20",
          "--p-range", "0.1:0.2:0.1"], 21),
        (["validate", "--model", "gn", "--n-values", "100"], 101),
        (["spectrum", "--model", "gn", "--omega", "0.5", "--n", "20",
          "--p", "0.3"], 42),
        (["sweep", "--model", "gn", "--omega", "0.6667", "--n", "20",
          "--p-range", "0.1:0.2:0.1"], 42),
    ], ids=["spectrum", "sweep", "validate", "spectrum-gn-p", "sweep-gn"])
    def test_solves_at_half_dimension(self, argv, dim, capsys, monkeypatch,
                                      file_record):
        # validate solves in forked workers: record through a file
        dims = file_record("dims", tuple)

        def recording(solve):
            def wrapped(matrix):
                dims.append(np.shape(matrix))
                return solve(matrix)
            return wrapped

        monkeypatch.setattr(cli, "eigvals", recording(cli.eigvals))
        monkeypatch.setattr(spectrum, "eigvals", recording(spectrum.eigvals))
        use_workers(monkeypatch, 2)
        assert cli.main(argv) == 0
        assert dims and set(dims) == {(dim, dim)}


def run_in(directory, argv, monkeypatch, capsys):
    """cli.main(argv) writing under directory: the exit code, stdout
    without the directory's prefix, and each file written there."""
    directory.mkdir()
    monkeypatch.setenv(cli.OUTDIR_ENV, str(directory))
    rc = cli.main(argv)
    out = capsys.readouterr().out.replace(f"{directory}{os.sep}", "")
    return rc, out, {p.name: p.read_bytes() for p in directory.iterdir()}


SOLITON = ["soliton", "--model", "mtm", "--omega", "0.5"]
SPECTRUM = ["spectrum", "--model", "gn", "--omega", "0.6", "--n", "20"]

# a value for every option of each subcommand but --config and --help
ALL_OPTIONS = {
    "soliton": {"model": "gn", "omega": 0.5, "x_max": 3.0, "points": 5,
                "allow_limit": True, "out": "soliton.json",
                "format": "json"},
    "asymptotics": {"model": "gn", "omega_range": "0.1:0.3:0.1",
                    "out": "asymptotics.json", "format": "json"},
    "spectrum": {"model": "gn", "omega": 0.6, "p": 0.3, "n": 20,
                 "scale": 8.0, "margin": 0.1, "out": "spectrum.csv",
                 "format": "csv"},
    "sweep": {"model": "mtm", "omega": 0.0, "p_range": "0.1:0.2:0.1",
              "n": 20, "scale": 8.0, "jobs": 2, "out": "sweep.csv",
              "summary_out": "summary.json", "format": "csv"},
    "validate": {"model": "gn", "n_values": "100", "scale": 10.0,
                 "out": "validate.txt"},
}


class TestConfigFile:
    def test_flag_overrides_config(self, outdir, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega": 0.3, "points": 11}))
        rc = cli.main(["soliton", "--model", "mtm", "--config", str(cfg),
                       "--omega", "0.5"])
        assert rc == 0
        path = produced_file(capsys, outdir)
        assert "omega0.5" in path.name  # flag beat the config file
        _, _, rows = read_csv(path)
        assert len(rows) == 11  # config value honored where no flag given

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        rc = cli.main(["soliton", "--model", "mtm", "--omega", "0.5",
                       "--config", str(cfg)])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("command,value", [
        (["spectrum", "--model", "mtm", "--n", "20"], {"omega": [0.5]}),
        (["sweep", "--model", "mtm", "--omega", "0", "--n", "20",
          "--p-range", "0.1:0.2:0.1"], {"jobs": 2.7}),
        (["soliton", "--model", "mtm", "--omega", "0.5"],
         {"allow_limit": "yes"}),
        (["soliton", "--model", "mtm", "--omega", "0.5"], {"points": True}),
        (["soliton", "--model", "mtm", "--omega", "0.5"], {"format": "xml"}),
    ], ids=["list-for-float", "float-for-int", "str-for-flag",
            "bool-for-int", "outside-choices"])
    def test_mistyped_value_rejected(self, command, value, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(value))
        assert cli.main(command + ["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert repr(next(iter(value))) in err

    def test_int_accepted_for_float(self, outdir, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega": 0, "x_max": 5, "points": 11}))
        assert cli.main(["soliton", "--model", "mtm", "--config",
                         str(cfg)]) == 0
        _, _, rows = read_csv(produced_file(capsys, outdir))
        assert len(rows) == 11

    @pytest.mark.parametrize("argv,key,value", [
        (SPECTRUM, "p", 0), (SPECTRUM, "scale", 10), (SPECTRUM, "margin", 1),
        (SOLITON[:3], "omega", 0), (SOLITON, "x_max", 5),
    ], ids=["p", "scale", "margin", "omega", "x_max"])
    def test_int_for_float_reads_as_the_flag(self, argv, key, value, outdir,
                                             capsys, monkeypatch):
        # one file name and one header: p=0.0 from both, not p=0 from the
        # file
        cfg = outdir / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        flag = run_in(outdir / "flag",
                      argv + [f"--{key.replace('_', '-')}", str(value)],
                      monkeypatch, capsys)
        config = run_in(outdir / "config", argv + ["--config", str(cfg)],
                        monkeypatch, capsys)
        assert flag[0] == 0
        assert config == flag

    @pytest.mark.parametrize("argv,key", [
        (SOLITON, "x_max"), (SOLITON, "points"), (SOLITON, "allow_limit"),
        (SOLITON, "format"), (SPECTRUM, "p"),
        (["sweep", "--model", "mtm", "--omega", "0", "--n", "20",
          "--p-range", "0.1:0.2:0.1"], "jobs"),
        (["validate", "--model", "gn", "--out", "report.txt"], "n_values"),
    ], ids=lambda value: value if isinstance(value, str) else value[0])
    def test_null_keeps_the_default(self, argv, key, outdir, capsys,
                                    monkeypatch):
        cfg = outdir / "cfg.json"
        cfg.write_text(json.dumps({key: None}))
        without = run_in(outdir / "without", argv, monkeypatch, capsys)
        null = run_in(outdir / "null", argv + ["--config", str(cfg)],
                      monkeypatch, capsys)
        assert without[0] == 0
        assert null == without

    @pytest.mark.parametrize("command", sorted(ALL_OPTIONS))
    def test_every_option_is_a_config_key(self, command, outdir, capsys):
        parser = cli.build_parser().parse_args([command]).parser
        values = ALL_OPTIONS[command]
        assert set(values) == ({a.dest for a in parser._actions}
                               - {"help", "config"})
        cfg = outdir / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert cli.main([command, "--config", str(cfg)]) == 0
        capsys.readouterr()
        text = (outdir / values["out"]).read_text()
        if values.get("format") == "json":
            assert json.loads(text)["config"].items() >= values.items()
        else:
            header = text.splitlines()[0] + ","
            for key, value in values.items():
                assert f" {key}={value!r}," in header

    def test_backend_key_is_unknown(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"backend": "lapack"}))
        rc = cli.main(["spectrum", "--model", "mtm", "--omega", "0",
                       "--n", "20", "--config", str(cfg)])
        assert rc == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_backend_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--model", "mtm", "--omega", "0",
                      "--backend", "lapack"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err


def test_commands_load_no_scipy(tmp_path):
    # a fresh interpreter, so that no other test's imports count
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        from diracstab import cli
        codes = []
        for argv in (["asymptotics", "--model", "gn"],
                     ["spectrum", "--model", "gn", "--omega", "0.6667",
                      "--n", "20"],
                     ["sweep", "--model", "gn", "--omega", "0.6667",
                      "--n", "20", "--jobs", "2"],
                     ["validate", "--model", "gn", "--n-values", "100"]):
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
        print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(diracstab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env[cli.OUTDIR_ENV] = str(tmp_path)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0]
    heavy = [m for m in result["modules"]
             if m.split(".")[0] == "scipy"
             or m.split(".")[:2] in (["numpy", "random"], ["numpy", "ma"])]
    assert heavy == []


BLAS_COUNT_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                        "OMP_NUM_THREADS")


def start_up(prelude: str, **variables) -> dict:
    """What a fresh interpreter, its environment free of BLAS thread
    counts but for variables, holds after running prelude: its threads,
    the thread count of each OpenBLAS it loaded, the BLAS count variables
    it sees and whether numpy is loaded."""
    script = prelude + textwrap.dedent("""
        import ctypes, json, os, sys
        from diracstab import pool
        counts = []
        for lib, (_, get_name, _) in pool._openblas_libraries():
            get = getattr(lib, get_name)
            get.argtypes, get.restype = [], ctypes.c_int
            counts.append(get())
        try:
            threads = len(os.listdir("/proc/self/task"))
        except OSError:
            threads = None
        print(json.dumps({
            "threads": threads, "counts": counts,
            "numpy": "numpy" in sys.modules,
            "variables": {k: v for k, v in os.environ.items()
                          if k in %r}}))
    """ % (BLAS_COUNT_VARIABLES,))
    src = os.path.dirname(os.path.dirname(os.path.abspath(diracstab.__file__)))
    env = {k: v for k, v in os.environ.items()
           if k not in BLAS_COUNT_VARIABLES}
    env.update(variables, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    state = json.loads(proc.stdout.splitlines()[-1])
    if state["threads"] is None:
        pytest.skip("no /proc/self/task")
    if state["numpy"] and not state["counts"]:
        pytest.skip("no OpenBLAS loaded")
    return state


class TestStartUp:
    """The command line loads numpy with OpenBLAS on one thread, unless
    numpy is loaded already or the environment sets a count."""

    def test_command_line_loads_one_blas_thread(self):
        state = start_up("from diracstab import cli\n")
        # no OpenBLAS helper thread, and no variable left to subprocesses
        assert state["threads"] == 1
        assert state["counts"] == [1] * len(state["counts"])
        assert state["variables"] == {}

    # The two cases below also start the command line alone, whose count
    # of 1 is what a kept count must differ from.

    @pytest.mark.parametrize("variable", BLAS_COUNT_VARIABLES)
    def test_count_the_environment_sets_is_kept(self, variable):
        own = start_up("from diracstab import cli\n")["counts"]
        state = start_up("from diracstab import cli\n", **{variable: "2"})
        assert own == [1] * len(own)
        assert state["counts"] == [2] * len(state["counts"])
        assert state["variables"] == {variable: "2"}

    def test_numpy_loaded_first_keeps_the_default(self):
        own = start_up("from diracstab import cli\n")["counts"]
        default = start_up("import numpy\n")["counts"]
        state = start_up("import numpy\nfrom diracstab import cli\n")
        assert own == [1] * len(own)
        assert state["counts"] == default

    def test_package_import_loads_no_numpy(self):
        assert not start_up("import diracstab\n")["numpy"]


def test_prediction_runs_without_scipy():
    # a fresh interpreter in which any scipy import fails, as on a plain
    # pip install: the exported prediction computes no corrections unless
    # asked to, and computes them by its own quadrature when asked
    from test_analytics import TestCorrections

    script = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None
        import diracstab
        pred = diracstab.asymptotic_prediction("gn", 0.5)
        print(pred.alpha is None and pred.beta is None)
        pred = diracstab.asymptotic_prediction("gn", 0.5, with_corrections=True)
        print(repr(pred.alpha), repr(pred.beta))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(diracstab.__file__)))
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    skipped, alpha, beta = proc.stdout.split()
    assert skipped == "True"
    alpha_ref, beta_ref = TestCorrections.FROZEN[0.5]
    assert complex(alpha) == pytest.approx(alpha_ref, rel=1e-6)
    assert complex(beta) == pytest.approx(beta_ref, rel=1e-6)


def test_sweep_pool_forks_no_threaded_process(tmp_path):
    # CPython 3.12 warns (DeprecationWarning) when a process that runs
    # more than one thread forks; the 3.10 and 3.12 legs of CI run this
    # test too.  On Linux the script also makes 3.12's check on any
    # version: the parent's thread count in /proc/self/stat just after
    # each fork, warned about once the sweep is done, so that a failure
    # leaves no worker waiting.
    script = textwrap.dedent("""
        import os, sys, warnings
        from diracstab import cli, pool

        # two workers on any runner
        pool._usable_cpus = lambda: 2
        fork, counts = os.fork, []

        def counted_fork():
            pid = fork()
            if pid:
                with open("/proc/self/stat", encoding="ascii") as fh:
                    counts.append(int(fh.read().rsplit(")", 1)[1].split()[17]))
            return pid

        if os.path.exists("/proc/self/stat"):
            os.fork = counted_fork
        rc = cli.main(["sweep", "--model", "gn", "--omega", "0.6667",
                       "--n", "40", "--p-range", "0.1:0.4:0.1", "--jobs", "2"])
        if max(counts, default=1) > 1:
            warnings.warn(f"forked with {counts} threads", DeprecationWarning)
        if os.fork is counted_fork and len(counts) != 2:
            sys.exit(f"forked {len(counts)} workers, not 2")
        sys.exit(rc)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(diracstab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env[cli.OUTDIR_ENV] = str(tmp_path)
    # files, not pipes: a worker stranded by a failed fork would hold a
    # pipe open past the timeout
    with open(tmp_path / "stdout", "wb") as out, \
            open(tmp_path / "stderr", "wb") as err:
        proc = subprocess.run([sys.executable, "-W",
                               "error::DeprecationWarning", "-c", script],
                              env=env, stdout=out, stderr=err, timeout=120)
    assert proc.returncode == 0
    assert (tmp_path / "stderr").read_text() == ""


def test_validate_pool_imports_no_multiprocessing(tmp_path):
    # in a fresh interpreter: the pool forks with os alone, so neither
    # multiprocessing nor the process executor is ever imported
    script = textwrap.dedent("""
        import os, sys
        from diracstab import cli, pool

        # two workers on any runner
        pool._usable_cpus = lambda: 2
        fork, forks = os.fork, []

        def counted_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        os.fork = counted_fork
        rc = cli.main(["validate", "--model", "gn", "--n-values", "100"])
        loaded = sorted({"multiprocessing", "concurrent.futures.process"}
                        & set(sys.modules))
        if loaded:
            sys.exit(f"imported {loaded}")
        if len(forks) != 2:
            sys.exit(f"forked {len(forks)} workers, not 2")
        sys.exit(rc)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(diracstab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    with open(tmp_path / "stdout", "wb") as out, \
            open(tmp_path / "stderr", "wb") as err:
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              stdout=out, stderr=err, timeout=120)
    assert proc.returncode == 0, (tmp_path / "stderr").read_text()
    assert (tmp_path / "stdout").read_text().count(" PASS\n") == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__
