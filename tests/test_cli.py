"""End-to-end command-line checks, run in process via cli.main()."""

import json

import numpy as np
import pytest

import diracstab.cli as cli
import diracstab.spectrum as spectrum
from diracstab import __version__


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

    def test_closed_gap_flagged_in_header(self, outdir, capsys):
        rc = cli.main(["spectrum", "--model", "mtm", "--omega", "0",
                       "--p", "1", "--n", "80"])
        assert rc == 0
        header, _, _ = read_csv(produced_file(capsys, outdir))
        assert "gap_closed=True" in header

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

    def test_rows_do_not_depend_on_jobs(self, outdir, capsys, monkeypatch):
        # every solve runs on one BLAS thread, whatever --jobs is
        rows = []
        for jobs in ("1", "2"):
            (outdir / jobs).mkdir()
            monkeypatch.setenv(cli.OUTDIR_ENV, str(outdir / jobs))
            assert cli.main(["sweep", "--model", "gn", "--omega", "0.6667",
                             "--p-range", "0.1:0.5:0.1", "--n", "100",
                             "--jobs", jobs]) == 0
            csv_path = produced_file(capsys, outdir / jobs, index=0)
            rows.append(csv_path.read_text().splitlines()[1:])
        assert rows[0] == rows[1]

    def test_invalid_ranges(self, capsys):
        base = ["sweep", "--model", "mtm", "--omega", "0", "--n", "60"]
        assert cli.main(base + ["--p-range", "0.5:0.1:0.1"]) == 2
        assert cli.main(base + ["--p-range", "0.1:0.1:0.1"]) == 2
        assert cli.main(base + ["--p-range", "0.1:0.5"]) == 2


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
        monkeypatch.setattr(cli, "_VALIDATE_OMEGAS", {"mtm": (0.0,)})
        rc = cli.main(["validate", "--model", "mtm", "--n-values", "100"])
        assert rc == 4
        assert "FAIL" in capsys.readouterr().out

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

    @pytest.mark.parametrize("n_values", ["", ","])
    def test_empty_n_values_exits_2(self, n_values, capsys):
        assert cli.main(["validate", f"--n-values={n_values}"]) == 2
        assert "error:" in capsys.readouterr().err


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
    def test_solves_at_half_dimension(self, argv, dim, capsys, monkeypatch):
        dims = []

        def recording(solve):
            def wrapped(matrix, want_vectors=False):
                dims.append(np.shape(matrix))
                return solve(matrix, want_vectors=want_vectors)
            return wrapped

        monkeypatch.setattr(cli, "eigvals", recording(cli.eigvals))
        monkeypatch.setattr(spectrum, "eigvals", recording(spectrum.eigvals))
        assert cli.main(argv) == 0
        assert dims and set(dims) == {(dim, dim)}


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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__
