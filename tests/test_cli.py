import json
import pathlib

import numpy as np
import pytest

from cqa_fermi import cli, meanfield, steadystate, thermo
from cqa_fermi.core import ModelParams

DATA = pathlib.Path(__file__).parent / "data"


def normalize(text):
    """Output lines without the commit line, which changes every commit."""
    return [l for l in text.splitlines() if not l.startswith("# git ")]


class TestParseGrid:
    def test_range_inclusive(self):
        g = cli.parse_grid("0:1:5")
        assert np.allclose(g, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_single_value(self):
        assert cli.parse_grid("0.2").tolist() == [0.2]

    def test_comma_list(self):
        assert cli.parse_grid("0,0.001").tolist() == [0.0, 0.001]

    def test_must_increase(self):
        with pytest.raises(ValueError):
            cli.parse_grid("1:0:5")
        with pytest.raises(ValueError):
            cli.parse_grid("0.3,0.2")

    @pytest.mark.parametrize("mu", [["--mu", "-0.1,0.2"], ["--mu=-0.1,0.2"],
                                    ["--mu", "-0.1:0.2:2"], ["--mu", "-.1,.2"]])
    def test_negative_grid_values_parse(self, mu, capsys):
        assert cli.main(["phase-diagram", "--L", "20", *mu,
                         "--delta", "0.05"]) == cli.EXIT_OK
        rows = [l for l in capsys.readouterr().out.splitlines()
                if not l.startswith("#")]
        assert [r.split(",")[0] for r in rows] == [
            "-0.10000000000000001", "0.20000000000000001"]

    def test_malformed(self):
        with pytest.raises(ValueError):
            cli.parse_grid("1:2:3:4")


class TestFormatting:
    def test_seventeen_significant_digits(self):
        assert cli.fmt(1 / 3) == "0.33333333333333331"
        assert cli.fmt(np.float64(0.1)) == "0.10000000000000001"

    def test_integers_plain(self):
        assert cli.fmt(400) == "400"


def run(args):
    return cli.main(args)


class TestCommands:
    def test_phase_diagram_csv(self, tmp_path):
        out = tmp_path / "pd.csv"
        code = run(["phase-diagram", "--L", "40", "--kappa", "0.05",
                    "--mu", "0.1:0.3:2", "--delta", "0.02:0.06:2",
                    "--output", str(out)])
        assert code == 0
        text = out.read_text()
        assert "# columns mu,delta,density,anomalous_nn_abs,normal_2_abs" in text
        data = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(data) == 4

    def test_phase_diagram_bytes_pinned(self, tmp_path):
        # recorded with the per-point implementation; the grid has a
        # delta = 0 column and mu values where Re(mu~ - m e_c/L) changes
        # sign inside the chain (exactly zero at m = 12 and 15 for
        # mu = 0.2 and 0.25)
        out = tmp_path / "pd.csv"
        assert run(["phase-diagram", "--L", "60", "--kappa", "0.05",
                    "--mu=-0.1,0.2,0.25,0.35", "--delta", "0,0.02,0.1,0.3",
                    "--output", str(out)]) == 0
        pinned = (DATA / "phase_diagram_L60.csv").read_text()
        assert normalize(out.read_text()) == normalize(pinned)

    @pytest.mark.parametrize("L,bc", [(24, "obc"), (25, "pbc"), (25, "obc")])
    def test_phase_diagram_density_only(self, tmp_path, L, bc):
        out = tmp_path / "pd.csv"
        assert run(["phase-diagram", "--L", str(L), "--bc", bc,
                    "--kappa", "0.05", "--mu", "0.1,0.2", "--delta", "0,0.05",
                    "--output", str(out)]) == 0
        text = out.read_text()
        assert f"# flag bc = {bc}" in text
        cfg = cli.read_header(str(out))
        assert cfg.columns == ["mu", "delta", "density"]
        rows = [l.split(",") for l in text.splitlines()
                if not l.startswith("#")]
        assert len(rows) == 4
        for mu, delta, density in rows:
            tbl = steadystate.build_coefficients(ModelParams(
                L=L, bc=bc, mu=float(mu), delta=float(delta), e_c=1.0,
                kappa=0.05))
            assert density == cli.fmt(steadystate.mean_density(tbl))

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["free-energy", "--mu", "0.2", "--delta", "0.021",
                "--grid-size", "1024"]
        assert run(args + ["--output", str(a)]) == 0
        assert run(args + ["--output", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_critical_line_summary(self, tmp_path):
        out = tmp_path / "cl.csv"
        assert run(["critical-line", "--mu", "0.2", "--kappa", "1e-8",
                    "--output", str(out)]) == 0
        cfg = cli.read_header(str(out))
        assert float(cfg.summary["delta_crit"]) == pytest.approx(0.02122,
                                                                 abs=2e-4)

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "mf.json"
        assert run(["mean-field", "--mu", "0.1:0.3:3", "--delta", "0.05",
                    "--format", "json", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "mean-field"
        assert doc["columns"][0] == "mu"
        assert len(doc["rows"]) == 3

    def test_header_reconstructs_config(self, tmp_path):
        out = tmp_path / "pd.csv"
        run(["phase-diagram", "--L", "24", "--kappa", "0.05",
             "--mu", "0.1:0.3:2", "--delta", "0.02:0.06:2",
             "--output", str(out)])
        cfg = cli.read_header(str(out))
        assert cfg.command == "phase-diagram"
        assert cfg.flags["L"] == "24"
        assert cfg.flags["mu"] == "0.1:0.3:2"
        assert cfg.columns[:2] == ["mu", "delta"]

    def test_tfim_smoke(self, tmp_path):
        out = tmp_path / "tf.csv"
        assert run(["tfim", "--L", "6", "--t-final", "10", "--dt", "0.008",
                    "--samples", "5", "--output", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines()
                if not l.startswith("#")]
        assert len(rows) >= 5

    def test_htrs_smoke(self, tmp_path):
        out = tmp_path / "ht.csv"
        assert run(["htrs", "--L", "4", "--t-final", "50", "--samples", "6",
                    "--gamma-p", "0,0.001", "--output", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if not l.startswith("#")]
        assert len(rows) == 12
        baseline = [float(r[-1]) for r in rows if float(r[0]) == 0.0]
        pumped = [float(r[-1]) for r in rows if float(r[0]) > 0.0]
        assert max(baseline) < 1e-10
        assert max(pumped) > 1e-7

    def test_verify_quick(self, capsys):
        assert run(["verify", "--level", "quick"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines and all(l.startswith("ok") for l in lines)


class TestExitCodes:
    def test_missing_output_directory(self, tmp_path):
        missing = tmp_path / "nope" / "x.csv"
        code = run(["free-energy", "--mu", "0.2", "--delta", "0.02",
                    "--output", str(missing)])
        assert code == cli.EXIT_VALIDATION

    def test_bad_grid(self):
        assert run(["phase-diagram", "--mu", "0.3:0.1:5",
                    "--delta", "0.01:0.1:3"]) == cli.EXIT_VALIDATION

    def test_invalid_parameters(self):
        assert run(["phase-diagram", "--L", "1", "--mu", "0.1",
                    "--delta", "0.01"]) == cli.EXIT_VALIDATION

    def test_numerical_guard_trips_exit_three(self, tmp_path):
        out = tmp_path / "x.csv"
        code = run(["critical-line", "--mu", "0.45", "--kappa", "0.2",
                    "--mode", "full", "--output", str(out)])
        assert code == cli.EXIT_NUMERICAL

    @pytest.mark.parametrize("tol", ["0", "-1e-6", "nan"])
    def test_non_positive_tol_rejected(self, tol):
        assert run(["critical-line", "--mu", "0.2",
                    "--tol", tol]) == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("flags", [
        ["--dt", "0"], ["--dt", "-0.001"], ["--t-final", "0"],
        ["--t-final", "-5"], ["--t-final", "inf"], ["--samples", "1"],
        ["--samples", "0"], ["--samples", "-3"],
    ])
    def test_tfim_bad_steps_rejected(self, tmp_path, flags):
        out = tmp_path / "tf.csv"
        assert run(["tfim", "--L", "6", *flags,
                    "--output", str(out)]) == cli.EXIT_VALIDATION
        assert not out.exists()

    def test_jobs_flag_rejected(self):
        assert run(["phase-diagram", "--L", "20", "--mu", "0.1",
                    "--delta", "0.02", "--jobs", "2"]) == cli.EXIT_VALIDATION

    def test_bisection_cap_exits_three(self, monkeypatch, tmp_path):
        monkeypatch.setattr(thermo, "MAX_BISECTIONS", 3)
        out = tmp_path / "cl.csv"
        assert run(["critical-line", "--mu", "0.2", "--tol", "1e-6",
                    "--output", str(out)]) == cli.EXIT_NUMERICAL
        assert not out.exists()

    def test_maxwell_cap_exits_three(self, monkeypatch):
        monkeypatch.setattr(meanfield, "MAX_BISECTIONS", 3)
        assert run(["mean-field", "--mu", "0.2", "--delta", "0.05",
                    "--maxwell"]) == cli.EXIT_NUMERICAL


def test_tiny_tol_stops_at_float_resolution(tmp_path):
    # a tol below the float spacing near the root once looped forever
    out = tmp_path / "cl.csv"
    assert run(["critical-line", "--mu", "0.2", "--kappa", "1e-8",
                "--tol", "1e-300", "--output", str(out)]) == 0
    cfg = cli.read_header(str(out))
    assert float(cfg.summary["delta_crit"]) == pytest.approx(0.021226,
                                                             abs=2e-4)


class TestWriteOutput:
    def config(self, path):
        return cli.RunConfig(command="test", flags={}, columns=["x"],
                             output=str(path))

    def test_failed_write_keeps_existing_file(self, tmp_path, monkeypatch):
        out = tmp_path / "x.csv"
        out.write_text("previous result\n")

        class DiskFull:
            """File handle that writes half its text, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                raise OSError("no space left on device")

        monkeypatch.setattr(cli, "open",
                            lambda *a, **k: DiskFull(open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError):
            cli.write_output(self.config(out), [(1.0,)])
        assert out.read_text() == "previous result\n"
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]

    def test_replaces_existing_file(self, tmp_path):
        out = tmp_path / "x.csv"
        out.write_text("previous result\n")
        cli.write_output(self.config(out), [(2.0,)])
        assert out.read_text().splitlines()[-1] == "2"
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]
