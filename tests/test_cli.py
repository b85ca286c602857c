import json
import pathlib
import warnings

import numpy as np
import pytest

from cqa_fermi import (cli, fock, kernels, meanfield, pseudospin, steadystate,
                       thermo)
from cqa_fermi.core import ModelParams
from cqa_fermi.errors import OddPbcLengthWarning

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

    @pytest.mark.parametrize("text", [
        "nan", "inf", "-inf", "0,nan", "inf,1", "-inf,0,1", "0:inf:3",
        "nan:1:3", "-inf:0:2", "nan:nan:1", "inf:inf:1"])
    def test_non_finite_rejected(self, text):
        with pytest.raises(ValueError, match="must be finite"):
            cli.parse_grid(text)


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

    def test_phase_diagram_span_path_pinned(self, tmp_path, monkeypatch):
        # n_max = 29 stays below the gate of kernels.exp_span; forced onto
        # its span path, the bytes must not move
        monkeypatch.setattr(kernels, "SPAN_MIN_SIZE", 0)
        self.test_phase_diagram_bytes_pinned(tmp_path)

    def test_phase_diagram_above_gate_pinned(self, tmp_path):
        # recorded before the log-sum-exp kernels skipped underflowing
        # exps; n_max = 2047 is above the gate, and the grid has dead heads,
        # dead tails and the one-term vacuum
        out = tmp_path / "pd.csv"
        assert run(["phase-diagram", "--L", "4096", "--kappa", "0.05",
                    "--mu", "0.1,0.2,0.3", "--delta", "0,0.021,0.1",
                    "--output", str(out)]) == 0
        pinned = (DATA / "phase_diagram_L4096.csv").read_text()
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

    @pytest.mark.parametrize("name,flags", [
        ("weak", []), ("kappa1e-3", ["--kappa", "1e-3"])])
    def test_critical_line_bytes_pinned(self, tmp_path, name, flags):
        # recorded with the one-mu-at-a-time bisection the lockstep replaced
        out = tmp_path / "cl.csv"
        assert run(["critical-line", "--mu", "0.1:0.4:7", *flags,
                    "--output", str(out)]) == 0
        pinned = (DATA / f"critical_line_{name}.csv").read_text()
        assert normalize(out.read_text()) == normalize(pinned)

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

    @pytest.mark.parametrize("flags,n_rows,last", [
        ("--L 4 --t-final 1 --samples 7", 7, 0.96),
        ("--t-final 0.05 --samples 5", 8, 0.056),
        ("--L 512 --t-final 25", 261, 24.96),  # the benchmark's op
    ])
    def test_tfim_sampling_rule(self, tmp_path, flags, n_rows, last):
        # known defect, pinned until a benchmark change mends it: a row is
        # written every stride-th of n = ceil(t_final / dt) steps, with
        # stride = n // (samples - 1), so neither samples nor t_final holds
        out = tmp_path / "tf.csv"
        assert run(["tfim", *flags.split(), "--output", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if not l.startswith("#")]
        assert len(rows) == n_rows
        assert float(rows[-1][0]) == last

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

    def test_htrs_pinned_within_tolerance(self, tmp_path):
        # recorded with the full-space propagator; the parity-sector path
        # agrees to round-off, within the benchmark's 1e-14 + 1e-12 |b|
        out = tmp_path / "ht.csv"
        assert run(["htrs", "--L", "4", "--mu", "0.25", "--delta", "0.2",
                    "--kappa", "0.02", "--gamma-p", "0,0.002",
                    "--t-final", "60", "--samples", "31",
                    "--output", str(out)]) == 0
        pinned = normalize((DATA / "htrs_L4.csv").read_text())
        got = normalize(out.read_text())
        header = [l for l in pinned if l.startswith("#")]
        assert got[:len(header)] == header
        a = np.loadtxt(got[len(header):], delimiter=",")
        b = np.loadtxt(pinned[len(header):], delimiter=",")
        assert a.shape == b.shape == (62, 7)
        assert np.all(np.abs(a - b) <= 1e-14 + 1e-12 * np.abs(b))
        assert a[a[:, 0] == 0.0, 6].max() < 1e-12

    def test_verify_quick(self, capsys):
        assert run(["verify", "--level", "quick"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines and all(l.startswith("ok") for l in lines)

    def test_verify_writes_its_report_to_output(self, tmp_path, capsys):
        out = tmp_path / "v.txt"
        assert run(["verify", "--level", "full", "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        pinned = DATA.parent.parent / "perfbench" / "reference" / "oracle"
        assert out.read_text() == (pinned / "0.txt").read_text()
        assert [p.name for p in tmp_path.iterdir()] == ["v.txt"]

    @pytest.mark.parametrize("level,builds", [("quick", 5), ("full", 7)])
    def test_verify_builds_each_doubled_system_once(self, level, builds,
                                                    monkeypatch):
        # one build per grid point plus one for the L = 6 density check
        calls = []
        build = fock.build_doubled_system

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(fock, "build_doubled_system", counted)
        assert run(["verify", "--level", level]) == 0
        assert len(calls) == builds

    def test_verify_full_under_warnings_as_errors(self, capsys):
        # verify silences only OddPbcLengthWarning (its odd ring); no other
        # warning may hide behind it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["verify", "--level", "full"]) == 0
        pinned = DATA.parent.parent / "perfbench" / "reference" / "oracle"
        assert capsys.readouterr().out == (pinned / "0.txt").read_text()

    def test_verify_lets_other_warnings_through(self, monkeypatch, capsys):
        steady_state = fock.steady_state

        def warning_steady_state(*args, **kwargs):
            warnings.warn("probe", RuntimeWarning)
            return steady_state(*args, **kwargs)

        monkeypatch.setattr(fock, "steady_state", warning_steady_state)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["verify", "--level", "full"]) == 0
        assert [str(w.message) for w in caught] == ["probe"] * 6

    def test_resonance_at_underflowing_kappa(self, tmp_path):
        # mu = 0.25 = e_c / L: (kappa/2)^2 underflows at kappa = 1e-200,
        # and the row must still match the kappa = 1e-100 one
        rows = []
        for kappa in ("1e-100", "1e-200"):
            out = tmp_path / f"pd{kappa}.csv"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run(["phase-diagram", "--L", "4", "--kappa", kappa,
                            "--mu", "0.25", "--delta", "0.1",
                            "--output", str(out)]) == 0
            rows.append(np.loadtxt(out, delimiter=","))
        assert np.all(np.isfinite(rows[1]))
        assert np.abs(rows[1] - rows[0]).max() < 1e-12

    def test_verify_has_no_format_flag(self, tmp_path):
        out = tmp_path / "v.json"
        assert run(["verify", "--format", "json",
                    "--output", str(out)]) == cli.EXIT_VALIDATION
        assert not out.exists()

    def test_odd_ring_htrs_warns_once(self, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["htrs", "--L", "3", "--t-final", "2", "--samples",
                        "3", "--output", str(tmp_path / "ht.csv")]) == 0
        assert [w.category for w in caught
                if issubclass(w.category, OddPbcLengthWarning)] == [
            OddPbcLengthWarning]


class TestExitCodes:
    def test_missing_output_directory(self, tmp_path):
        missing = tmp_path / "nope" / "x.csv"
        code = run(["free-energy", "--mu", "0.2", "--delta", "0.02",
                    "--output", str(missing)])
        assert code == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("argv", [
        ["free-energy", "--mu", "0.2", "--delta", "0.02"],
        ["verify"],
    ])
    def test_output_that_is_a_directory(self, tmp_path, capsys, argv):
        target = tmp_path / "out"
        target.mkdir()
        (target / "kept.txt").write_text("kept\n")
        assert run([*argv, "--output", str(target)]) == cli.EXIT_VALIDATION
        assert "invalid configuration" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["out"]  # no .tmp
        assert [p.name for p in target.iterdir()] == ["kept.txt"]
        assert (target / "kept.txt").read_text() == "kept\n"

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

    @pytest.mark.parametrize("tol", ["0", "-1e-6", "nan", "inf"])
    def test_non_positive_tol_rejected(self, tol):
        assert run(["critical-line", "--mu", "0.2",
                    "--tol", tol]) == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("flags", [
        ["--delta", "nan"], ["--delta", "inf"], ["--mu", "nan"],
        ["--mu", "inf"], ["--kappa", "nan", "--mode", "full"],
        ["--kappa", "inf", "--mode", "full"],
        ["--kappa", "-0.001", "--mode", "full"]])
    def test_free_energy_non_finite_rejected(self, tmp_path, flags):
        args = {"--mu": "0.2", "--delta": "0.021"}
        args.update(zip(flags[::2], flags[1::2]))
        out = tmp_path / "fe.csv"
        assert run(["free-energy", *(f"{k}={v}" for k, v in args.items()),
                    "--output", str(out)]) == cli.EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("command", ["critical-line", "free-energy"])
    @pytest.mark.parametrize("kappa", ["-0.001", "nan", "inf", "-inf"])
    def test_bad_kappa_rejected_when_parsed(self, tmp_path, command, kappa):
        argv = [command, "--mu", "0.2", f"--kappa={kappa}"]
        if command == "free-energy":
            argv += ["--delta", "0.021"]
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == cli.EXIT_VALIDATION
        out = tmp_path / "x.csv"
        assert run([*argv, "--output", str(out)]) == cli.EXIT_VALIDATION
        assert not out.exists()

    def test_kappa_whose_half_rounds_to_zero_exits_two(self, tmp_path,
                                                         capsys):
        out = tmp_path / "pd.csv"
        assert run(["phase-diagram", "--L", "4", "--kappa", "5e-324",
                    "--mu", "0.25", "--delta", "0.1",
                    "--output", str(out)]) == cli.EXIT_VALIDATION
        assert "kappa/2 > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("delta", ["0", "0.01"])
    def test_full_mode_at_zero_kappa_exits_two(self, tmp_path, capsys, delta):
        out = tmp_path / "fe.csv"
        assert run(["free-energy", "--mu", "0.2", "--delta", delta,
                    "--mode", "full", "--output", str(out)]) == cli.EXIT_VALIDATION
        assert "full mode requires kappa > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_kappa_accepted(self, tmp_path):
        out = tmp_path / "fe.csv"
        assert run(["free-energy", "--mu", "0.2", "--delta", "0",
                    "--kappa", "0", "--grid-size", "1024",
                    "--output", str(out)]) == 0
        assert float(cli.read_header(str(out)).summary["density"]) == 0.0

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

    @pytest.mark.parametrize("flags", [
        ["--t-final", "0"], ["--t-final", "-5"], ["--t-final", "inf"],
        ["--t-final", "nan"], ["--samples", "1"], ["--samples", "0"],
        ["--samples", "-3"],
    ])
    def test_htrs_bad_time_grid_rejected_when_parsed(self, tmp_path, flags):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["htrs", *flags])
        assert exc.value.code == cli.EXIT_VALIDATION
        out = tmp_path / "ht.csv"
        assert run(["htrs", "--L", "4", *flags,
                    "--output", str(out)]) == cli.EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("gamma_p", ["-0.1,0", "nan"])
    def test_htrs_bad_pump_rate_rejected(self, tmp_path, gamma_p):
        out = tmp_path / "ht.csv"
        assert run(["htrs", "--L", "4", f"--gamma-p={gamma_p}",
                    "--output", str(out)]) == cli.EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["phase-diagram", "--L", "20", "--mu", "nan", "--delta", "0.05"],
        ["phase-diagram", "--L", "20", "--mu", "0.1", "--delta", "0.05",
         "--kappa", "nan"],
        ["tfim", "--L", "4", "--kappa", "nan"],
        ["tfim", "--L", "4", "--mu", "inf"],
        ["htrs", "--L", "4", "--kappa", "nan"],
        ["htrs", "--L", "4", "--delta", "inf"],
        ["htrs", "--L", "4", "--gamma-p", "inf"],
        ["mean-field", "--mu", "nan", "--delta", "0.05", "--e-c", "0"],
        ["critical-line", "--mu", "0.1,nan"],
    ])
    def test_non_finite_parameters_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        assert run([*argv, "--output", str(out)]) == cli.EXIT_VALIDATION
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--kappa", "-1"], ["--kappa", "nan"], ["--delta", "-0.05"],
        ["--delta", "inf"], ["--e-c", "nan"], ["--e-c=-inf"],
    ])
    def test_mean_field_bad_flags_rejected_when_parsed(self, flags):
        argv = ["mean-field", "--mu", "0.2", "--delta", "0.05", *flags]
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == cli.EXIT_VALIDATION
        assert run(argv) == cli.EXIT_VALIDATION

    def test_htrs_liouvillian_cap(self, monkeypatch, tmp_path, capsys):
        # the cap is lowered, so a broken guard builds only a small system
        monkeypatch.setattr(fock, "MAX_LIOUVILLIAN_DIM", 4 ** 3)
        out = tmp_path / "ht.csv"
        assert run(["htrs", "--L", "4", "--t-final", "2", "--samples", "3",
                    "--output", str(out)]) == cli.EXIT_VALIDATION
        assert "exceeds the cap of 64" in capsys.readouterr().err
        assert not out.exists()
        assert run(["htrs", "--L", "3", "--t-final", "2", "--samples", "3",
                    "--output", str(out)]) == cli.EXIT_OK

    def test_tfim_step_count_cap(self, monkeypatch, tmp_path, capsys):
        # the cap is lowered, so a broken guard runs only a few steps
        monkeypatch.setattr(pseudospin, "MAX_STEPS", 10)
        out = tmp_path / "tf.csv"
        assert run(["tfim", "--L", "4", "--t-final", "0.1", "--dt", "0.001",
                    "--output", str(out)]) == cli.EXIT_VALIDATION
        assert "exceed MAX_STEPS = 10" in capsys.readouterr().err
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


# one value outside each domain; the non-finite values are tried on every flag
OUT_OF_DOMAIN = {"finite": None, ">= 0": "-0.001", "> 0": "0", ">= 2": "1",
                 ">= 1000": "999", "in (0, 1/2)": "0.5"}
# valid values of each command's required flags
REQUIRED_ARGS = {
    "phase-diagram": ["--mu", "0.1", "--delta", "0.05"],
    "free-energy": ["--mu", "0.2", "--delta", "0.021"],
    "critical-line": ["--mu", "0.2"],
    "mean-field": ["--mu", "0.2", "--delta", "0.05"],
}


def _table_flags(with_domain_only=False):
    return [pytest.param(name, flag, id=f"{name}{flag.option}")
            for name, cmd in cli.COMMANDS.items() for flag in cmd.flags
            if flag.domain is not None or not with_domain_only]


class TestCommandTable:
    @pytest.mark.parametrize("command,flag", _table_flags(True))
    def test_every_flag_rejects_values_outside_its_domain(
            self, tmp_path, capsys, command, flag):
        out = tmp_path / "x.out"
        bad = ["nan", "inf", "-inf"]
        if OUT_OF_DOMAIN[flag.domain] is not None:
            bad.append(OUT_OF_DOMAIN[flag.domain])
        for value in bad:
            argv = [command, *REQUIRED_ARGS.get(command, []),
                    f"{flag.option}={value}", "--output", str(out)]
            assert run(argv) == cli.EXIT_VALIDATION, argv
            err = capsys.readouterr().err
            assert f"{flag.option} must be " in err, (argv, err)
            assert not out.exists(), argv

    @pytest.mark.parametrize("command,flag", _table_flags())
    def test_every_flag_kind_and_default(self, command, flag):
        numeric = flag.kind in ("int", "float", "grid")
        assert numeric == (flag.domain is not None)
        if numeric and flag.default is not cli.REQUIRED:
            # argparse does not pass a non-string default through the parser
            assert flag.parse(str(flag.default)) == flag.default

    @pytest.mark.parametrize("command", [[], *([c] for c in cli.COMMANDS)])
    def test_help_renders_and_names_every_domain(self, capsys, command):
        assert run([*command, "--help"]) == cli.EXIT_OK
        text = " ".join(capsys.readouterr().out.split())
        for flag in cli.COMMANDS[command[0]].flags if command else ():
            assert flag.option in text
            if flag.domain is not None:
                assert f"[{flag.kind}, {flag.domain}]" in text


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
