import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from polylp import parse_alist
from polylp.cli import _decoder_ref, build_parser
from polylp.simulator import DECODERS

CLI = [sys.executable, "-m", "polylp.cli"]


def frame(negated=(), value=1):
    """An inline --llr vector for the 24-bit test code: -1 on the
    ``negated`` bits and ``value`` on the others."""
    return " ".join("-1" if i in negated else str(value) for i in range(24))


def run_cli(*args, stdin=None):
    return subprocess.run(
        CLI + list(args), input=stdin, capture_output=True, text=True, timeout=300
    )


@pytest.fixture(scope="module")
def code_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("codes") / "code.alist"
    res = run_cli("gen-code", "--n", "24", "--dv", "3", "--dc", "6",
                  "--seed", "7", "--out", str(path))
    assert res.returncode == 0
    return path


class TestGenCode:
    def test_writes_valid_alist(self, tmp_path):
        out = tmp_path / "code.alist"
        res = run_cli("gen-code", "--n", "48", "--dv", "3", "--dc", "6",
                      "--seed", "7", "--out", str(out))
        assert res.returncode == 0
        code = parse_alist(out.read_text())
        assert code.n_vars == 48 and code.n_checks == 24
        assert np.all(code.check_degrees == 6)
        assert np.all(code.var_degrees == 3)

    def test_invalid_parameters_are_usage_errors(self):
        res = run_cli("gen-code", "--n", "10", "--dv", "3", "--dc", "7")
        assert res.returncode == 1
        assert "divisible" in res.stderr

    @pytest.mark.parametrize("n, dv, dc, message", [
        ("0", "3", "6", "--n must be at least 1, got 0"),
        ("24", "0", "6", "--dv must be at least 1, got 0"),
        ("24", "3", "-6", "--dc must be at least 1, got -6"),
        ("10", "3", "7", "--n * --dv must be divisible by --dc"),
    ])
    def test_bad_sizes_are_named_by_their_flags(self, n, dv, dc, message):
        res = run_cli("gen-code", "--n", n, "--dv", dv, "--dc", dc)
        assert res.returncode == 1
        assert message in res.stderr

    def test_check_degree_above_length_is_usage_error(self, tmp_path):
        # No draw can succeed, and the flags alone decide it.
        out = tmp_path / "code.alist"
        res = run_cli("gen-code", "--n", "2", "--dv", "3", "--dc", "6", "--out", str(out))
        assert res.returncode == 1
        assert "--dc must be at most --n, got 6 > 2" in res.stderr
        assert not out.exists()

    def test_draw_budget_running_out_is_runtime_error(self, tmp_path):
        # The flags are valid, but every draw has a parallel edge.
        out = tmp_path / "code.alist"
        res = run_cli("gen-code", "--n", "6", "--dv", "6", "--dc", "6", "--out", str(out))
        assert res.returncode == 2
        assert "1000 attempts" in res.stderr
        assert not out.exists()

    def test_negative_seed_is_usage_error(self, tmp_path):
        out = tmp_path / "code.alist"
        res = run_cli("gen-code", "--n", "24", "--dv", "3", "--dc", "6",
                      "--seed", "-1", "--out", str(out))
        assert res.returncode == 1
        assert "--seed must be at least 0, got -1" in res.stderr
        assert not out.exists()

    def test_ensemble_scale_code(self, tmp_path):
        out = tmp_path / "big.alist"
        res = run_cli("gen-code", "--n", "1002", "--dv", "3", "--dc", "6",
                      "--seed", "7", "--out", str(out))
        assert res.returncode == 0
        code = parse_alist(out.read_text())
        assert (code.n_vars, code.n_checks) == (1002, 501)
        assert np.all(code.check_degrees == 6) and np.all(code.var_degrees == 3)


class TestProject:
    # Every point lies outside the polytope, so the projection solves for
    # beta; the last one's ramp starts overflow their running sum, which
    # must not warn.
    @pytest.mark.parametrize("u, z, beta_opt, r", [
        ("1 0 0", "0.666666666667 0.333333333333 0.333333333333", "0.333333333333", 0),
        ("1 1 1", "0.666666666667 0.666666666667 0.666666666667", "0.333333333333", 2),
        ("1e308 1e308 0.5", "1 1 0", "0.5", 2),
    ], ids=["1 0 0", "1 1 1", "1e308 1e308 0.5"])
    def test_reference_vector(self, u, z, beta_opt, r):
        res = run_cli("project", stdin=u)
        assert res.returncode == 0
        assert res.stdout == f"{z}\nbeta_opt {beta_opt}\nr {r}\n"
        assert res.stderr == ""

    def test_empty_input_is_runtime_error(self):
        res = run_cli("project", stdin="")
        assert res.returncode == 2

    def test_non_numeric_input_is_runtime_error(self):
        res = run_cli("project", stdin="1 x 0")
        assert res.returncode == 2
        assert "cannot parse input vector" in res.stderr


class TestDecode:
    def test_json_output(self, code_file):
        gamma = " ".join(["1.0"] * 24)
        res = run_cli("decode", "--code", str(code_file), "--llr", gamma)
        assert res.returncode == 0
        record = json.loads(res.stdout)
        assert record["status"] == "Converged"
        assert record["integral"] is True
        assert record["hard_decision"] == [0] * 24
        assert record["ml_certificate"] is True

    # Status, iteration count, hard decision and certificate of seeded
    # decodes; x is not pinned, since its last digits may move.
    @pytest.mark.parametrize("algo, flags, llr, status, iterations, ones, certified", [
        # Bits 0, 5 and 19 negated: ADMM ends certified on the ML codeword.
        ("admm", [], frame((0, 5, 19)), "Converged", 8, {0, 1, 5, 19}, True),
        # Bits 0 and 5 negated: BP's loop, with its per-iteration codeword
        # test, ends on the all-zero word.  BP never certifies.
        ("bp", [], frame((0, 5), value=2), "Converged", 2, set(), False),
        # All-zero LLRs: the all-zero hard decision passes parity from the
        # first iteration, but its bits stay undecided, so BP runs to t_max.
        ("bp", ["--tmax", "40"], frame(value=0), "MaxIters", 40, set(), False),
        # A clean frame: dual ascent reaches consensus at once.
        ("dual-ascent", [], frame(), "Converged", 1, set(), True),
        # Bits 19 and 22 negated: dual ascent runs to t_max on the all-zero
        # word, which ties for ML; cut off there, it is not certified.
        ("dual-ascent", [], frame((19, 22)), "MaxIters", 1000, set(), False),
    ], ids=["admm-noisy", "bp-noisy", "bp-zero-llrs", "dual-ascent-clean", "dual-ascent-tie"])
    def test_pinned_decodes(self, code_file, algo, flags, llr, status, iterations,
                            ones, certified):
        res = run_cli("decode", "--code", str(code_file), "--algo", algo, *flags, "--llr", llr)
        assert res.returncode == 0
        record = json.loads(res.stdout)
        got = (record["status"], record["iterations"], record["hard_decision"],
               record["ml_certificate"])
        assert got == (status, iterations, [int(i in ones) for i in range(24)], certified)

    def test_llr_from_file(self, code_file, tmp_path):
        llr_path = tmp_path / "llr.txt"
        llr_path.write_text("\n".join(["0.5"] * 24))
        res = run_cli("decode", "--code", str(code_file), "--llr", str(llr_path),
                      "--algo", "bp")
        assert res.returncode == 0
        assert json.loads(res.stdout)["hard_decision"] == [0] * 24

    def test_missing_code_file_is_runtime_error(self):
        res = run_cli("decode", "--code", "missing.alist", "--llr", "1 1")
        assert res.returncode == 2
        assert "missing.alist" in res.stderr

    def test_unknown_flag_is_usage_error(self):
        res = run_cli("decode", "--code", "x", "--llr", "1", "--frobnicate")
        assert res.returncode == 1

    @pytest.mark.parametrize("flag, value, message", [
        ("--mu", "-3", "--mu must be positive and finite, got -3.0"),
        ("--tmax", "0", "--tmax must be at least 1, got 0"),
        ("--rho", "2", "--rho must be in [1, 2)"),
    ], ids=["mu", "tmax", "rho"])
    def test_bad_flag_value_is_usage_error(self, code_file, flag, value, message):
        res = run_cli("decode", "--code", str(code_file), "--llr", frame(), flag, value)
        assert res.returncode == 1
        assert message in res.stderr

    def test_wrong_llr_length(self, code_file):
        res = run_cli("decode", "--code", str(code_file), "--llr", "1 2 3")
        assert res.returncode == 1
        assert "24" in res.stderr

    @pytest.mark.parametrize("llr", ["nan", "inf", "-inf"])
    def test_non_finite_llr_is_usage_error(self, code_file, llr):
        res = run_cli("decode", "--code", str(code_file), "--llr",
                      " ".join(["1"] * 23 + [llr]))
        assert res.returncode == 1
        assert "finite" in res.stderr

    @pytest.mark.parametrize("algo, flag, value", [
        ("bp", "--llr-clip", "nan"), ("admm", "--mu", "nan"), ("admm", "--mu", "inf"),
        ("admm", "--epsilon", "nan"), ("dual-ascent", "--step", "inf"),
        # Flags of a decoder that does not run are checked too.
        ("admm", "--step", "inf"), ("bp", "--step", "inf"), ("bp", "--mu", "nan"),
    ])
    def test_non_finite_decoder_parameter_is_usage_error(self, code_file, algo, flag, value):
        res = run_cli("decode", "--code", str(code_file), "--llr", " ".join(["1"] * 24),
                      "--algo", algo, flag, value)
        assert res.returncode == 1
        assert f"{flag} must be positive and finite" in res.stderr


    def test_defaults_in_help(self):
        res = run_cli("decode", "--help")
        assert res.returncode == 0
        for token in ("3.0", "1e-05", "1000", "1.9"):
            assert token in res.stdout


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, code_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tmax=2\nmu=3.0\n")
        gamma = " ".join(["0.01"] * 12 + ["-0.01"] * 12)
        res = run_cli("decode", "--code", str(code_file), "--llr", gamma,
                      "--config", str(cfg), "--epsilon", "1e-12")
        assert res.returncode == 0
        assert json.loads(res.stdout)["iterations"] == 2  # config tmax applied
        res2 = run_cli("decode", "--code", str(code_file), "--llr", gamma,
                       "--config", str(cfg), "--epsilon", "1e-12", "--tmax", "5")
        assert json.loads(res2.stdout)["iterations"] == 5  # flag beats config

    def test_unknown_config_key_rejected(self, code_file, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("volume=11\n")
        res = run_cli("decode", "--code", str(code_file), "--llr", "1",
                      "--config", str(cfg))
        assert res.returncode == 1
        assert "volume" in res.stderr

    def test_abbreviated_flag_beats_config(self, code_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tmax=2\n")
        gamma = " ".join(["0.01"] * 12 + ["-0.01"] * 12)
        res = run_cli("decode", "--code", str(code_file), "--llr", gamma,
                      "--config", str(cfg), "--epsilon", "1e-12", "--tma", "5")
        assert res.returncode == 0
        assert json.loads(res.stdout)["iterations"] == 5

    def test_bad_config_value_is_usage_error(self, code_file, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# comment\n\nalgo=bogus\n")
        res = run_cli("decode", "--code", str(code_file), "--llr",
                      " ".join(["1"] * 24), "--config", str(cfg))
        assert res.returncode == 1
        assert "--algo" in res.stderr

    def test_config_line_without_value_is_usage_error(self, code_file, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("tmax\n")
        res = run_cli("decode", "--code", str(code_file), "--llr", "1",
                      "--config", str(cfg))
        assert res.returncode == 1
        assert "bad.cfg:1" in res.stderr

    def test_underscored_keys_and_negative_values(self, code_file, tmp_path):
        # llr_clip names --llr-clip; a value like -1e-3 is not read as a flag.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("algo=bp\nllr_clip=-1e-3\n")
        res = run_cli("decode", "--code", str(code_file), "--llr",
                      " ".join(["1"] * 24), "--config", str(cfg))
        assert res.returncode == 1
        assert "--llr-clip must be positive" in res.stderr

    @pytest.mark.parametrize("algo", list(DECODERS))
    def test_decoder_defaults_are_config_defaults(self, algo):
        parser = build_parser()
        for argv in (["decode", "--code", "c", "--llr", "1", "--algo", algo],
                     ["simulate", "--code", "c", "--channel", "bsc",
                      "--points", "0.1", "--decoder", algo]):
            args = parser.parse_args(argv)
            assert _decoder_ref(algo, args).config == DECODERS[algo]()


class TestSimulate:
    def test_csv_and_rerun_identical(self, code_file, tmp_path):
        args = ("simulate", "--code", str(code_file), "--channel", "bsc",
                "--points", "0.02,0.05", "--decoder", "admm", "--trials", "40",
                "--seed", "3", "--tmax", "150", "--no-timing")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == 0
        assert a.stdout == b.stdout
        lines = a.stdout.strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("decoder,channel_kind")

    def test_snr_out_of_float_range_is_usage_error(self, code_file):
        res = run_cli("simulate", "--code", str(code_file), "--channel", "awgn",
                      "--points", "3100", "--trials", "4")
        assert res.returncode == 1
        assert "snr_db = 3100.0 dB" in res.stderr

    @pytest.mark.parametrize("points, message", [
        (",", "--points"), ("", "--points"), ("0.05,abc", "cannot parse --points"),
    ], ids=[",", "", "0.05,abc"])
    def test_points_without_a_value_is_usage_error(self, code_file, points, message):
        res = run_cli("simulate", "--code", str(code_file), "--channel", "bsc",
                      "--points", points, "--trials", "4")
        assert res.returncode == 1
        assert message in res.stderr
        assert res.stdout == ""

    def test_needs_exactly_one_budget(self, code_file):
        res = run_cli("simulate", "--code", str(code_file), "--channel", "bsc",
                      "--points", "0.02", "--decoder", "admm")
        assert res.returncode == 1

    def test_csv_rate_is_the_awgn_points_rate(self, code_file):
        # The noise comes from --rate, so the row must record it, not the
        # code's design rate of 0.5.
        res = run_cli("simulate", "--code", str(code_file), "--channel", "awgn",
                      "--points", "3", "--rate", "0.3", "--trials", "2", "--no-timing")
        assert res.returncode == 0
        row = dict(zip(*csv.reader(res.stdout.splitlines())))
        assert (row["channel_param"], row["rate"]) == ("3", "0.3")

    def test_rate_on_bsc_is_usage_error(self, code_file):
        # The BSC's noise does not depend on the rate, so the flag cannot apply.
        res = run_cli("simulate", "--code", str(code_file), "--channel", "bsc",
                      "--points", "0.05", "--rate", "0.3", "--trials", "2")
        assert res.returncode == 1
        assert "--rate applies to --channel awgn only" in res.stderr
        assert res.stdout == ""

    # A target-errors pool stops mid-wave, each pooled BP chunk unpickles
    # the code, and an AWGN pool draws Gaussian noise; each must write the
    # serial sweep's CSV.
    @pytest.mark.parametrize("flags", [
        ["--channel", "bsc", "--points", "0.05,0.08", "--target-errors", "5"],
        ["--channel", "bsc", "--points", "0.03,0.05", "--decoder", "bp", "--trials", "64"],
        ["--channel", "awgn", "--points", "8.0", "--decoder", "admm", "--trials", "25",
         "--seed", "1"],
    ], ids=["target-errors", "bp", "awgn"])
    def test_pooled_sweep_writes_the_serial_csv(self, code_file, flags):
        args = ("simulate", "--code", str(code_file), *flags, "--no-timing")
        a = run_cli(*args, "--workers", "1")
        b = run_cli(*args, "--workers", "2")
        assert a.returncode == 0
        assert a.stdout == b.stdout

    # The worker count comes from --workers or a config file, never the
    # environment; either way its error names the flag.
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_fewer_than_one_worker_is_usage_error(self, code_file, tmp_path, source):
        flags = ["--workers", "0"]
        if source == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text("workers=0\n")
            flags = ["--config", str(cfg)]
        res = run_cli("simulate", "--code", str(code_file), "--channel", "bsc",
                      "--points", "0.02", "--trials", "5", *flags)
        assert res.returncode == 1
        assert "--workers must be at least 1, got 0" in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("flag", ["--trials", "--target-errors"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_budget_below_one_is_usage_error(self, code_file, flag, value):
        res = run_cli("simulate", "--code", str(code_file), "--channel", "bsc",
                      "--points", "0.02", flag, value)
        assert res.returncode == 1
        assert f"{flag} must be at least 1" in res.stderr

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_max_trials_below_one_is_usage_error(self, code_file, value):
        res = run_cli("simulate", "--code", str(code_file), "--channel", "bsc",
                      "--points", "0.02", "--target-errors", "5", "--max-trials", value)
        assert res.returncode == 1
        assert f"--max-trials must be at least 1, got {value}" in res.stderr
        assert res.stdout == ""

    def test_negative_seed_is_usage_error(self, code_file):
        res = run_cli("simulate", "--code", str(code_file), "--channel", "bsc",
                      "--points", "0.05", "--trials", "4", "--seed", "-1")
        assert res.returncode == 1
        assert "--seed must be at least 0, got -1" in res.stderr
        assert res.stdout == ""
