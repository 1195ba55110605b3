"""Command-line interface: flags, exit codes, determinism, round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hypoexp import Hypoexponential, read_samples, validate_against
from hypoexp.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_exponential_at_zero(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--dist", "exp", "--lambda", "1", "--x", "0")
        assert code == 0
        assert "pdf=1 cdf=0" in out

    def test_eme_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--dist", "eme", "--n", "2", "--lambda", "1",
            "--w", "3", "--x", "0.5,1,2",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_structured_records(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--dist", "erlang", "--n", "2", "--lambda", "1",
            "--x", "1.0", "--format", "structured",
        )
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["type"] == "eval"
        assert rec["pdf"] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_hypo_rates(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--dist", "hypo", "--rates", "1,2", "--x", "0.6931471805599453"
        )
        assert code == 0
        assert "pdf=0.5" in out

    def test_hypo_repeated_rates(self, capsys):
        # rates 1, 1, 2: Erlang(2, 1) convolved with Exp(2) gives
        # f = 2 e^-2x ((x - 1) e^x + 1) and F = 1 - e^-2x - 2x e^-x
        code, out, _ = run_cli(capsys, "eval", "--dist", "hypo", "--rates", "1,1,2",
                               "--x", "0.5", "--format", "structured")
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["pdf"] == pytest.approx(2.0 * np.exp(-1.0) * (1.0 - 0.5 * np.exp(0.5)),
                                           rel=1e-13, abs=0.0)
        assert rec["cdf"] == pytest.approx(1.0 - np.exp(-1.0) - np.exp(-0.5), rel=1e-13, abs=0.0)

    def test_missing_param_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--dist", "eme", "--n", "2",
                               "--lambda", "1", "--x", "1")
        assert code == 2
        assert "--w" in err

    def test_negative_x_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--dist", "exp", "--lambda", "1", "--x", "-1")
        assert code == 1
        assert "error" in err

    def test_unparseable_flag_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--dist", "exp", "--lambda", "1", "--x", "a,b")
        assert code == 2


class TestSampleAndFit:
    def test_overflowing_sample_prints_only_its_error(self):
        # 1/1e-310 overflows every draw: the DataError line alone, without
        # numpy's overflow warning, even with every warning shown
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-W", "always", "-c",
             "import sys, hypoexp.cli; sys.exit(hypoexp.cli.main(sys.argv[1:]))",
             "sample", "--dist", "exp", "--lambda", "1e-310", "--count", "5"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode != 0
        assert done.stdout == ""
        assert done.stderr == "error: sample values contains non-finite values\n"

    def test_sample_writes_file(self, capsys, tmp_path):
        out_file = tmp_path / "draws.txt"
        code, out, _ = run_cli(
            capsys, "sample", "--dist", "exp", "--lambda", "2", "--count", "100",
            "--seed", "5", "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) == 100

    def test_sample_deterministic(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        run_cli(capsys, "sample", "--dist", "eme", "--n", "2", "--lambda", "1",
                "--w", "3", "--count", "50", "--seed", "9", "--out", str(f1))
        run_cli(capsys, "sample", "--dist", "eme", "--n", "2", "--lambda", "1",
                "--w", "3", "--count", "50", "--seed", "9", "--out", str(f2))
        assert f1.read_text() == f2.read_text()

    @pytest.mark.parametrize("argv", [
        ["sample", "--dist", "eme", "--n", "2", "--lambda", "1", "--w", "3"],
        ["simulate", "--stages", "1,1,0.2"],
    ], ids=["sample", "simulate"])
    def test_stdout_is_the_out_file_byte_for_byte(self, capsys, tmp_path, argv):
        # 5000 values cross the writer's block boundary
        out_file = tmp_path / "values.txt"
        argv = [*argv, "--count", "5000", "--seed", "4"]
        code, printed, _ = run_cli(capsys, *argv)
        assert code == 0
        assert run_cli(capsys, *argv, "--out", str(out_file))[0] == 0
        assert printed.encode() == out_file.read_bytes()
        assert len(printed.splitlines()) == 5000

    def test_structured_stdout_is_one_record_per_value(self, capsys, tmp_path):
        out_file = tmp_path / "values.txt"
        argv = ["simulate", "--stages", "1,0.5", "--count", "20", "--seed", "4"]
        code, printed, _ = run_cli(capsys, *argv, "--format", "structured")
        assert code == 0
        run_cli(capsys, *argv, "--out", str(out_file))
        records = [json.loads(line) for line in printed.splitlines()]
        assert records == [{"type": "value", "value": v} for v in read_samples(out_file).tolist()]

    def test_sample_then_fit_round_trip(self, capsys, tmp_path):
        data = tmp_path / "eme.txt"
        run_cli(capsys, "sample", "--dist", "eme", "--n", "2", "--lambda", "1",
                "--w", "4", "--count", "20000", "--seed", "3", "--out", str(data))
        code, out, _ = run_cli(capsys, "fit", "--in", str(data), "--n", "2",
                               "--format", "structured")
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["lambda"] == pytest.approx(1.0, rel=0.1)
        assert rec["w"] == pytest.approx(4.0, rel=0.2)

    def test_fit_search_flag(self, capsys, tmp_path):
        data = tmp_path / "erl.txt"
        run_cli(capsys, "sample", "--dist", "erlang", "--n", "3", "--lambda", "1",
                "--count", "5000", "--seed", "8", "--out", str(data))
        code, out, _ = run_cli(capsys, "fit", "--in", str(data), "--search", "3",
                               "--format", "structured")
        assert code == 0
        rec = json.loads(out.strip())
        mean = (rec["n"] + rec["w"]) / rec["lambda"]
        assert mean == pytest.approx(3.0, rel=0.05)

    @pytest.mark.parametrize("z", [(0.0, -800.0), (0.0, 800.0), (-800.0, 0.0)])
    def test_fit_step_out_of_range_is_one_error_line(self, capsys, tmp_path, monkeypatch, z):
        import hypoexp.fitting

        def minimize(fun, z0, **kwargs):
            fun(np.array(z))

        monkeypatch.setattr(hypoexp.fitting, "optimize", SimpleNamespace(minimize=minimize))
        data = tmp_path / "d.txt"
        data.write_text("\n".join(map(str, np.random.default_rng(0).exponential(1.0, 300))))
        code, out, err = run_cli(capsys, "fit", "--in", str(data), "--n", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("error: Newton search stepped out of range for n=2")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("search", ["0", "-2"])
    def test_fit_search_below_one_is_usage_error(self, capsys, tmp_path, search):
        # 0 used to be read as "unset" and scanned 1..5
        data = tmp_path / "d.txt"
        data.write_text("1.0\n2.0\n3.0\n")
        code, out, err = run_cli(capsys, "fit", "--in", str(data), "--search", search)
        assert code == 2
        assert out == ""
        assert "--search" in err

    def test_fit_conflicting_flags(self, capsys, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("1.0\n2.0\n3.0\n")
        code, _, err = run_cli(capsys, "fit", "--in", str(data), "--n", "2", "--search", "3")
        assert code == 2
        assert "--n" in err and "--search" in err

    @pytest.mark.parametrize("flags", [["--n", "2", "--search", "3"], ["--search", "0"]])
    def test_fit_flags_are_checked_before_the_file_is_read(self, capsys, tmp_path, flags):
        code, out, err = run_cli(capsys, "fit", "--in", str(tmp_path / "missing.txt"), *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ") and "--search" in err

    def test_sample_to_a_missing_directory_is_data_error(self, capsys, tmp_path):
        out_path = tmp_path / "missing_dir" / "x.txt"
        code, out, err = run_cli(capsys, "sample", "--dist", "exp", "--lambda", "1",
                                 "--count", "3", "--out", str(out_path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {out_path}: ")
        assert len(err.splitlines()) == 1


class TestGof:
    def _write_exp_sample(self, tmp_path, n=200, seed=17):
        rng = np.random.default_rng(seed)
        path = tmp_path / "exp.txt"
        path.write_text("".join(f"{v:.17g}\n" for v in rng.exponential(1.0, n)))
        return path

    def test_reproducible_structured_output(self, capsys, tmp_path):
        path = self._write_exp_sample(tmp_path)
        args = ("gof", "--in", str(path), "--B", "99", "--seed", "4",
                "--format", "structured")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2  # byte-identical structured report
        rec = json.loads(out1.strip())
        assert set(rec) >= {"statistic", "p_value", "lambda_hat", "n", "w", "B",
                            "seed", "reject"}
        assert "mc_standard_error" not in rec  # diagnostics stay out of records

    def test_exit_zero_even_on_rejection(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "weibull.txt"
        path.write_text("".join(f"{v:.17g}\n" for v in rng.weibull(0.5, 200)))
        code, out, _ = run_cli(capsys, "gof", "--in", str(path), "--B", "99",
                               "--format", "structured")
        assert code == 0
        assert json.loads(out.strip())["reject"] is True

    def test_text_report_contains_runtime_and_method(self, capsys, tmp_path):
        path = self._write_exp_sample(tmp_path, n=100)
        code, out, _ = run_cli(capsys, "gof", "--in", str(path), "--B", "99")
        assert code == 0
        assert "runtime=" in out and "method:" in out and "p_value=" in out

    def test_residual_table(self, capsys, tmp_path):
        path = self._write_exp_sample(tmp_path, n=100)
        table = tmp_path / "resid.txt"
        code, _, _ = run_cli(capsys, "gof", "--in", str(path), "--B", "99",
                             "--residual-table", str(table))
        assert code == 0
        rows = table.read_text().strip().splitlines()
        assert len(rows) == 64
        assert all(len(r.split()) == 2 for r in rows)

    def test_residual_table_in_a_missing_directory_is_data_error(self, capsys, tmp_path):
        path = self._write_exp_sample(tmp_path, n=50)
        table = tmp_path / "missing_dir" / "t.txt"
        code, out, err = run_cli(capsys, "gof", "--in", str(path), "--B", "99",
                                 "--residual-table", str(table))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {table}: ")
        assert len(err.splitlines()) == 1

    def test_invalid_b_is_domain_error(self, capsys, tmp_path):
        path = self._write_exp_sample(tmp_path, n=50)
        code, _, err = run_cli(capsys, "gof", "--in", str(path), "--B", "0")
        assert code == 1
        assert "bootstrap_reps" in err

    def test_infinite_grid_decay_is_domain_error(self, capsys, tmp_path):
        # accepted before: every grid weight exp(-inf t) was 0, so p = 1
        path = self._write_exp_sample(tmp_path, n=50)
        code, _, err = run_cli(capsys, "gof", "--in", str(path), "--grid-decay", "inf")
        assert code == 1
        assert "grid_decay" in err

    def test_fit_family_flag_is_gone(self, capsys, tmp_path):
        path = self._write_exp_sample(tmp_path, n=50)
        code, _, err = run_cli(capsys, "fit", "--in", str(path), "--family", "eme")
        assert code == 2
        assert "--family" in err


class TestVerifyAndSimulate:
    def test_verify_quick(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--sweep", "quick")
        assert code == 0
        assert "failures" in out

    def test_verify_structured(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--sweep", "quick",
                               "--format", "structured")
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert records[-1]["type"] == "verify-total"
        assert records[-1]["failures"] == 0

    @pytest.mark.parametrize("sweep", ["default", "quick"])
    def test_verify_structured_matches_golden_records(self, capsys, sweep):
        # records captured before the sweeps moved to integer numerators and
        # array double-doubles; they carry no timings, so they must not move
        golden = (Path(__file__).parent / "golden" / f"verify_{sweep}.jsonl").read_text()
        code, out, _ = run_cli(capsys, "verify", "--sweep", sweep, "--format", "structured")
        assert code == 0
        assert out == golden

    @pytest.mark.parametrize("max_n", ["0", "-3"])
    def test_verify_rejects_empty_sweep(self, capsys, max_n):
        for sweep in ("default", "quick"):
            code, out, err = run_cli(capsys, "verify", "--max-n", max_n, "--sweep", sweep)
            assert code == 2
            assert out == ""
            assert "--max-n" in err

    def test_simulate_writes_sample_file(self, capsys, tmp_path):
        out_file = tmp_path / "times.txt"
        code, _, _ = run_cli(capsys, "simulate", "--stages", "1,1,1,1,0.2",
                             "--count", "500", "--seed", "2", "--out", str(out_file))
        assert code == 0
        assert len(out_file.read_text().strip().splitlines()) == 500

    def test_simulate_stdout_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "simulate", "--stages", "1,0.5",
                                 "--count", "3", "--seed", "6")
        code2, out2, _ = run_cli(capsys, "simulate", "--stages", "1,0.5",
                                 "--count", "3", "--seed", "6")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_simulate_repeated_stages_match_their_law(self, capsys, tmp_path):
        out_file = tmp_path / "times.txt"
        code, _, _ = run_cli(capsys, "simulate", "--stages", "1,1,2,2,3",
                             "--count", "100000", "--out", str(out_file))
        assert code == 0
        times = read_samples(out_file)
        assert len(times) == 100_000
        assert validate_against(times, Hypoexponential((1.0, 1.0, 2.0, 2.0, 3.0))).passed

    def test_simulate_bad_stage_is_domain_error(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--stages", "1,-1", "--count", "5")
        assert code == 1

    @pytest.mark.parametrize("subcommand", ["fit", "gof"])
    def test_non_utf8_sample_file_is_data_error(self, capsys, tmp_path, subcommand):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"\xff\xfe\n1.0\n")
        code, _, err = run_cli(capsys, subcommand, "--in", str(path))
        assert code == 1
        assert err.startswith("error: cannot read")


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("count = 4\nseed = 11\n")
        code, out1, _ = run_cli(capsys, "sample", "--dist", "exp", "--lambda", "1",
                                "--count", "2", "--config", str(cfg))
        assert code == 0
        assert len(out1.strip().splitlines()) == 2  # flag beats config
        code, out2, _ = run_cli(capsys, "sample", "--dist", "exp", "--lambda", "1",
                                "--config", str(cfg))
        assert code == 0
        assert len(out2.strip().splitlines()) == 4  # config beats parser default

    def test_config_with_equals_sign(self, capsys, tmp_path):
        # --config=FILE was ignored: verify ran its full default sweep
        cfg = tmp_path / "v.cfg"
        cfg.write_text("max_n = 3\nsweep = quick\n")
        code, joined, _ = run_cli(capsys, "verify", f"--config={cfg}", "--format", "structured")
        assert code == 0
        code, spaced, _ = run_cli(capsys, "verify", "--config", str(cfg), "--format", "structured")
        assert code == 0
        assert joined == spaced
        assert json.loads(joined.splitlines()[-1])["checks"] == 4017
        cfg.write_text("count = 4\n")
        code, out, _ = run_cli(capsys, "sample", "--dist", "exp", "--lambda", "1",
                               f"--config={cfg}")
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_abbreviated_config_is_usage_error(self, capsys, tmp_path):
        # argparse took --conf for --config, but the file was never read:
        # verify ran its full 178,425-check sweep instead of 4,017 checks
        cfg = tmp_path / "v.cfg"
        cfg.write_text("max_n = 3\nsweep = quick\n")
        code, out, err = run_cli(capsys, "verify", "--conf", str(cfg), "--format", "structured")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --conf" in err

    @pytest.mark.parametrize("argv", [
        ["eval", "--dist", "exp", "--lambda", "1", "--x", "1"],
        ["sample", "--dist", "exp", "--lambda", "1", "--count", "2"],
        ["fit", "--in", "missing.txt", "--n", "2"],
        ["gof", "--in", "missing.txt"],
        ["verify", "--max-n", "2"],
        ["simulate", "--stages", "1,2", "--count", "2"],
    ])
    def test_no_subcommand_takes_an_abbreviated_flag(self, capsys, argv):
        # --form is a prefix of --format, which every subcommand has
        code, out, err = run_cli(capsys, *argv, "--form", "structured")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --form" in err

    @pytest.mark.parametrize("second", [["--config", "b.cfg"], ["--config=b.cfg"]])
    def test_second_config_is_usage_error(self, capsys, tmp_path, second):
        # the second one was dropped
        cfg = tmp_path / "a.cfg"
        cfg.write_text("count = 4\n")
        code, out, err = run_cli(capsys, "sample", "--dist", "exp", "--lambda", "1",
                                 "--config", str(cfg), *second)
        assert code == 2
        assert out == ""
        assert err == "usage error: --config may be given only once\n"

    def test_non_utf8_config_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff\xfe count = 4\n")
        code, _, err = run_cli(capsys, "sample", "--dist", "exp", "--lambda", "1",
                               "--config", str(cfg))
        assert code == 2
        assert err.startswith("usage error: --config: cannot read")

    def test_missing_subcommand_exits_two(self, capsys):
        assert run_cli(capsys)[0] == 2
