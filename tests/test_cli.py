import json
import math

import pytest

from mfg_forecast import experiments
from mfg_forecast.cli import EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, \
    UsageError, main, parse_config
from mfg_forecast.objective import Objective

FAST = ["--tol", "1e-2", "--max-iters", "300"]


def test_parse_run_defaults():
    cfg = parse_config(["run", "--test", "T1_1", "--out", "x"])
    assert cfg.command == "run"
    assert cfg.options["test"] == "T1_1"
    assert cfg.options["lam"] is None  # defaults resolve downstream


def test_parse_rejects_unknown_flag():
    with pytest.raises(UsageError):
        parse_config(["run", "--test", "T1_1", "--out", "x", "--bogus", "1"])


def test_parse_rejects_unknown_test():
    with pytest.raises(UsageError, match="T7_7"):
        parse_config(["run", "--test", "T7_7", "--out", "x"])


def test_usage_error_exit_code(capsys):
    assert main(["run", "--test", "T1_1"]) == EXIT_USAGE  # missing --out
    assert "usage error" in capsys.readouterr().err


def test_config_file_precedence(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("noise = 0.01\nlambda = 3\n# comment\n")
    cfg = parse_config(["run", "--test", "T1_1", "--out", "x",
                        "--config", str(cfg_file), "--noise", "0.02"])
    assert cfg.options["noise"] == 0.02  # flag beats file
    assert cfg.options["lam"] == 3.0  # file beats default


def test_config_file_unknown_key(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("bogus = 1\n")
    with pytest.raises(UsageError, match="bogus"):
        parse_config(["run", "--test", "T1_1", "--out", "x",
                      "--config", str(cfg_file)])


def test_run_writes_artifacts_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "t12"
    code = main(["run", "--test", "T1_2", "--out", str(out)] + FAST)
    assert code == EXIT_OK
    assert (out / "summary.json").exists()
    assert (out / "u_pred.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "converged"
    assert summary["config"]["tol"] == 1e-2


def test_run_zero_noise_flag(tmp_path):
    out = tmp_path / "clean"
    code = main(["run", "--test", "T1_2", "--out", str(out), "--noise", "0"]
                + FAST)
    assert code == EXIT_OK
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["noise"] == 0.0


def test_run_budget_exhaustion_is_numerical_failure(tmp_path):
    out = tmp_path / "t12b"
    code = main(["run", "--test", "T1_2", "--out", str(out),
                 "--tol", "1e-12", "--max-iters", "3"])
    assert code == EXIT_NUMERICAL


def test_run_invalid_parameter_is_numerical_failure(tmp_path):
    # c below its admissible floor is rejected by the parameter contract
    code = main(["run", "--test", "T1_2", "--out", str(tmp_path / "x"),
                 "--c", "1.5"] + FAST)
    assert code == EXIT_NUMERICAL


@pytest.mark.parametrize("command", [
    ["run", "--test", "T1_2"],
    ["export-case", "--test", "T2_1"],
    ["check-gradient", "--test", "T2_1"],
    ["check-carleman", "--lambda-max", "2"],
])
@pytest.mark.parametrize("flag, value, message", [
    ("--tol", "inf", "tol must lie in (0, 1), got inf"),
    ("--tol", "nan", "tol must lie in (0, 1), got nan"),
    ("--lambda", "nan", "lam must be positive, got nan"),
    ("--c", "nan", "c=nan must reach the admissible floor"),
    ("--a", "nan", "a must exceed 1, got nan"),
    ("--d", "nan", "d must be positive, got nan"),
    ("--dx", "nan", "dx must be positive, got nan"),
    ("--dt", "nan", "dt must be positive, got nan"),
    ("--kernel", "nan", "kernel must be finite, got nan"),
    ("--noise", "nan", "noise level must be nonnegative, got nan"),
])
def test_bad_values_exit_2_naming_the_parameter(tmp_path, capsys, command, flag,
                                                value, message):
    # every command checks the resolved configuration before it writes
    out = tmp_path / "out"
    code = main([*command, flag, value, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL
    assert message in captured.err
    assert "converged" not in captured.out
    assert not out.exists()


def test_rerun_bit_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--test", "T1_2", "--out", str(out1)] + FAST) == EXIT_OK
    assert main(["run", "--test", "T1_2", "--out", str(out2)] + FAST) == EXIT_OK
    for name in ("u_pred.csv", "m_pred.csv", "rel_cost.csv", "trace.csv",
                 "summary.json", "config.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_extended_writes_full_horizon_fields(tmp_path):
    # short budget: artifacts must still cover t in [0, 2]
    out = tmp_path / "ext"
    code = main(["run", "--test", "T1_1_extended", "--out", str(out),
                 "--max-iters", "50", "--tol", "1e-30"])
    assert code == EXIT_NUMERICAL  # budget exhausted, outputs still written
    rel = (out / "rel_cost.csv").read_text().splitlines()
    assert rel[0] == "t,F"
    assert len(rel) == 1 + 21
    assert rel[-1].startswith("2,")
    u_rows = (out / "u_pred.csv").read_text().splitlines()
    assert len(u_rows) == 1 + 21 * 21


def test_sweep_writes_summary(tmp_path):
    out = tmp_path / "sweep"
    code = main(["sweep", "--test", "T1_2", "--param", "lambda",
                 "--values", "1,2", "--out", str(out)] + FAST)
    assert code == EXIT_OK
    lines = (out / "sweep_summary.csv").read_text().splitlines()
    assert lines[0].startswith("lambda,")
    assert len(lines) == 3
    assert (out / "lambda_1" / "summary.json").exists()
    assert (out / "lambda_2" / "summary.json").exists()


def test_sweep_records_a_failing_value_and_continues(tmp_path, capsys):
    # lambda 5 overflows the combined weight exponent on T1_2; the sweep
    # records it as an error row, runs lambda 1 after it, and exits 2
    out = tmp_path / "sweep"
    code = main(["sweep", "--test", "T1_2", "--param", "lambda",
                 "--values", "2,5,1", "--max-iters", "50", "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err
    lines = (out / "sweep_summary.csv").read_text().splitlines()
    assert lines[0] == "lambda,status,foo_ratio,objective_total"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == [2.0, 5.0, 1.0]
    assert rows[1][1] == "error"
    assert math.isnan(float(rows[1][2])) and math.isnan(float(rows[1][3]))
    assert rows[0][1] != "error" and rows[2][1] != "error"
    assert (out / "lambda_2" / "summary.json").exists()
    assert (out / "lambda_1" / "summary.json").exists()
    assert not (out / "lambda_5").exists()


@pytest.mark.parametrize("flags", [["--method", "gd"], ["--step0", "1"]])
def test_removed_optimizer_flags_are_usage_errors(tmp_path, flags):
    code = main(["run", "--test", "T1_2", "--out", str(tmp_path / "x")]
                + FAST + flags)
    assert code == EXIT_USAGE


def test_removed_optimizer_config_keys_are_rejected(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("method = gd\n")
    code = main(["run", "--test", "T1_2", "--out", str(tmp_path / "x"),
                 "--config", str(cfg_file)] + FAST)
    assert code == EXIT_USAGE
    with pytest.raises(ValueError, match="unknown override keys"):
        experiments.resolve_config("T1_1", {"step0": 1.0})


@pytest.mark.parametrize("param", ["max_iters", "seed"])
def test_sweep_rejects_fractional_integer_values(tmp_path, capsys, param):
    # max_iters and seed are integers: 5.2 is refused before any run,
    # rather than run as 5 under the label 5.2
    out = tmp_path / "s"
    code = main(["sweep", "--test", "T1_2", "--param", param, "--values",
                 "5,5.2,5.7", "--out", str(out)])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "takes integers, got 5.2, 5.7" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_sweep_rejects_unknown_parameter(tmp_path):
    code = main(["sweep", "--test", "T1_2", "--param", "bogus",
                 "--values", "1,2", "--out", str(tmp_path / "s")])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("values, named", [
    ("1.0000001e-5,1.0000002e-5", "1.0000001e-05, 1.0000002e-05"),
    ("1e-4,2e-4,0.0001", "0.0001, 0.0001")], ids=["alike", "duplicate"])
def test_sweep_rejects_values_sharing_a_run_directory(tmp_path, capsys, values,
                                                      named):
    # both values would write alpha_1e-05 (or alpha_0.0001): refused
    # before any run, rather than one run overwriting the other
    out = tmp_path / "s"
    code = main(["sweep", "--test", "T1_2", "--param", "alpha", "--values",
                 values, "--max-iters", "5", "--out", str(out)])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert named in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_check_gradient_cli(tmp_path):
    out = tmp_path / "grad"
    code = main(["check-gradient", "--states", "2", "--directions", "6",
                 "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads((out / "gradient_check.json").read_text())
    assert payload["max_rel_error"] < 1e-6


def test_check_gradient_nan_reading_is_numerical_failure(tmp_path, monkeypatch):
    exact = Objective.value_and_gradient_arrays

    def planted(self, ev):
        breakdown, gu, gm = exact(self, ev)
        gu = gu.copy()
        gu[5, 5] = math.nan
        return breakdown, gu, gm

    monkeypatch.setattr(Objective, "value_and_gradient_arrays", planted)
    out = tmp_path / "grad"
    code = main(["check-gradient", "--states", "2", "--directions", "6",
                 "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert math.isnan(json.loads((out / "gradient_check.json").read_text())
                      ["max_rel_error"])


@pytest.mark.parametrize("counts", [("0", "6"), ("2", "0"), ("-1", "6")])
def test_check_gradient_without_work_is_usage_error(tmp_path, capsys, counts):
    out = tmp_path / "grad"
    code = main(["check-gradient", "--states", counts[0], "--directions",
                 counts[1], "--out", str(out)])
    assert code == EXIT_USAGE
    assert "at least 1" in capsys.readouterr().err
    assert not (out / "gradient_check.json").exists()


@pytest.mark.parametrize("flags, message", [
    (["--samples", "100"], "--samples"),  # removed: the constants are exact
    (["--samples", "-4"], "--samples"),
    (["--lambda-min", "0"], "--lambda-min"),
    (["--lambda-min", "5", "--lambda-max", "2"], "exceeds"),
    (["--check-seed", "0"], "--check-seed"),  # removed: nothing is drawn
])
def test_check_carleman_bad_inputs_are_usage_errors(tmp_path, capsys, flags,
                                                    message):
    for quasi in ([], ["--quasi"]):
        out = tmp_path / "carl"
        code = main(["check-carleman", *quasi, *flags, "--out", str(out)])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_check_carleman_cli(tmp_path):
    out = tmp_path / "carl"
    code = main(["check-carleman", "--lambda-min", "1", "--lambda-max", "4",
                 "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads((out / "carleman_sweep.json").read_text())
    assert payload["threshold_lambda"] == 1
    assert [r["status"] for r in payload["reports"]] == \
        ["constant"] * 3 + ["unresolved"]
    assert payload["reports"][3]["fitted_c"] is None
    assert payload["reports"][3]["pass"] is False


def test_check_carleman_output_depends_on_no_seed(tmp_path):
    # the noise seed is the only seed left on the command; the estimate
    # never sees the noisy data, so it leaves the output unchanged
    outs = [tmp_path / "a", tmp_path / "b"]
    for out, seed in zip(outs, ("1", "2")):
        assert main(["check-carleman", "--quasi", "--lambda-max", "3", "--seed",
                     seed, "--out", str(out)]) == EXIT_OK
    name = "quasi_carleman_sweep.json"
    assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_check_carleman_quasi_cli(tmp_path):
    out = tmp_path / "quasi"
    code = main(["check-carleman", "--quasi", "--lambda-min", "2",
                 "--lambda-max", "2", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads((out / "quasi_carleman_sweep.json").read_text())
    assert payload["reports"][0]["kind"] == "quasi_carleman"
    assert payload["reports"][0]["fitted_c"] == pytest.approx(0.16343212, rel=1e-6)
    assert payload["threshold_lambda"] == 2


def test_check_carleman_quasi_threshold_matches_criterion_7(tmp_path):
    out = tmp_path / "quasi"
    code = main(["check-carleman", "--quasi", "--lambda-min", "1",
                 "--lambda-max", "3", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads((out / "quasi_carleman_sweep.json").read_text())
    # criterion 7's recorded quasi threshold and constant
    assert payload["reports"][0]["fitted_c"] == pytest.approx(0.13856788, rel=1e-6)
    assert payload["threshold_lambda"] == 1


def test_export_case_ideal_without_optimizing(tmp_path):
    out = tmp_path / "case"
    code = main(["export-case", "--test", "T1_1", "--out", str(out)])
    assert code == EXIT_OK
    for name in ("u0.csv", "m0.csv", "u_true.csv", "m_true.csv",
                 "source_f.csv", "case.json", "config.json"):
        assert (out / name).exists(), name
    assert (out / "u0.csv").read_text().splitlines()[0] == "x,value"


def test_export_case_realistic(tmp_path):
    out = tmp_path / "case21"
    code = main(["export-case", "--test", "T2_1", "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "u0.csv").exists() and (out / "m0.csv").exists()
    assert not (out / "u_true.csv").exists()


def test_io_failure_exit_code(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    code = main(["export-case", "--test", "T2_1", "--out", str(target)])
    assert code == EXIT_IO
