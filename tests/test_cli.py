import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mfg_forecast
from mfg_forecast import experiments
from mfg_forecast.cli import EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, \
    UsageError, _add_flags, _build_parser, _Parser, main, parse_config
from mfg_forecast.objective import Objective

FAST = ["--tol", "1e-2", "--max-iters", "300"]
FLAG = r"(?<![\w-])--[a-z][a-z0-9-]*"

FUNCTIONAL = ["--lambda", "--c", "--a", "--d", "--alpha"]
STEPS = ["--dx", "--dt", "--t-max"]
GRID = ["--gamma", *STEPS]
CASE_DATA = ["--noise", "--seed", "--kernel"]
STOPPING = ["--tol", "--max-iters"]
SUBCOMMAND_FLAGS = {
    "run": ["--test", "--out", *FUNCTIONAL, *GRID, *CASE_DATA, *STOPPING],
    "sweep": ["--test", "--param", "--values", "--out", *FUNCTIONAL, *GRID,
              *CASE_DATA, *STOPPING],
    "check-gradient": ["--test", "--fd-seed", "--out", *FUNCTIONAL, *STEPS,
                       *CASE_DATA],
    "check-carleman": ["--quasi", "--lambda-max", "--out", "--c", *STEPS],
    "export-case": ["--test", "--out", *GRID, *CASE_DATA],
}


def _subparsers() -> dict:
    return next(a for a in _build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _flags_of(command: str) -> set:
    parser = _Parser()
    _add_flags(parser, command)
    return set(parser._option_string_actions) - {"-h", "--help"}


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


VALID_LINES = {
    "run": ["--test", "T1_1", "--out", "x"],
    "sweep": ["--test", "T1_1", "--param", "lambda", "--values", "1", "--out", "x"],
    "check-gradient": ["--out", "x"],
    "check-carleman": ["--out", "x"],
    "export-case": ["--test", "T1_1", "--out", "x"],
}


@pytest.mark.parametrize("command", sorted(VALID_LINES))
def test_a_subcommand_line_builds_one_parser(monkeypatch, command):
    built = []
    init = _Parser.__init__

    def counting_init(self, **kwargs):
        built.append(kwargs)
        init(self, **kwargs)

    monkeypatch.setattr(_Parser, "__init__", counting_init)
    assert parse_config([command, *VALID_LINES[command]]).command == command
    assert built == [{"prog": f"mfg-forecast {command}"}]


@pytest.mark.parametrize("command", [[], *([c] for c in sorted(SUBCOMMAND_FLAGS))],
                         ids=lambda command: " ".join(command) or "program")
def test_help_exits_zero_naming_the_command(capsys, command):
    # a subcommand's help lists exactly the flags it takes
    with pytest.raises(SystemExit) as exit_:
        main([*command, "--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: {' '.join(['mfg-forecast', *command])} [-h]")
    if command:
        flags = set(re.findall(FLAG, out)) - {"--help"}
        assert sorted(flags) == sorted(SUBCOMMAND_FLAGS[command[0]])


def test_a_leading_flag_is_refused_by_name(capsys):
    # the line names no subcommand first, so the top-level parser refuses it
    assert main(["--bogus", "run"]) == EXIT_USAGE
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
def test_each_subcommand_takes_exactly_its_flags(command):
    assert sorted(_flags_of(command)) == sorted(SUBCOMMAND_FLAGS[command])


def test_run_prints_steps_and_counts_states(tmp_path, capsys):
    # the start state is trace row 0: five steps leave six rows, and
    # summary.json's iterations counts the rows
    out = tmp_path / "t12"
    code = main(["run", "--test", "T1_2", "--max-iters", "5", "--tol", "1e-30",
                 "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().out.startswith("T1_2: budget after 5 steps, ")
    assert json.loads((out / "summary.json").read_text())["iterations"] == 6


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


BAD_VALUE_COMMANDS = [
    ["run", "--test", "T1_2"],
    ["export-case", "--test", "T2_1"],
    ["check-gradient", "--test", "T2_1"],
    ["check-carleman", "--lambda-max", "2"],
]
BAD_VALUES = [
    ("--tol", "inf", "tol must lie in (0, 1), got inf"),
    ("--tol", "nan", "tol must lie in (0, 1), got nan"),
    ("--lambda", "nan", "lam must be positive, got nan"),
    ("--lambda", "inf", "lam must be finite, got inf"),
    ("--lambda", "60", "combined weight exponent reaches"),
    ("--lambda", "1000", "not representable at lam=1000"),
    ("--c", "nan", "c=nan must reach the admissible floor"),
    ("--c", "inf", "c must be finite, got inf"),
    ("--a", "nan", "a must exceed 1, got nan"),
    ("--d", "nan", "d must be positive, got nan"),
    ("--dx", "nan", "dx must be positive, got nan"),
    ("--dt", "nan", "dt must be positive, got nan"),
    ("--gamma", "0.05", "gamma=0.05 leaves the recovery window [0, 0.05] with "
     "fewer than two time nodes"),
    ("--kernel", "nan", "kernel must be finite, got nan"),
    ("--noise", "nan", "noise level must be nonnegative, got nan"),
    ("--noise", "inf", "noise level must be finite, got inf"),
    ("--seed", "-1", "noise seed must be nonnegative, got -1"),
]


# each bad value on every command that takes its flag
@pytest.mark.parametrize("command, flag, value, message", [
    pytest.param(argv, flag, value, message,
                 id=f"{flag}-{value}-{message}-command{i}")
    for flag, value, message in BAD_VALUES
    for i, argv in enumerate(BAD_VALUE_COMMANDS)
    if flag in SUBCOMMAND_FLAGS[argv[0]]])
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


def test_refined_run_independent_of_blas_thread_count(tmp_path):
    # 101x51: the optimizer's vectors exceed one inner-product chunk and
    # every stencil takes several blocks, so a reduction that BLAS splits
    # across threads would show in the files.  T2_1 needs 29 steps there
    # and rebuilds the preconditioner after the 24th, so the 27-step budget
    # cycles the curvature history and crosses the rebuild (T1_1 converges
    # in 13 steps, T1_2 in 7)
    src = str(Path(mfg_forecast.__file__).resolve().parents[1])
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "mfg_forecast.cli", "run", "--test", "T2_1",
             "--dx", "0.02", "--dt", "0.02", "--max-iters", "27",
             "--out", str(out)], env=env, capture_output=True, text=True)
        assert proc.returncode == EXIT_NUMERICAL, proc.stderr  # budget
        outputs[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert "u_pred.csv" in outputs["1"]
    summary = json.loads(outputs["1"]["summary.json"])
    assert summary["iterations"] == 28 and summary["preconditioner_builds"] == 2
    assert outputs["1"] == outputs["2"]


# Builds T1_2 on the 161x81 grid (and so its stencil products), lets the
# BLAS workers go idle, then times a run's calls.  A product that BLAS
# splits across threads leaves its second thread spinning for about 0.1 s
# after it returns, which the process's CPU time shows; the trailing sleep
# leaves that spin room to show.
_IDLE_WORKERS = """
import tempfile, time
from mfg_forecast import experiments, optimizer
cfg = experiments.resolve_config("T1_2", {"dx": 0.0125, "dt": 0.0125})
experiments._build_problem("T1_2", cfg)
time.sleep(0.3)
cpu0, wall0 = time.process_time(), time.perf_counter()
grid, spec, truth = experiments._build_problem("T1_2", cfg)
result = optimizer.minimize(spec, experiments.convex_params(cfg),
                            optimizer.OptimizerConfig(tol=1e-5, max_iters=5))
rel = experiments.relative_cost_curve(result.state, spec)
errors = experiments.recovery_errors(result.state, truth)
report = experiments.RunReport("T1_2", cfg, grid, result.state, truth, rel,
                               errors, result.trace, result.status)
with tempfile.TemporaryDirectory() as out:
    report.export(out)
wall = time.perf_counter() - wall0
time.sleep(0.2)
print(time.process_time() - cpu0 - wall)
"""


def test_refined_run_leaves_blas_workers_idle():
    # every stencil application on a run's path is a blocked product, whose
    # small blocks BLAS takes on the calling thread: CPU time equals wall time
    src = str(Path(mfg_forecast.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _IDLE_WORKERS], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 0.02


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


def test_removed_optimizer_config_keys_are_rejected():
    for key in ("step0", "method", "x_min", "x_max"):
        with pytest.raises(ValueError, match="unknown override keys"):
            experiments.resolve_config("T1_1", {key: 1.0})


@pytest.mark.parametrize("command, flags", [
    (["run", "--test", "T1_2"], ["--method", "gd"]),
    (["run", "--test", "T1_2"], ["--step0", "1"]),
    (["run", "--test", "T1_2"], ["--config", "x"]),
    (["sweep", "--test", "T1_2", "--param", "lambda", "--values", "1"],
     ["--config", "x"]),
    (["check-gradient"], ["--config", "x"]),
    (["check-carleman"], ["--config", "x"]),
    (["export-case", "--test", "T2_1"], ["--config", "x"]),
    (["check-gradient"], ["--states", "2"]),
    (["check-gradient"], ["--directions", "6"]),
    (["check-carleman"], ["--lambda-min", "1"]),
    # a prefix of a flag is refused, not read as the flag
    (["run", "--test", "T1_2"], ["--lam", "2"]),
    (["run", "--test", "T1_2"], ["--max-it", "3"]),
] + [
    # flags a subcommand does not read; check-carleman's --lambda is also a
    # prefix of its --lambda-max
    (["check-gradient"], [flag, "3"]) for flag in ["--gamma", *STOPPING]
] + [
    (["export-case", "--test", "T2_1"], [flag, "3"])
    for flag in FUNCTIONAL + STOPPING
] + [
    (["check-carleman"], [flag, "3"])
    for flag in ["--lambda", "--a", "--d", "--alpha", "--gamma", *CASE_DATA,
                 *STOPPING]
])
def test_removed_flags_are_usage_errors(tmp_path, capsys, command, flags):
    out = tmp_path / "x"
    code = main([*command, *flags, "--out", str(out)])
    assert code == EXIT_USAGE
    assert flags[0] in capsys.readouterr().err
    assert not out.exists()


def test_readme_flags_are_accepted():
    # every --flag the README names is shown with its subcommand: in an
    # example command, in a code span that starts with the subcommand, or in
    # the subcommand's row of the flags table, which lists all of its flags.
    # The subcommand takes each one, apart from those of the "Removed
    # options" paragraph, which it refuses; the one flag that paragraph
    # names without a subcommand is refused by all of them
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    taken = {name: _flags_of(name) for name in _subparsers()}
    parts = readme.split("```")
    examples = [line.split("#")[0].split()[1:] for block in parts[1::2]
                for line in block.splitlines() if line.startswith("mfg-forecast ")]
    assert {command for command, *_ in examples} == set(taken)
    for command, *args in examples:
        assert set(re.findall(FLAG, " ".join(args))) <= taken[command], args
    row = r"^\| `([a-z-]+)` \| `(--[^`]*)` \|$"
    prose = "".join(parts[0::2])
    table = {command: set(flags.split())
             for command, flags in re.findall(row, prose, flags=re.M)}
    assert table == taken
    span = re.compile(rf"`((?:{'|'.join(taken)})\s[^`]*)`")
    removed_seen = False
    for para in re.sub(row, "", prose, flags=re.M).split("\n\n"):
        removed = para.startswith("Removed options")
        removed_seen |= removed
        for shown in span.findall(para):
            command, *args = shown.split()
            flags = set(re.findall(FLAG, " ".join(args)))
            wrong = flags & taken[command] if removed else flags - taken[command]
            assert wrong == set(), shown
        bare = set(re.findall(FLAG, span.sub("", para)))
        assert bare == ({"--config"} if removed else set()), para
    assert removed_seen
    assert all("--config" not in flags for flags in taken.values())


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



def test_kernel_compare_refuses_a_kernel_override(tmp_path, capsys):
    # kernel_compare runs kernels +1 and -1 itself: --kernel is refused,
    # not silently dropped
    out = tmp_path / "run"
    code = main(["run", "--test", "kernel_compare", "--kernel", "5",
                 "--out", str(out)])
    assert code == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert "takes no kernel override, got 5.0" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_sweep_takes_a_case_not_kernel_compare(tmp_path, capsys):
    # a sweep repeats one case; kernel_compare is a run of two
    out = tmp_path / "s"
    code = main(["sweep", "--test", "kernel_compare", "--param", "lambda",
                 "--values", "1,2", "--out", str(out)])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "invalid choice: 'kernel_compare'" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_sweep_with_a_negative_seed_names_it(tmp_path, capsys):
    # the sweep refuses the fixed seed once, before it runs or writes
    out = tmp_path / "s"
    code = main(["sweep", "--test", "T1_2", "--param", "alpha", "--values",
                 "1e-5,1e-4", "--seed", "-1", "--out", str(out)])
    assert code == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.err.count("noise seed must be nonnegative, got -1") == 1
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--tol", "nan", "tol must lie in (0, 1), got nan"),
    ("--gamma", "0.05", "gamma=0.05 leaves the recovery window"),
])
def test_sweep_refuses_a_bad_fixed_flag_before_writing(tmp_path, capsys, flag,
                                                       value, message):
    # as run does: the out directory stays empty
    out = tmp_path / "s"
    out.mkdir()
    code = main(["sweep", "--test", "T1_2", "--param", "seed", "--values", "1",
                 flag, value, "--out", str(out)])
    assert code == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert os.listdir(out) == []


def test_sweep_checks_the_fixed_flags_without_the_swept_one(tmp_path):
    # a fixed --lambda that the swept values replace is not checked
    out = tmp_path / "s"
    code = main(["sweep", "--test", "T1_2", "--param", "lambda", "--values", "2",
                 "--lambda", "60", "--out", str(out)] + FAST)
    assert code == EXIT_OK
    assert (out / "lambda_2" / "summary.json").exists()


def test_check_gradient_cli(tmp_path):
    out = tmp_path / "grad"
    code = main(["check-gradient", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads((out / "gradient_check.json").read_text())
    assert payload["max_rel_error"] < 1e-6


def test_check_gradient_negative_fd_seed_names_it(tmp_path, capsys):
    out = tmp_path / "grad"
    code = main(["check-gradient", "--fd-seed", "-1", "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert "fd seed must be nonnegative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_check_gradient_nan_reading_is_numerical_failure(tmp_path, monkeypatch):
    exact = Objective.value_and_gradient_arrays

    def planted(self, ev):
        g = exact(self, ev)
        g[0, 5, 5] = math.nan
        return g

    monkeypatch.setattr(Objective, "value_and_gradient_arrays", planted)
    out = tmp_path / "grad"
    code = main(["check-gradient", "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert math.isnan(json.loads((out / "gradient_check.json").read_text())
                      ["max_rel_error"])


@pytest.mark.parametrize("flags, message", [
    (["--samples", "100"], "--samples"),  # removed: the constants are exact
    (["--samples", "-4"], "--samples"),
    (["--lambda-max", "0"], "--lambda-max must be at least 1, got 0"),
    (["--lambda-max", "-3"], "--lambda-max must be at least 1, got -3"),
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
    code = main(["check-carleman", "--lambda-max", "4", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads((out / "carleman_sweep.json").read_text())
    assert payload["threshold_lambda"] == 1
    assert [r["status"] for r in payload["reports"]] == \
        ["constant"] * 3 + ["unresolved"]
    assert payload["reports"][3]["fitted_c"] is None
    assert payload["reports"][3]["pass"] is False


def test_check_carleman_quasi_cli(tmp_path):
    out = tmp_path / "quasi"
    code = main(["check-carleman", "--quasi", "--lambda-max", "2",
                 "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads((out / "quasi_carleman_sweep.json").read_text())
    assert [r["kind"] for r in payload["reports"]] == ["quasi_carleman"] * 2
    assert payload["reports"][1]["lambda"] == 2
    assert payload["reports"][1]["fitted_c"] == pytest.approx(0.16343212, rel=1e-6)


def test_check_carleman_quasi_threshold_matches_criterion_7(tmp_path):
    out = tmp_path / "quasi"
    code = main(["check-carleman", "--quasi", "--lambda-max", "3",
                 "--out", str(out)])
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
