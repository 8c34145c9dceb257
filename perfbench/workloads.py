"""The benchmark's operations, their set-up, and the checks on their outputs.

Every operation is one ``mfg-forecast`` command run in-process through
``cli.main``.  Set-up mirrors what a command resolves and builds before it
solves (config, grid, manufactured truth, noisy data, ``Objective``) and is
timed on its own, so work moved into set-up shows.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import traceback
from dataclasses import dataclass
from pathlib import Path

from mfg_forecast import calculus, carleman, cli, experiments, grid, model, \
    objective, optimizer

import spans

WORKLOADS = ("canned", "refined", "verify")

# Shipped noise seed of each case (T1_x manufactured, T2_x/T3_1 realistic)
# and the shipped finite-difference seed of check-gradient.
CASE_SEEDS = {"T1_1": 101, "T1_2": 102, "T2_1": 201, "T2_2": 202, "T3_1": 301}
FD_SEED = 7
REFINED_STEP = 0.0125  # dx = dt of the ROADMAP refinement-study grid, 161x81

HJB_MACHINE_ZERO = 1e-12  # the bound the test suite holds manufactured cases to
FD_GATE = 1e-6  # check-gradient's own pass threshold
FOO_TOL = 1e-5  # first-order ratio every canned solve must reach
PARAM_KEYS = ("lam", "c", "a", "d", "alpha", "gamma", "t_max")
OUTPUT_FILES = {
    "run": ("u_pred.csv", "m_pred.csv"),
    "check-gradient": ("gradient_check.json",),
    "check-carleman": ("carleman_sweep.json", "quasi_carleman_sweep.json"),
    "export-case": ("u0.csv", "m0.csv"),
}


@dataclass(frozen=True)
class Op:
    name: str
    command: str
    test: str | None
    args: tuple = ()

    def argv(self, outdir: Path) -> list:
        test = ["--test", self.test] if self.test else []
        return [self.command, *test, *self.args, "--out", str(outdir)]


def workload_ops(workload: str, shift: int, step: float = REFINED_STEP) -> list:
    """Operations of one pass; ``shift`` is added to every shipped seed."""
    noise = {t: ("--seed", str(s + shift)) for t, s in CASE_SEEDS.items()}
    if workload == "canned":
        ops = [Op(f"run {t}", "run", t, noise[t]) for t in CASE_SEEDS]
        return ops + [Op("run kernel_compare", "run", "kernel_compare", noise["T2_2"])]
    if workload == "refined":
        steps = ("--dx", repr(step), "--dt", repr(step))
        return [Op(f"run {t}", "run", t, noise[t] + steps) for t in ("T1_1", "T1_2")]
    fd = ("--fd-seed", str(FD_SEED + shift))
    ops = [Op(f"check-gradient {t}", "check-gradient", t, noise[t] + fd)
           for t in CASE_SEEDS]
    ops += [Op(f"export-case {t}", "export-case", t, noise[t]) for t in CASE_SEEDS]
    lam = ("--lambda-max", "50")
    return ops + [Op("check-carleman", "check-carleman", None, lam),
                  Op("check-carleman quasi", "check-carleman", None, lam + ("--quasi",))]


def setup(op: Op, outdir: Path) -> str | None:
    """Resolve, build and construct what ``op`` needs; returns a failure or None."""
    try:
        overrides = cli._overrides_from(cli.parse_config(op.argv(outdir)).options)
        if op.command == "check-carleman":
            experiments.resolve_config("T1_1", overrides)
            problems = [("T1_1", overrides)] if "--quasi" in op.args else []
        elif op.test == experiments.KERNEL_COMPARE:
            problems = [("T2_2", {**overrides, "kernel": k}) for k in (1.0, -1.0)]
        else:
            problems = [(op.test, overrides)]
        for test, ov in problems:
            cfg = experiments.resolve_config(test, ov)
            _, spec, truth = experiments._build_problem(test, cfg)
            if truth is not None and not truth.hjb_residual_norm < HJB_MACHINE_ZERO:
                return (f"{test}: manufactured HJB residual "
                        f"{truth.hjb_residual_norm:.3e} is not machine zero")
            if op.command in ("run", "check-gradient"):
                params = carleman.ConvexParams(**{k: cfg[k] for k in PARAM_KEYS})
                objective.Objective(spec, params)
    except Exception:  # a broken build is a failed operation, not a crash
        return traceback.format_exc(limit=3)
    return None


def execute(op: Op, outdir: Path) -> tuple:
    """Run ``op`` through ``cli.main``; returns (exit code, captured output)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(op.argv(outdir))
    except Exception:
        return -1, buf.getvalue() + traceback.format_exc(limit=3)
    return code, buf.getvalue()


def _load(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check(op: Op, outdir: Path, code: int, output: str) -> tuple:
    """Check one finished operation; returns (result record, failure or None)."""
    result = {}
    if code != 0:
        return result, f"exit code {code}: {output.strip()[-300:]}"
    dirs = [outdir]
    if op.test == experiments.KERNEL_COMPARE:
        dirs = [outdir / "kernel_plus", outdir / "kernel_minus"]
    result["sha256"] = {
        str(path.relative_to(outdir)): _sha256(path)
        for d in dirs for name in OUTPUT_FILES[op.command]
        if (path := d / name).is_file()}
    if not result["sha256"]:
        return result, "no output files"
    failure = None
    if op.command == "run":
        result["iterations"] = 0
        for d in dirs:
            summary = _load(d / "summary.json")
            result["iterations"] += summary["iterations"]
            foo = summary["final_first_order_optimality"]
            if summary["status"] != optimizer.CONVERGED or not foo < FOO_TOL:
                failure = (f"{d.name}: status {summary['status']}, "
                           f"first-order ratio {foo:.3e}")
            if "errors" in summary:
                result.update(summary["errors"])
    elif op.command == "check-gradient":
        result["max_rel_error"] = _load(outdir / "gradient_check.json")["max_rel_error"]
        if not result["max_rel_error"] < FD_GATE:
            failure = f"FD gradient error {result['max_rel_error']:.3e} >= {FD_GATE}"
    elif op.command == "check-carleman":
        name = "quasi_carleman_sweep.json" if "--quasi" in op.args else "carleman_sweep.json"
        result["threshold_lambda"] = _load(outdir / name)["threshold_lambda"]
        if result["threshold_lambda"] is None:
            failure = "no lambda passes the estimate"
    elif (outdir / "case.json").is_file():  # export-case of a manufactured case
        norm = _load(outdir / "case.json")["hjb_residual_norm"]
        result["hjb_residual_norm"] = norm
        if not norm < HJB_MACHINE_ZERO:
            failure = f"manufactured HJB residual {norm:.3e} is not machine zero"
    return result, failure


ALL = WORKLOADS
SOLVES = ("canned", "refined")
VERIFY = ("verify",)

# (span name, [(defining owner, attribute), (importer, attribute), ...],
#  hook after return, workloads on which the span must record calls).
# Importers that bind a function by name must be patched too, or the span
# misses every call they make.
TRACE_TARGETS = [
    ("cli.main", [(cli, "main")], None, ALL),
    ("experiments.build_problem", [(experiments, "_build_problem")], None, ALL),
    ("experiments.export", [(experiments.RunReport, "export")], None, SOLVES),
    ("experiments.relative_cost_curve", [(experiments, "relative_cost_curve")],
     None, SOLVES),
    ("experiments.recovery_errors", [(experiments, "recovery_errors")], None, SOLVES),
    ("optimizer.minimize", [(optimizer, "minimize"), (experiments, "minimize")],
     spans.count_iterations, SOLVES),
    ("objective.init", [(objective.Objective, "__init__")], None, ALL),
    ("objective.value", [(objective.Objective, "value_arrays")], None, ALL),
    ("objective.value_and_gradient",
     [(objective.Objective, "value_and_gradient_arrays")], None, ALL),
    ("objective.hessian_diag", [(objective.Objective, "hessian_diag")], None, SOLVES),
    ("objective.gradient_fd_check",
     [(objective, "gradient_fd_check"), (cli, "gradient_fd_check")], None, VERIFY),
    ("carleman.check_carleman_estimate", [(carleman, "check_carleman_estimate")],
     None, VERIFY),
    ("carleman.check_quasi_carleman", [(carleman, "check_quasi_carleman")],
     None, VERIFY),
    ("model.build_manufactured_case",
     [(model, "build_manufactured_case"), (experiments, "build_manufactured_case")],
     None, ALL),
    ("model.solve_fokker_planck", [(model, "solve_fokker_planck")], None, ALL),
    ("grid.field_from_function",
     [(grid, "field_from_function"), (model, "field_from_function")], None, ALL),
    ("grid.write_field_csv",
     [(grid, "write_field_csv"), (experiments, "write_field_csv"),
      (model, "write_field_csv")], spans.count_csv_bytes, ALL),
    ("calculus.diff_matrices", [(calculus, "diff_matrices")], None, ALL),
    ("calculus.h2_norm_discrete", [(calculus, "h2_norm_discrete")], None, SOLVES),
]
