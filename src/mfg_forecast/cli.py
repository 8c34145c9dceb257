"""Command-line entry point.

Subcommands:

    run            one canned experiment, full artifact directory out
    sweep          repeat a run of one case over values of one parameter; a
                   value whose run fails numerically becomes an `error` row
    check-gradient finite-difference verification of the analytic gradient
    check-carleman exact weighted-inequality constants over a lambda sweep
    export-case    initial data (and manufactured fields) without optimizing

Values resolve as built-in defaults, then command-line flags.  A command
takes the flags of the values it reads: run and sweep all fourteen,
check-gradient all but the stopping rule (--tol, --max-iters), export-case
the grid and the case data, check-carleman the grid and the weight's
shift --c.  Any other flag is a usage error, and so is a prefix of a flag.
So are removed flags: --config (a key=value file), check-gradient's
--states and --directions (the check always takes 10 states x 50
directions) and check-carleman's --lambda-min (sweeps start at lambda 1).
Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from mfg_forecast import carleman, experiments, model
from mfg_forecast.experiments import CASES, KERNEL_COMPARE, RUN_IDS
from mfg_forecast.grid import Field, make_grid, write_json, write_table_csv
from mfg_forecast.objective import gradient_fd_check
from mfg_forecast.optimizer import CONVERGED

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

# Errors a solve raises on bad numerics; mapped to EXIT_NUMERICAL.
NUMERICAL_ERRORS = (ValueError, OverflowError, FloatingPointError,
                    np.linalg.LinAlgError)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise UsageError(message)


@dataclass
class RunConfig:
    command: str
    options: dict


_SOLVES = ("run", "sweep")
_FUNCTIONAL = _SOLVES + ("check-gradient",)
_CASE = _FUNCTIONAL + ("export-case",)
_GRID = _CASE + ("check-carleman",)

# flag, option key, type, help, the commands that take it
_OVERRIDE_FLAGS = (
    ("--lambda", "lam", float, "weight exponent", _FUNCTIONAL),
    ("--c", "c", float, "weight shift constant", _FUNCTIONAL + ("check-carleman",)),
    ("--a", "a", float, "balancing exponent", _FUNCTIONAL),
    ("--d", "d", float, "density-residual weight", _FUNCTIONAL),
    ("--alpha", "alpha", float, "regularization weight", _FUNCTIONAL),
    ("--gamma", "gamma", float, "early-time fraction", _GRID),
    ("--dx", "dx", float, "spatial step", _GRID),
    ("--dt", "dt", float, "temporal step", _GRID),
    ("--t-max", "t_max", float, "time horizon", _GRID),
    ("--noise", "noise", float, "relative noise level", _CASE),
    ("--seed", "seed", int, "noise seed", _CASE),
    ("--kernel", "kernel", float, "constant interaction kernel", _CASE),
    ("--tol", "tol", float, "first-order optimality threshold", _SOLVES),
    ("--max-iters", "max_iters", int, "iteration budget", _SOLVES),
)


def _add_override_flags(p: argparse.ArgumentParser, command: str) -> None:
    for flag, dest, typ, help_text, commands in _OVERRIDE_FLAGS:
        if command in commands:
            p.add_argument(flag, dest=dest, type=typ, default=None, help=help_text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mfg-forecast", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run one canned experiment")
    p_run.add_argument("--test", required=True, choices=RUN_IDS)
    p_run.add_argument("--out", required=True, help="output directory")
    _add_override_flags(p_run, "run")

    p_sweep = sub.add_parser("sweep", help="run one test across parameter values")
    p_sweep.add_argument("--test", required=True, choices=tuple(CASES))
    p_sweep.add_argument("--param", required=True,
                         help="override key to sweep (e.g. lambda, alpha, noise)")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values, e.g. 1,2,3,4,5")
    p_sweep.add_argument("--out", required=True)
    _add_override_flags(p_sweep, "sweep")

    p_grad = sub.add_parser("check-gradient",
                            help="finite-difference gradient verification")
    p_grad.add_argument("--test", default="T1_1", choices=tuple(CASES))
    p_grad.add_argument("--fd-seed", type=int, default=7)
    p_grad.add_argument("--out", required=True, help="output directory")
    _add_override_flags(p_grad, "check-gradient")

    p_carl = sub.add_parser("check-carleman",
                            help="exact weighted-inequality constants")
    p_carl.add_argument("--quasi", action="store_true",
                        help="check the two-test-function variant")
    p_carl.add_argument("--lambda-max", type=int, default=50)
    p_carl.add_argument("--out", required=True, help="output directory")
    _add_override_flags(p_carl, "check-carleman")

    p_exp = sub.add_parser("export-case",
                           help="write initial data without optimizing")
    p_exp.add_argument("--test", required=True, choices=tuple(CASES))
    p_exp.add_argument("--out", required=True)
    _add_override_flags(p_exp, "export-case")

    return parser


def parse_config(argv) -> RunConfig:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        raise UsageError("a subcommand is required (run, sweep, check-gradient, "
                         "check-carleman, export-case)")
    options = vars(ns).copy()
    return RunConfig(options.pop("command"), options)


def _overrides_from(options: dict) -> dict:
    keys = [dest for _, dest, _, _, _ in _OVERRIDE_FLAGS]
    return {k: options[k] for k in keys if options.get(k) is not None}


def _cmd_run(options: dict) -> int:
    overrides = _overrides_from(options)
    report = experiments.run_test(options["test"], **overrides)
    report.export(options["out"])
    if options["test"] == KERNEL_COMPARE:
        statuses = {report.plus.status, report.minus.status}
        print(f"{options['test']}: kernel +1 {report.plus.status}, "
              f"kernel -1 {report.minus.status} -> {options['out']}")
        return EXIT_OK if statuses == {CONVERGED} else EXIT_NUMERICAL
    last = report.trace.rows[-1]
    print(f"{options['test']}: {report.status} after {len(report.trace.rows) - 1} "
          f"steps, first-order optimality {last.foo_ratio:.3e} -> "
          f"{options['out']}")
    return EXIT_OK if report.status == CONVERGED else EXIT_NUMERICAL


def _cmd_sweep(options: dict) -> int:
    param = options["param"].replace("-", "_")
    if param == "lambda":
        param = "lam"
    flag_types = {dest: typ for _, dest, typ, _, _ in _OVERRIDE_FLAGS}
    if param not in flag_types:
        raise UsageError(f"cannot sweep {options['param']!r}; choose from "
                         f"{sorted(flag_types)}")
    try:
        values = [float(v) for v in options["values"].split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --values list: {exc}")
    if not values:
        raise UsageError("--values is empty")
    if flag_types[param] is int:
        fractional = [v for v in values if not v.is_integer()]
        if fractional:
            raise UsageError(f"--param {options['param']} takes integers, got "
                             f"{', '.join(map(repr, fractional))}")
    tags = [f"{options['param']}_{v:g}" for v in values]  # run directories
    for tag in tags:
        shared = [v for v, t in zip(values, tags) if t == tag]
        if len(shared) > 1:
            raise UsageError(f"--values {', '.join(map(repr, shared))} would all "
                             f"write {tag}; give values that differ in the first "
                             "six significant digits")
    base = _overrides_from(options)
    # the fixed flags are checked once, before anything is written
    experiments.resolve_config(options["test"],
                               {k: v for k, v in base.items() if k != param})
    os.makedirs(options["out"], exist_ok=True)
    rows = []
    worst = EXIT_OK
    for v, tag in zip(values, tags):
        overrides = {**base, param: flag_types[param](v)}
        try:
            report = experiments.run_test(options["test"], **overrides)
        except NUMERICAL_ERRORS as exc:
            rows.append((v, "error", math.nan, math.nan))
            worst = EXIT_NUMERICAL
            print(f"{options['param']}={v:g}: numerical failure: {exc}",
                  file=sys.stderr)
            continue
        report.export(os.path.join(options["out"], tag))
        last = report.trace.rows[-1]
        rows.append((v, report.status, last.foo_ratio, last.total))
        if report.status != CONVERGED:
            worst = EXIT_NUMERICAL
        print(f"{options['param']}={v:g}: {report.status}, "
              f"optimality {last.foo_ratio:.3e}")
    with open(os.path.join(options["out"], "sweep_summary.csv"), "w",
              encoding="utf-8") as fh:
        fh.write(f"{options['param']},status,foo_ratio,objective_total\n")
        for v, status, foo, total in rows:
            fh.write(f"{v:.17g},{status},{foo:.17g},{total:.17g}\n")
    return worst


def _cmd_check_gradient(options: dict) -> int:
    if options["fd_seed"] < 0:
        raise ValueError(f"fd seed must be nonnegative, got {options['fd_seed']}")
    overrides = _overrides_from(options)
    cfg = experiments.resolve_config(options["test"], overrides)
    _, spec, _ = experiments._build_problem(options["test"], cfg)
    result = gradient_fd_check(spec, experiments.convex_params(cfg),
                               seed=options["fd_seed"])
    result["test_id"] = options["test"]
    os.makedirs(options["out"], exist_ok=True)
    path = os.path.join(options["out"], "gradient_check.json")
    write_json(path, result)
    print(f"max relative finite-difference error {result['max_rel_error']:.3e} "
          f"-> {path}")
    return EXIT_OK if result["max_rel_error"] < 1e-6 else EXIT_NUMERICAL


def _cmd_check_carleman(options: dict) -> int:
    if options["lambda_max"] < 1:
        raise UsageError(f"--lambda-max must be at least 1, got {options['lambda_max']}")
    overrides = _overrides_from(options)
    cfg = experiments.resolve_config("T1_1", overrides)
    grid = make_grid(cfg["x_min"], cfg["x_max"], cfg["t_max"], cfg["dx"],
                     cfg["dt"], cfg["gamma"])
    quasi_g = None
    if options["quasi"]:
        case = experiments._build_problem("T1_1", cfg)[2]
        quasi_g = Field(grid, -case.m_true.values)  # the drift coupling
    reports = carleman.lambda_sweep(grid, cfg["c"], range(1, options["lambda_max"] + 1),
                                    quasi_g=quasi_g)
    threshold = carleman.first_passing_lambda(reports)
    os.makedirs(options["out"], exist_ok=True)
    name = "quasi_carleman_sweep.json" if options["quasi"] else "carleman_sweep.json"
    path = os.path.join(options["out"], name)
    write_json(path, {"threshold_lambda": threshold,
                      "reports": [r.to_dict() for r in reports]})
    kind = "quasi" if options["quasi"] else "standard"
    print(f"{kind} estimate first passes at lambda={threshold} -> {path}")
    return EXIT_OK if threshold is not None else EXIT_NUMERICAL


def _cmd_export_case(options: dict) -> int:
    overrides = _overrides_from(options)
    cfg = experiments.resolve_config(options["test"], overrides)
    grid, spec, truth = experiments._build_problem(options["test"], cfg)
    os.makedirs(options["out"], exist_ok=True)
    for name, vec in (("u0.csv", spec.u0), ("m0.csv", spec.m0)):
        write_table_csv(os.path.join(options["out"], name), "x,value",
                        zip(grid.x_nodes(), vec))
    if truth is not None:
        model.write_case(truth, options["out"])
    write_json(os.path.join(options["out"], "config.json"), cfg)
    print(f"exported {options['test']} data -> {options['out']}")
    return EXIT_OK


_DISPATCH = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "check-gradient": _cmd_check_gradient,
    "check-carleman": _cmd_check_carleman,
    "export-case": _cmd_export_case,
}


def execute(config: RunConfig) -> int:
    """Dispatch a parsed configuration; returns the process exit code."""
    try:
        return _DISPATCH[config.command](config.options)
    except UsageError:
        raise
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


def main(argv=None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
        return execute(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
