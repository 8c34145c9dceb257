"""Command-line entry point.

Subcommands:

    run            one canned experiment, full artifact directory out
    sweep          repeat a run across a list of values of one parameter; a
                   value whose run fails numerically becomes an `error` row
    check-gradient finite-difference verification of the analytic gradient
    check-carleman exact weighted-inequality constants over a lambda sweep
    export-case    initial data (and manufactured fields) without optimizing

Values resolve as: built-in defaults, then an optional flat key=value
config file (--config), then command-line flags.  Exit codes: 0 success,
1 usage error, 2 numerical failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from mfg_forecast import carleman, experiments, model
from mfg_forecast.experiments import CASES, KERNEL_COMPARE, RUN_IDS
from mfg_forecast.grid import Field, make_grid
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
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise UsageError(message)


@dataclass
class RunConfig:
    command: str
    options: dict


_OVERRIDE_FLAGS = (
    ("--lambda", "lam", float, "weight exponent"),
    ("--c", "c", float, "weight shift constant"),
    ("--a", "a", float, "balancing exponent"),
    ("--d", "d", float, "density-residual weight"),
    ("--alpha", "alpha", float, "regularization weight"),
    ("--gamma", "gamma", float, "early-time fraction"),
    ("--dx", "dx", float, "spatial step"),
    ("--dt", "dt", float, "temporal step"),
    ("--t-max", "t_max", float, "time horizon"),
    ("--noise", "noise", float, "relative noise level"),
    ("--seed", "seed", int, "noise seed"),
    ("--kernel", "kernel", float, "constant interaction kernel"),
    ("--tol", "tol", float, "first-order optimality threshold"),
    ("--max-iters", "max_iters", int, "iteration budget"),
)


def _add_override_flags(p: argparse.ArgumentParser) -> None:
    for flag, dest, typ, help_text in _OVERRIDE_FLAGS:
        p.add_argument(flag, dest=dest, type=typ, default=None, help=help_text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mfg-forecast", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run one canned experiment")
    p_run.add_argument("--test", required=True, choices=RUN_IDS)
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--config", default=None, help="flat key=value config file")
    _add_override_flags(p_run)

    p_sweep = sub.add_parser("sweep", help="run one test across parameter values")
    p_sweep.add_argument("--test", required=True, choices=RUN_IDS)
    p_sweep.add_argument("--param", required=True,
                         help="override key to sweep (e.g. lambda, alpha, noise)")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values, e.g. 1,2,3,4,5")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--config", default=None)
    _add_override_flags(p_sweep)

    p_grad = sub.add_parser("check-gradient",
                            help="finite-difference gradient verification")
    p_grad.add_argument("--test", default="T1_1", choices=tuple(CASES))
    p_grad.add_argument("--states", type=int, default=10)
    p_grad.add_argument("--directions", type=int, default=50)
    p_grad.add_argument("--fd-seed", type=int, default=7)
    p_grad.add_argument("--out", required=True, help="output directory")
    p_grad.add_argument("--config", default=None)
    _add_override_flags(p_grad)

    p_carl = sub.add_parser("check-carleman",
                            help="exact weighted-inequality constants")
    p_carl.add_argument("--quasi", action="store_true",
                        help="check the two-test-function variant")
    p_carl.add_argument("--lambda-min", type=int, default=1)
    p_carl.add_argument("--lambda-max", type=int, default=50)
    p_carl.add_argument("--out", required=True, help="output directory")
    p_carl.add_argument("--config", default=None)
    _add_override_flags(p_carl)

    p_exp = sub.add_parser("export-case",
                           help="write initial data without optimizing")
    p_exp.add_argument("--test", required=True, choices=tuple(CASES))
    p_exp.add_argument("--out", required=True)
    p_exp.add_argument("--config", default=None)
    _add_override_flags(p_exp)

    return parser


def _read_config_file(path: str) -> dict:
    """Flat `key = value` lines; keys use the flag spelling without dashes."""
    key_map = {flag.lstrip("-"): (dest, typ) for flag, dest, typ, _ in _OVERRIDE_FLAGS}
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key = value, got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in key_map:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            dest, typ = key_map[key]
            try:
                out[dest] = typ(value.strip())
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {exc}")
    return out


def parse_config(argv) -> RunConfig:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        raise UsageError("a subcommand is required (run, sweep, check-gradient, "
                         "check-carleman, export-case)")
    options = vars(ns).copy()
    command = options.pop("command")
    config_path = options.pop("config", None)
    if config_path:
        file_values = _read_config_file(config_path)
        for dest, value in file_values.items():
            if options.get(dest) is None:
                options[dest] = value
    return RunConfig(command, options)


def _overrides_from(options: dict) -> dict:
    keys = [dest for _, dest, _, _ in _OVERRIDE_FLAGS]
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
    print(f"{options['test']}: {report.status} after {len(report.trace.rows)} "
          f"iterations, first-order optimality {last.foo_ratio:.3e} -> "
          f"{options['out']}")
    return EXIT_OK if report.status == CONVERGED else EXIT_NUMERICAL


def _cmd_sweep(options: dict) -> int:
    param = options["param"].replace("-", "_")
    if param == "lambda":
        param = "lam"
    flag_types = {dest: typ for _, dest, typ, _ in _OVERRIDE_FLAGS}
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
    os.makedirs(options["out"], exist_ok=True)
    rows = []
    worst = EXIT_OK
    for v, tag in zip(values, tags):
        overrides = dict(base)
        overrides[param] = flag_types[param](v)
        try:
            report = experiments.run_test(options["test"], **overrides)
        except NUMERICAL_ERRORS as exc:
            rows.append((v, "error", math.nan, math.nan))
            worst = EXIT_NUMERICAL
            print(f"{options['param']}={v:g}: numerical failure: {exc}",
                  file=sys.stderr)
            continue
        report.export(os.path.join(options["out"], tag))
        if options["test"] == KERNEL_COMPARE:
            status = (report.plus.status if report.plus.status == report.minus.status
                      else "mixed")
            foo = max(report.plus.trace.rows[-1].foo_ratio,
                      report.minus.trace.rows[-1].foo_ratio)
            total = max(report.plus.trace.rows[-1].total,
                        report.minus.trace.rows[-1].total)
        else:
            status = report.status
            foo = report.trace.rows[-1].foo_ratio
            total = report.trace.rows[-1].total
        rows.append((v, status, foo, total))
        if status != CONVERGED:
            worst = EXIT_NUMERICAL
        print(f"{options['param']}={v:g}: {status}, optimality {foo:.3e}")
    with open(os.path.join(options["out"], "sweep_summary.csv"), "w",
              encoding="utf-8") as fh:
        fh.write(f"{options['param']},status,foo_ratio,objective_total\n")
        for v, status, foo, total in rows:
            fh.write(f"{v:.17g},{status},{foo:.17g},{total:.17g}\n")
    return worst


def _cmd_check_gradient(options: dict) -> int:
    if options["states"] < 1 or options["directions"] < 1:
        raise UsageError("--states and --directions must be at least 1")
    overrides = _overrides_from(options)
    cfg = experiments.resolve_config(options["test"], overrides)
    _, spec, _ = experiments._build_problem(options["test"], cfg)
    result = gradient_fd_check(spec, experiments.convex_params(cfg),
                               n_states=options["states"],
                               n_directions=options["directions"],
                               seed=options["fd_seed"])
    result["test_id"] = options["test"]
    os.makedirs(options["out"], exist_ok=True)
    path = os.path.join(options["out"], "gradient_check.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"max relative finite-difference error {result['max_rel_error']:.3e} "
          f"-> {path}")
    return EXIT_OK if result["max_rel_error"] < 1e-6 else EXIT_NUMERICAL


def _cmd_check_carleman(options: dict) -> int:
    if options["lambda_min"] < 1:
        raise UsageError(f"--lambda-min must be at least 1, got {options['lambda_min']}")
    if options["lambda_min"] > options["lambda_max"]:
        raise UsageError(f"--lambda-min {options['lambda_min']} exceeds "
                         f"--lambda-max {options['lambda_max']}")
    overrides = _overrides_from(options)
    cfg = experiments.resolve_config("T1_1", overrides)
    grid = make_grid(cfg["x_min"], cfg["x_max"], cfg["t_max"], cfg["dx"],
                     cfg["dt"], cfg["gamma"])
    quasi_g = None
    if options["quasi"]:
        case = experiments._build_problem("T1_1", cfg)[2]
        quasi_g = Field(grid, case.spec.r_field.values * case.m_true.values)
    lambdas = range(options["lambda_min"], options["lambda_max"] + 1)
    reports = carleman.lambda_sweep(grid, cfg["c"], lambdas, quasi_g=quasi_g)
    threshold = carleman.first_passing_lambda(reports)
    os.makedirs(options["out"], exist_ok=True)
    name = "quasi_carleman_sweep.json" if options["quasi"] else "carleman_sweep.json"
    path = os.path.join(options["out"], name)
    payload = {"threshold_lambda": threshold,
               "reports": [r.to_dict() for r in reports]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    kind = "quasi" if options["quasi"] else "standard"
    print(f"{kind} estimate first passes at lambda={threshold} -> {path}")
    return EXIT_OK if threshold is not None else EXIT_NUMERICAL


def _cmd_export_case(options: dict) -> int:
    overrides = _overrides_from(options)
    cfg = experiments.resolve_config(options["test"], overrides)
    grid, spec, truth = experiments._build_problem(options["test"], cfg)
    os.makedirs(options["out"], exist_ok=True)
    xs = grid.x_nodes()
    for name, vec in (("u0.csv", spec.u0), ("m0.csv", spec.m0)):
        with open(os.path.join(options["out"], name), "w", encoding="utf-8") as fh:
            fh.write("x,value\n")
            for x, v in zip(xs, vec):
                fh.write(f"{x:.17g},{v:.17g}\n")
    if truth is not None:
        model.write_case(truth, options["out"])
    with open(os.path.join(options["out"], "config.json"), "w",
              encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")
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
