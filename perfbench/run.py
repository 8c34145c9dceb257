"""Benchmark of the mfg-forecast package, end to end and per module.

    python3 perfbench/run.py --workload canned --seed 0 --seconds 40 --trace 0

One client runs the workload's operations in a closed loop: each
``mfg-forecast`` command starts, in-process through ``cli.main``, when the
previous one has finished.  A pass is one set-up phase (repeated three
times) followed by every operation once; passes repeat for ``--seconds``.
Each time reported is the sum, over operations, of the operation's fastest
run in the passes: other tenants of a shared machine only add time, in
phases of tens of seconds, and pass medians spread two to four times as
much from run to run.  The pass median is printed alongside.

Workloads:
  canned   ``run`` of T1_1, T1_2, T2_1, T2_2, T3_1 and kernel_compare at the
           defaults on the 21x11 grid: what users run.  The line search
           dominates; T2_1 is the ill-conditioned tail.
  refined  ``run`` of T1_1 and T1_2 at dx = dt = 0.0125 (161x81): the dense
           stencil products and the per-node set-up dominate.
  verify   ``check-gradient`` and ``export-case`` of the five cases plus
           ``check-carleman`` standard and quasi: no optimizer runs; cold
           objective evaluations, the Carleman checks and CSV export do.

Seeds:
  --seed n   orders the operations of every pass and changes no numerical
             input.  The solver's cost and its answer change sharply with
             the noise realization (T2_1 takes 500 to 4800 iterations over
             noise shifts 0..10), so only one fixed data set gives a steady
             timing.
  --shift k  the workload's data seed: adds k to every shipped noise seed
             (101/102/201/202/301) and to the finite-difference seed 7.
             k = 0 reproduces the shipped runs.  Compare results only
             within one shift.

With --trace 1, untraced and traced passes alternate; the traced ones wrap
each module's public functions (see workloads.TRACE_TARGETS) and give the
per-layer metrics, and trace.overhead_s is wall_s of the traced passes
minus wall_s of the untraced ones.

Output: one line per metric, a ``detail`` line of JSON (environment,
seeds, per-operation results and output hashes, failures), and last one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The exit code is 0 when that object was printed.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext, suppress
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3

PER_LAYER = [
    ("objective.value.calls", "count"),
    ("objective.value.self_s", "s"),
    ("objective.value.us_per_call", "us"),
    ("objective.value_and_gradient.calls", "count"),
    ("objective.value_and_gradient.self_s", "s"),
    ("objective.value_and_gradient.us_per_call", "us"),
    ("objective.hessian_diag.self_s", "s"),
    ("objective.init.self_s", "s"),
    ("objective.gradient_fd_check.self_s", "s"),
    ("optimizer.minimize.self_s", "s"),
    ("optimizer.line_search_trials", "count"),
    ("optimizer.trials_per_iter", "ratio"),
    ("optimizer.accept_ratio", "ratio"),
    ("model.build_manufactured_case.self_s", "s"),
    ("model.solve_fokker_planck.calls", "count"),
    ("model.solve_fokker_planck.self_s", "s"),
    ("grid.field_from_function.self_s", "s"),
    ("experiments.build_problem.self_s", "s"),
    ("calculus.diff_matrices.self_s", "s"),
    ("carleman.check_carleman_estimate.self_s", "s"),
    ("carleman.check_quasi_carleman.self_s", "s"),
    ("grid.write_field_csv.calls", "count"),
    ("grid.write_field_csv.self_s", "s"),
    ("grid.write_field_csv.bytes", "B"),
    ("experiments.export.self_s", "s"),
    ("experiments.relative_cost_curve.self_s", "s"),
    ("experiments.recovery_errors.self_s", "s"),
    ("calculus.h2_norm_discrete.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("canned", "refined", "verify"))
    p.add_argument("--seed", type=int, default=0, help="orders each pass's operations")
    p.add_argument("--seconds", type=float, default=40.0, help="measuring time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--shift", type=int, default=0,
                   help="added to every shipped noise seed and to the FD seed")
    p.add_argument("--dx", type=float, default=None,
                   help="grid step dx = dt of the refined workload (default 0.0125)")
    return p.parse_args(argv)


def run_pass(wl, ops, rng, tracer):
    """Set up and run every operation once; returns the pass record.

    ``wl`` is the workloads module, importable only once the package
    source is on the path.  Times are kept per operation: the metrics sum,
    over operations, each one's fastest run (see ``best_total``).
    """
    root = Path(tempfile.mkdtemp(prefix="pass-", dir=WORK))
    try:
        order = list(ops)
        rng.shuffle(order)
        dirs = {op.name: root / f"op{i}" for i, op in enumerate(order)}
        failures = {}
        setup_s = []
        for _ in range(SETUP_REPEATS):
            setup_s.append({})
            for op in order:
                t0 = time.perf_counter()
                failure = wl.setup(op, dirs[op.name])
                setup_s[-1][op.name] = time.perf_counter() - t0
                if failure:
                    failures[op.name] = f"set-up: {failure}"
        finished = []
        traced = spans.installed(tracer, wl.TRACE_TARGETS) if tracer else nullcontext([])
        with traced as absent:
            for op in order:
                t0, c0 = time.perf_counter(), time.process_time()
                code, output = wl.execute(op, dirs[op.name])
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
                finished.append((op, code, output, wall, cpu))
        record = {"setup": setup_s, "wall": {}, "cpu": {}, "results": {},
                  "failures": failures, "traced": tracer is not None,
                  "absent": absent, "order": [op.name for op in order]}
        for op, code, output, wall, cpu in finished:
            record["wall"][op.name], record["cpu"][op.name] = wall, cpu
            record["results"][op.name], failure = wl.check(op, dirs[op.name], code, output)
            if failure and op.name not in failures:
                failures[op.name] = failure
        return record
    finally:
        shutil.rmtree(root, ignore_errors=True)


def best_total(samples):
    """Sum over operations of each operation's fastest time.

    ``samples`` holds one {operation: seconds} mapping per repeat.
    """
    return sum(min(s[name] for s in samples) for name in samples[0])


def layer_metrics(tracer, n_traced, overhead_s):
    """Per-pass means of the traced spans, named as in PER_LAYER."""
    trials = tracer.calls_under[("optimizer.minimize", "objective.value")]
    iterations = tracer.counters["optimizer.iterations"]
    accepted = tracer.counters["optimizer.accepted_steps"]
    special = {
        "optimizer.line_search_trials": trials / n_traced,
        "optimizer.trials_per_iter": trials / iterations if iterations else 0.0,
        "optimizer.accept_ratio": accepted / trials if trials else 0.0,
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in special:
            value = special[name]
        else:
            span, field = name.rsplit(".", 1)
            calls = tracer.calls[span]
            value = {"calls": calls / n_traced,
                     "self_s": tracer.self_s[span] / n_traced,
                     "bytes": tracer.bytes[span] / n_traced,
                     "us_per_call": 1e6 * tracer.self_s[span] / calls if calls else 0.0,
                     }[field]
        out[name] = {"value": value, "unit": unit}
    return out


def openblas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when not found."""
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def source_sha256():
    """Digest of the package source, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "mfg_forecast").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
    }


def summarize(passes, workload):
    """End-to-end metrics and the solver outcomes of the first pass."""
    untraced = [p for p in passes if not p["traced"]]
    metrics = {
        "wall_s": (best_total([p["wall"] for p in untraced]), "s"),
        "cpu_s": (best_total([p["cpu"] for p in untraced]), "s"),
        "setup_s": (best_total([s for p in passes for s in p["setup"]]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    first = passes[0]["results"]
    extra = {"iterations": (sum(r.get("iterations", 0) for r in first.values()), "count")}
    if workload != "verify":
        for test in ("T1_1", "T1_2"):
            for key in ("u_h10", "m_h10"):
                value = first.get(f"run {test}", {}).get(key)
                if value is not None:
                    extra[f"{key}.{test}"] = (value, "1")
    return metrics, extra


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "mfg_forecast" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    ops = wl.workload_ops(args.workload, args.shift,
                          wl.REFINED_STEP if args.dx is None else args.dx)
    rng = random.Random(args.seed)
    tracer = spans.Tracer() if args.trace else None
    WORK.mkdir(exist_ok=True)
    passes = []
    deadline = time.perf_counter() + args.seconds
    try:
        while True:
            started = time.perf_counter()
            traced = tracer if len(passes) % 2 == 1 else None
            passes.append(run_pass(wl, ops, rng, traced))
            passes[-1]["seconds"] = time.perf_counter() - started
            typical = statistics.median(p["seconds"] for p in passes)
            done = not args.trace or any(p["traced"] for p in passes)
            if done and time.perf_counter() + typical > deadline:
                break
    finally:
        with suppress(OSError):
            WORK.rmdir()  # left in place while another run still uses it

    attempted = len(ops) * len(passes)
    failures = {(i, name): text for i, p in enumerate(passes, start=1)
                for name, text in p["failures"].items()}
    reference = passes[0]["results"]
    for i, p in enumerate(passes[1:], start=2):
        for name, result in p["results"].items():
            if result.get("sha256") != reference[name].get("sha256"):
                failures.setdefault((i, name), "outputs differ from pass 1")
    failed = len(failures)
    metrics, extra = summarize(passes, args.workload)
    traced = [p for p in passes if p["traced"]]
    absent = traced[0]["absent"] if traced else []
    missing = []
    if tracer is not None:
        overhead = best_total([p["wall"] for p in traced]) - metrics["wall_s"][0]
        printed = layer_metrics(tracer, len(traced), overhead)
        missing = [name for name, _, _, expected in wl.TRACE_TARGETS
                   if args.workload in expected and name not in absent
                   and tracer.calls[name] == 0]
    else:
        printed = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    print(f"workload {args.workload}  seed {args.seed}  shift {args.shift}  "
          f"trace {args.trace}  passes {len(passes)}  operations/pass {len(ops)}")
    walls = [sum(p["wall"].values()) for p in passes if not p["traced"]]
    print(f"pass wall time: median {statistics.median(walls):.4f} s  "
          f"min {min(walls):.4f}  max {max(walls):.4f}  n {len(walls)}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:<24} {value:.6g} {unit}")
    print(f"{'failed_frac':<24} {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    if tracer is not None:
        for name, m in printed.items():
            print(f"{name:<42} {m['value']:.6g} {m['unit']}")
    detail = {"workload": args.workload, "seed": args.seed, "shift": args.shift,
              "dx": args.dx, "trace": args.trace, "passes": len(passes),
              "environment": environment(), "operations": reference,
              "order_pass_1": passes[0]["order"],
              "pass_wall_s": walls,
              "op_wall_s": [p["wall"] for p in passes],
              "failures": [f"pass {i} {name}: {text}" for (i, name), text in failures.items()],
              "spans_absent": absent, "spans_without_calls": missing}
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and not missing, "attempted": attempted,
                      "failed": failed, "metrics": printed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
