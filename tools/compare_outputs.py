"""Run the benchmark's commands on two source trees and compare every output.

    python3 tools/compare_outputs.py BASE HEAD OUT

BASE and HEAD are checkouts of this repository.  The commands are those of
the canned, refined and verify workloads at shift 0 (``perfbench/workloads.py``
of HEAD), ``run --test T1_1_extended``, the README's noise-free T2_2 run,
lambda sweep and kernel sweep, ``export-case`` of T1_1 and T1_2 on the
161x81 refinement grid, and ``--help`` of each subcommand (at COLUMNS=100,
so a change to any command's flags shows).  Each
tree runs them from its own ``src/`` in OUT/base or OUT/head, and each
command's exit code and printed output go to ``<name>.log`` beside its
output directory, so they are compared too.  Prints how many files were
compared and every file that differs or exists on one side only; exits 1
if any does.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path


def commands(head: Path) -> list:
    sys.path[:0] = [str(head / "perfbench"), str(head / "src")]
    import workloads

    out = []
    for w in workloads.WORKLOADS:
        for op in workloads.workload_ops(w, 0):
            name = f"{w}-{op.name}".replace(" ", "-")
            out.append((name, op.argv(Path(name))))
    return out + [
        ("run-T1_1_extended", ["run", "--test", "T1_1_extended",
                               "--out", "run-T1_1_extended"]),
        ("readme-clean", ["run", "--test", "T2_2", "--noise", "0",
                          "--out", "readme-clean"]),
        ("readme-sweep", ["sweep", "--test", "T1_1", "--param", "lambda",
                          "--values", "1,2,3,4,5", "--out", "readme-sweep"]),
        ("readme-kernel", ["sweep", "--test", "T2_2", "--param", "kernel",
                           "--values", "1,-1", "--out", "readme-kernel"]),
    ] + [(f"refined-export-{t}", ["export-case", "--test", t, "--dx", "0.0125",
                                  "--dt", "0.0125", "--out", f"refined-export-{t}"])
         for t in ("T1_1", "T1_2")] + [
        (f"help-{c}", [c, "--help"])
        for c in ("run", "sweep", "check-gradient", "check-carleman", "export-case")]


def run_all(tree: Path, out: Path, argvs: list) -> None:
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), COLUMNS="100")
    for name, argv in argvs:
        proc = subprocess.run([sys.executable, "-m", "mfg_forecast.cli", *argv],
                              cwd=out, env=env, capture_output=True, text=True)
        (out / f"{name}.log").write_text(
            f"exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
        print(f"{out.name}: exit {proc.returncode}: {' '.join(argv)}",
              file=sys.stderr, flush=True)


def files(root: Path) -> set:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def main(argv: list) -> int:
    p = argparse.ArgumentParser(description="Compare the outputs of two trees.")
    for name in ("base", "head", "out"):
        p.add_argument(name, type=lambda a: Path(a).resolve())
    args = p.parse_args(argv)
    base, head, outputs = args.base, args.head, args.out
    argvs = commands(head)
    for label, tree in (("base", base), ("head", head)):
        run_all(tree, outputs / label, argvs)
    left, right = files(outputs / "base"), files(outputs / "head")
    differ = sorted(str(p) for p in left ^ right)
    differ += sorted(str(p) for p in left & right
                     if (outputs / "base" / p).read_bytes()
                     != (outputs / "head" / p).read_bytes())
    print(f"compared {len(left | right)} files and logs: "
          f"{len(differ)} differ from the base")
    for name in differ:
        print(f"differs: {name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
