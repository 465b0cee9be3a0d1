#!/usr/bin/env python3
"""Compare two checkouts on benchmark workloads, in alternating pairs.

Runs ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
in the root of each checkout, N times each, with ``PYTHONDONTWRITEBYTECODE=1``
so that every process compiles what it imports from source.  ``--workload``
takes a comma-separated list; each pair runs every listed workload on both
sides.  Pair k runs the parent first when k is even and the change first
when k is odd, so neither side always runs on a warmer or a busier machine.
Every run's four end-to-end metrics and its ``failed`` count are printed as
the run ends; then, one block per workload, for each metric, both medians,
the parent's quartiles, and in how many pairs the change was better (lower).
Last, before the ``failed`` total, the line counts of ``src/clusterufd/*.py``
in both checkouts, in total and per module (0 where a checkout has none).

Usage:
    python3 scripts/ab_bench.py PARENT_DIR CHANGE_DIR \\
        --workload crosscheck,mutation,prover --pairs 10 --seed 1 [--seconds 32]

The benchmark keeps its scratch files under each checkout's
``.bench_build/``; this script writes no file, and with bytecode off
nothing is written under ``perfbench/``.  Exits 1 if any run fails or
reports a failed command.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

METRICS = ("setup_s", "wall_s", "cmd_p50_s", "peak_rss_mb")


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result of one benchmark run in the checkout at ``root``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def source_lines(root: str) -> dict:
    """Line count of each module of ``src/clusterufd`` under ``root``."""
    counts = {}
    for path in glob.glob(os.path.join(root, "src", "clusterufd", "*.py")):
        with open(path, encoding="utf-8") as fh:
            counts[os.path.basename(path)[:-3]] = sum(1 for _ in fh)
    return counts


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workload", required=True,
                        help="one workload, or several separated by commas")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = args.workload.split(",")

    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    runs = {(w, side): [] for w in workloads for side in sides}
    failed = 0
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                result = run_once(sides[side], workload, args.seed, args.seconds)
                values = {name: result["metrics"][name]["value"] for name in METRICS}
                runs[workload, side].append(values)
                failed += result["failed"]
                print(f"pair {k + 1} {workload} {side:6s} "
                      + " ".join(f"{name} {values[name]:.4f}" for name in METRICS)
                      + f" failed {result['failed']}", flush=True)

    for workload in workloads:
        print(f"# {workload}, seed {args.seed}, {args.pairs} pairs of "
              f"{args.seconds:g} s runs: parent median (quartiles) -> change "
              f"median, pairs the change won")
        for name in METRICS:
            parent = [r[name] for r in runs[workload, "parent"]]
            change = [r[name] for r in runs[workload, "change"]]
            low, high = quartiles(parent)
            won = sum(c < p for p, c in zip(parent, change))
            print(f"{name:12s} {statistics.median(parent):.4f} ({low:.4f}-{high:.4f})"
                  f" -> {statistics.median(change):.4f}  won {won}/{args.pairs}")
    parent, change = (source_lines(sides[side]) for side in ("parent", "change"))
    print(f"src lines: total {sum(parent.values())} -> {sum(change.values())}"
          + "".join(f", {module} {parent.get(module, 0)} -> {change.get(module, 0)}"
                    for module in sorted({*parent, *change})))
    print(f"failed {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
