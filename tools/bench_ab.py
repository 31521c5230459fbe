"""Alternating A/B runs of perfbench/run.py on two checkouts.

    python3 tools/bench_ab.py --parent DIR --change DIR --workload W \
        --pairs N --seconds S --seed S0

Each checkout is a directory holding the repository at one commit; the
parent is usually made from the change's own clone with

    git worktree add --detach ../parent HEAD~1

Pair i runs `python3 perfbench/run.py --workload W --seed S0+i --seconds S
--trace 0` once in each checkout, one run after the other; the parent goes
first in even pairs and the change in odd ones. The script fails (exit 1) if
a run exits non-zero, reads `correct: false`, or attempts a different number
of operations per round than the other side: the number of rounds follows
from the time each side takes, so the attempted totals may differ, but
every round attempts the same operations.

For every end-to-end metric in the change's BENCHMARK.json it prints the
parent's and the change's medians, the parent's quartiles, the change's
wins out of N pairs (ties count for neither side), whether the gap between
the medians exceeds the parent's interquartile range, and whether the
change is worse than the parent's median by more than the metric's bound,
taken relative to the parent's median. The machine's CPU count, the numpy
version and its BLAS head the report, next to each side's `src/` size as
`wc -l src/interaction_lab/*.py` counts it.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its final JSON object plus the rounds it reported."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: run.py exited with {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    rounds = re.search(r"\brounds=(\d+)\b", proc.stdout)
    if rounds is None:
        raise SystemExit(f"{checkout}: run.py printed no round count")
    result["rounds"] = int(rounds.group(1))
    return result


def machine() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"cpus={os.cpu_count()} usable={len(os.sched_getaffinity(0))} "
            f"numpy={np.__version__} blas={blas.get('name')} {blas.get('version')}")


def src_lines(checkout: Path) -> int:
    """Newlines in the checkout's src/interaction_lab/*.py, the total of wc -l."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "interaction_lab").glob("*.py"))


def quartiles(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def report(metrics: list[dict], runs: dict[str, list[dict]]) -> None:
    pairs = len(runs["parent"])
    print(f"{'metric':26} {'parent median':>14} {'parent Q1-Q3':>23} "
          f"{'change median':>14} {'wins':>6} {'gap>IQR':>8} worse>bound")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [run["metrics"][name]["value"] for run in runs[side]]
                  for side in SIDES}
        parent, change = (statistics.median(values[side]) for side in SIDES)
        q1, q3 = quartiles(values["parent"])
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        # relative change of the median in the direction that is worse
        worse = (change / parent - 1.0) if lower else (1.0 - change / parent)
        print(f"{name:26} {parent:14.6g} {q1:11.6g}-{q3:<11.6g} {change:14.6g} "
              f"{wins:>3}/{pairs:<2} {str(abs(change - parent) > q3 - q1):>8} "
              f"{worse > metric['bound']} ({100 * worse:+.1f}% vs {100 * metric['bound']:g}%)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    print(machine(), *(f"src_lines_{side}={src_lines(checkouts[side])}" for side in SIDES))
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    problems = []
    for i in range(args.pairs):
        seed = args.seed + i
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            result = run_once(checkouts[side], args.workload, seed, args.seconds)
            runs[side].append(result)
            print(f"pair {i} seed {seed} {side}: correct={result['correct']} "
                  f"rounds={result['rounds']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
            if not result["correct"]:
                problems.append(f"{side} seed {seed} is not correct")
        per_round = {side: runs[side][-1]["attempted"] / runs[side][-1]["rounds"]
                     for side in SIDES}
        if per_round["parent"] != per_round["change"]:
            problems.append(f"seed {seed}: operations per round differ {per_round}")
    report(metrics, runs)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
