#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and judge the result.

    python3 tools/ab_pairs.py PARENT_ROOT CHANGE_ROOT --workload rank
        [--seeds 1 7919] [--pairs 10]

PARENT_ROOT and CHANGE_ROOT are checkouts of the repository, for example a
`git archive` of the parent commit and the working tree. For every seed, each
pair runs `python3 perfbench/run.py --workload W --seed N --trace 0` once in
each root, one after the other, for run.py's default length; the root that
runs first alternates from pair to pair. The metrics are read from the last
JSON line of each run.

For every seed and end-to-end metric of BENCHMARK.json, the summary gives each
side's quartiles (q1, median, q3), how many pairs the change won, whether the
gain rule holds (the change wins at least 9 of every 10 pairs and its median
beats the parent's by more than the parent's interquartile range), and
whether the change's median stays within the metric's bound. Exit code 0
means every run was correct, 1 that some run failed or was incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The gain rule: the change wins at least WIN_TENTHS of every ten pairs.
WIN_TENTHS = 9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), interpolated linearly between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Judge one metric over paired runs: parent[i] and change[i] form pair i."""
    sign = 1.0 if better == "lower" else -1.0
    p1, p_median, p3 = quartiles(parent)
    c1, c_median, c3 = quartiles(change)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change, strict=True))
    return {
        "parent": (p1, p_median, p3),
        "change": (c1, c_median, c3),
        "wins": wins,
        "pairs": len(parent),
        "gain": 10 * wins >= WIN_TENTHS * len(parent) and sign * (p_median - c_median) > p3 - p1,
        "within_bound": sign * (c_median - p_median) <= bound * p_median,
    }


def run_once(root: Path, workload: str, seed: int) -> tuple[dict | None, str]:
    """The last JSON line of one benchmark run in `root` (None if it printed
    none or exited nonzero), and a one-line note on the run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None, f"no result (exit {proc.returncode}): {proc.stderr.strip()[-300:]}"
    if proc.returncode != 0 or not record.get("correct"):
        return None, f"incorrect (exit {proc.returncode}, {record.get('failed')} failed)"
    values = {name: m["value"] for name, m in record["metrics"].items()}
    return values, " ".join(f"{name}={value:.6g}" for name, value in values.items())


def _fmt(q: tuple[float, float, float]) -> str:
    return " ".join(f"{v:.6g}" for v in q)


def report(name: str, s: dict) -> str:
    return (
        f"  {name:<14} parent {_fmt(s['parent'])} | change {_fmt(s['change'])} | "
        f"wins {s['wins']}/{s['pairs']} | gain {'held' if s['gain'] else 'not held'} | "
        f"{'within bound' if s['within_bound'] else 'PAST BOUND'}"
    )


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root", type=Path, help="checkout of the parent commit")
    parser.add_argument("change_root", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 7919])
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    for root in roots.values():
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"{root} holds no perfbench/run.py")

    status, turn = 0, 0
    for seed in args.seeds:
        runs = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if turn % 2 == 0 else ("change", "parent")
            turn += 1
            for side in order:
                values, note = run_once(roots[side], args.workload, seed)
                print(f"{args.workload} seed {seed} pair {pair + 1} {side}: {note}", flush=True)
                if values is None:
                    status = 1
                else:
                    runs[side].append(values)
        if len(runs["parent"]) != args.pairs or len(runs["change"]) != args.pairs:
            print(f"{args.workload} seed {seed}: some runs failed, no summary")
            continue
        print(f"{args.workload} seed {seed}, {args.pairs} pairs (q1 median q3):")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            s = summarize(
                [r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                metric["better"], metric["bound"],
            )
            print(report(name, s))
    return status


if __name__ == "__main__":
    sys.exit(main())
