#!/usr/bin/env python3
"""Run the benchmark in two checkouts, alternating, and summarise the pairs.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload verify --pairs 10 --out BENCH_prNN.json

Each pair runs ``benchmarks/run.py --workload W --seed S --seconds T`` once
from the root of each checkout, the parent first in even pairs and the
change first in odd ones, so that slow drift of the host falls on both
sides alike.  Make the checkouts with ``git archive`` into empty
directories.  Every run records the scaled figures of its last output line
and the unscaled ``setup_s`` and ``cells_per_s`` of its ``#`` line.  The
summary gives, per workload and metric, scaled or unscaled, each side's
median, their ratio (change over parent), the pairs the change won, the
parent's interquartile range and each side's range, and whether the gain
rule is met: the change won at least 9 of 10 pairs and its median beats
the parent's by more than that range.  Each end-to-end metric with a
``bound`` in ``BENCHMARK.json`` also gets a verdict (:func:`verdict`), and
each side the share of its operations that failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

# End-to-end metrics, scaled and as measured, and whether higher is better.
METRICS = {
    "setup_s": False,
    "unscaled_setup_s": False,
    "cells_per_s": True,
    "unscaled_cells_per_s": True,
    "peak_rss_mb": False,
}
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
UNSCALED = re.compile(r"^# (\w+): (\d+) rounds;.*unscaled: setup_s (\S+) s, cells_per_s (\S+) 1/s$")


def parse_run(stdout: str) -> dict:
    """One run's figures from ``run.py``'s output for one workload: the scaled
    metrics of its last line, the unscaled ``setup_s`` and ``cells_per_s`` of
    its ``#`` line, the rounds, and the operations attempted and failed."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    unscaled = [m for m in map(UNSCALED.match, lines) if m]
    if len(unscaled) != 1:
        raise ValueError("expected one '#' summary line in the benchmark output")
    _, rounds, setup_s, cells_per_s = unscaled[0].groups()
    run = {name: result["metrics"][name]["value"] for name in ("setup_s", "cells_per_s", "peak_rss_mb")}
    run.update(
        unscaled_setup_s=float(setup_s),
        unscaled_cells_per_s=float(cells_per_s),
        attempted=result["attempted"],
        failed=result["failed"],
        correct=result["correct"],
        rounds=int(rounds),
    )
    return run


def _iqr(values: list[float]) -> float:
    """Distance between the quartiles (``statistics.quantiles``, exclusive method)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def read_bounds(path: Path = BENCHMARK) -> dict[str, float]:
    """The relative ``bound`` of each end-to-end metric the benchmark declares."""
    return {metric["name"]: metric["bound"] for metric in json.loads(path.read_text())["end_to_end"]}


def verdict(parent: list[float], change: list[float], higher: bool, bound: float) -> str:
    """``worse`` when the change's median is worse than the parent's by more
    than ``bound`` of the parent's; else ``unresolved`` when the parent's
    interquartile range exceeds ``bound`` of its median and some change run
    fails to beat every parent run; else ``within bound``."""
    sign = 1 if higher else -1
    median = statistics.median(parent)
    if sign * (median - statistics.median(change)) > bound * abs(median):
        return "worse"
    beats_all = min(change) > max(parent) if higher else max(change) < min(parent)
    if _iqr(parent) > bound * abs(median) and not beats_all:
        return "unresolved"
    return "within bound"


def gain_rule_met(parent: list[float], change: list[float], higher: bool) -> bool:
    """Whether the change won at least 9 of 10 pairs, ties counting for
    neither side, and its median beats the parent's by more than the
    parent's interquartile range."""
    sign = 1 if higher else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gap = sign * (statistics.median(change) - statistics.median(parent))
    return 10 * wins >= 9 * len(parent) and gap > _iqr(parent)


def summarize(runs: list[dict], bounds: dict[str, float] | None = None) -> dict:
    """Per workload, the complete pairs of ``runs`` compared metric by metric.

    Each run holds ``workload``, ``pair`` and ``side`` (``parent`` or
    ``change``) besides the figures of :func:`parse_run`.  A pair is won
    when the change's figure is strictly better than the parent's; the
    ratio is the change's median over the parent's.  A metric named in
    ``bounds`` (by default :func:`read_bounds`) gets its :func:`verdict`.
    """
    bounds = read_bounds() if bounds is None else bounds
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["pair"], {})[run["side"]] = run
        pairs = [pair for _, pair in sorted(pairs.items()) if len(pair) == 2]
        sides = {side: [pair[side] for pair in pairs] for side in ("parent", "change")}
        failed = {side: sum(run["failed"] for run in sides[side]) for side in sides}
        attempted = {side: sum(run["attempted"] for run in sides[side]) for side in sides}
        entry = {
            "pairs": len(pairs),
            "failed": failed,
            "attempted": attempted,
            "failed_share": {side: failed[side] / max(1, attempted[side]) for side in sides},
            "all_correct": all(run["correct"] for side in sides.values() for run in side),
        }
        for name, higher in METRICS.items():
            parent = [run[name] for run in sides["parent"]]
            change = [run[name] for run in sides["change"]]
            median = statistics.median(parent), statistics.median(change)
            entry[name] = {
                "parent_median": median[0],
                "change_median": median[1],
                "ratio": median[1] / median[0],
                "change_better_pairs": sum((c > p) if higher else (c < p) for p, c in zip(parent, change)),
                "parent_iqr": _iqr(parent),
                "parent_range": [min(parent), max(parent)],
                "change_range": [min(change), max(change)],
                "gain_rule_met": gain_rule_met(parent, change, higher),
            }
            if name in bounds:
                entry[name]["verdict"] = verdict(parent, change, higher, bounds[name])
        summary[workload] = entry
    return summary


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run from the root of ``checkout``."""
    command = [sys.executable, "benchmarks/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} exited {done.returncode}: {done.stderr[-2000:]}")
    return parse_run(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of benchmarks/run.py; repeat for several")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for workload in args.workload:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(checkouts[side], workload, args.seed, args.seconds)
                runs.append({"workload": workload, "seed": args.seed, "pair": pair, "side": side, **run})
                print(f"{workload} pair {pair} {side}: cells_per_s {run['cells_per_s']:.6g}, "
                      f"setup_s {run['setup_s']:.4g}, peak_rss_mb {run['peak_rss_mb']:.4g}", flush=True)
    record = {
        "command": f"python3 benchmarks/run.py --workload <w> --seed {args.seed} --seconds "
                   f"{args.seconds:g}, from the root of each checkout",
        "order": "alternating pairs, the parent first in even pairs",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "summary": summarize(runs),
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
