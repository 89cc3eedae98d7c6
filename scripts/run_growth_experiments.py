#!/usr/bin/env python3
"""Scan the scaled passage value against the growth constants.

Runs the exponential and geometric configurations over a range of sizes,
writes one JSON report per configuration plus a combined CSV of per-size
means, and prints a short table.  Replica counts shrink with size so each
size gets comparable total work.
"""

from __future__ import annotations

import argparse
import csv
import json
from pathlib import Path

from brokenlines.duality import parse_dist
from brokenlines.experiments import LlnConfig, lln_experiment, lln_target


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="250,500,1000")
    parser.add_argument("--dists", default="exp:1,geom:0.5")
    parser.add_argument("--beta", type=float, default=1.0)
    parser.add_argument("--base-replicas", type=int, default=20_000,
                        help="replicas at size n are base-replicas // n")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted and ignored: replicas run in one thread")
    parser.add_argument("--outdir", default="results")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    sizes = [int(tok) for tok in args.sizes.split(",")]

    rows = []
    for token in args.dists.split(","):
        dist = parse_dist(token)
        target = lln_target(dist, args.beta)
        for n in sizes:
            replicas = max(4, args.base_replicas // n)
            config = LlnConfig(n, args.beta, dist, replicas, seed=args.seed)
            report = lln_experiment(config)
            name = f"growth_{token.replace(':', '')}_n{n}.json"
            (outdir / name).write_text(json.dumps(report.to_dict(), indent=2))
            rows.append([token, n, replicas, report.mean, target, target - report.mean])
            print(
                f"{token:>10}  n={n:<5} replicas={replicas:<4} "
                f"mean={report.mean:.4f} target={target:.4f} gap={target - report.mean:+.4f}"
            )

    with (outdir / "growth_summary.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dist", "n", "replicas", "mean", "target", "gap"])
        writer.writerows(rows)
    print(f"wrote {outdir}/growth_summary.csv")


if __name__ == "__main__":
    main()
