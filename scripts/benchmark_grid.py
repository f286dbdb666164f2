#!/usr/bin/env python3
"""Run the backend comparison over a grid of (prior, n, p-or-H) settings.

Produces one combined CSV in the style of the benchmark tables: a row per
(setting, backend) with mean efficiency, timing, and fit metrics.

Usage:
    python scripts/benchmark_grid.py --out results/grid.csv [--quick]
"""

import argparse
from pathlib import Path

from mcmcbench.harness import ExperimentConfig, emit_report, run_experiment

GRID = [
    dict(prior="LM-C", n=100, p=4),
    dict(prior="LM-C", n=1000, p=16),
    dict(prior="LM-WI", n=100, p=4),
    dict(prior="LM-NI", n=100, p=4),
    dict(prior="LM-L", n=1000, p=30, zero_pattern=15),
    dict(prior="LR-N", n=100, p=16),
    dict(prior="LR-L", n=100, p=16),
    dict(prior="MM", n=100, H=2),
    dict(prior="MM", n=1000, H=4),
    dict(prior="AFT-NH", n=100, p=4, k=0.2),
    dict(prior="AFT-NI", n=100, p=4, k=0.2),
]


def cell(value, spec):
    """A report cell for the progress line; a skipped backend's "-" prints as is."""
    return value if isinstance(value, str) else format(value, spec)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="results/grid.csv")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--quick", action="store_true",
                    help="short chains (2000/1000) for a fast smoke run")
    args = ap.parse_args()

    reports = []
    for setting in GRID:
        schedule = dict(n_iter=2000, n_burn=1000) if args.quick else {}
        cfg = ExperimentConfig(seed=args.seed, **setting, **schedule)
        for rep in run_experiment(cfg).values():
            reports.append(rep)
            row = rep.row()
            print(
                f"{row['prior']:7s} n={row['n']:<5d} {row['backend']:5s} "
                f"E={cell(row['mean_E'], '.3f')} it/s={cell(row['N_it_per_s'], '.0f')}"
            )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    emit_report(reports, out, fmt="csv")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
