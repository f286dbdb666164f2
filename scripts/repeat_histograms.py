#!/usr/bin/env python3
"""Repeated-dataset sweep: distribution of mean efficiency across datasets.

Regenerates the data R times with derived seeds, runs every backend on
each replicate, and writes a long-format CSV (one row per dataset x
backend) ready for histogram plotting, plus a JSON summary.

Usage:
    python scripts/repeat_histograms.py --prior LM-C --n 1000 --p 8 --repeats 20 --out results/lmc_sweep
"""

import argparse

from mcmcbench.harness import ExperimentConfig, repeated_datasets
from mcmcbench.samplers import BACKENDS


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--prior", required=True)
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--p", type=int, default=8)
    ap.add_argument("--H", type=int, default=2)
    ap.add_argument("--k", type=float, default=0.5)
    ap.add_argument("--repeats", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--backends", default=",".join(BACKENDS))
    ap.add_argument("--out", default="results/sweep")
    args = ap.parse_args()

    cfg = ExperimentConfig(
        prior=args.prior,
        n=args.n,
        p=args.p,
        H=args.H,
        k=args.k,
        repeats=args.repeats,
        seed=args.seed,
        backends=args.backends,
        out=args.out,
    )
    result = repeated_datasets(cfg)
    for backend, stats in result["summary"].items():
        if "mean_E" in stats:
            s = stats["mean_E"]
            print(
                f"{backend:5s} mean_E: mean={s['mean']:.3f} sd={s['sd']:.3f} "
                f"range=[{s['min']:.3f}, {s['max']:.3f}]"
            )
    print(f"wrote {args.out}/sweep.csv and summary.json")


if __name__ == "__main__":
    main()
