"""Command-line front end: single experiments and repeated-dataset sweeps."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .harness import ExperimentConfig, format_report, repeated_datasets, run_experiment
from .samplers import BACKENDS


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file; explicit flags win")
    parser.add_argument("--prior", help="prior tag, e.g. LM-C, LR-N, MM, AFT-NH")
    parser.add_argument("--n", type=int, help="sample size")
    parser.add_argument("--p", type=int, help="number of covariates")
    parser.add_argument("--H", type=int, help="mixture components (2 or 4)")
    parser.add_argument("--k", type=float, help="target censored fraction (AFT)")
    parser.add_argument("--covariates", choices=["continuous", "binary"])
    parser.add_argument("--zero-pattern", type=int, dest="zero_pattern",
                        help="number of trailing true-zero coefficients")
    parser.add_argument("--backends", help=f"comma-separated: {','.join(BACKENDS)}")
    parser.add_argument("--chains", type=int, help="parallel chains per backend")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--niter", type=int, dest="n_iter", help="override total iterations")
    parser.add_argument("--nburn", type=int, dest="n_burn", help="override burn-in")
    parser.add_argument("--nthin", type=int, dest="n_thin", help="override thinning")
    parser.add_argument("--max-workers", type=int, dest="max_workers")
    parser.add_argument("--format", choices=["csv", "json"], default="csv",
                        help="stdout report format (default csv); --out always "
                             "gets both report.csv and report.json")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mcmcbench",
        description="Benchmark MCMC backends on simulated Bayesian models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="one dataset, all requested backends")
    _add_common(p_run)
    p_sweep = sub.add_parser("sweep", help="repeat over independently drawn datasets")
    _add_common(p_sweep)
    p_sweep.add_argument("--repeats", type=int, help="number of datasets")
    return parser


# Every ExperimentConfig field may come from the config file; the flags set a subset.
_CFG_FIELDS = tuple(f.name for f in dataclasses.fields(ExperimentConfig))


def _merge_config(args) -> ExperimentConfig:
    values = {}
    if args.config:
        values.update(json.loads(Path(args.config).read_text()))
    for name in _CFG_FIELDS:
        flag_val = getattr(args, name, None)
        if flag_val is not None:
            values[name] = flag_val
    unknown = set(values) - set(_CFG_FIELDS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "prior" not in values:
        raise ValueError("a prior tag is required (--prior or config file)")
    return ExperimentConfig(**values)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        if args.command == "sweep":
            reports = repeated_datasets(cfg)["rows"]
        else:
            reports = list(run_experiment(cfg).values())
        sys.stdout.write(format_report(reports, args.format))
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
