#!/usr/bin/env python3
"""Print a SHA-256 of the retained draws for every prior x backend, and of datasets.

Each chain comes from ``run_experiment(ExperimentConfig(prior=...,
n_iter=2000, n_burn=1000, seed=0))`` with the other defaults (n=100, p=4,
H=2, thinning 2).  Each line holds the prior, the backend, the SHA-256 of
``Chain.samples``, the SHA-256 of ``Chain.stats`` as sorted JSON, the
report's ``lpml``, ``waic`` and ``kl`` printed with ``repr`` (``kl`` is
``None`` outside the mixture), and the SHA-256 of the report row
(``RunReport.row()`` as sorted JSON without the wall-clock cells ``t_s``
and ``N_it_per_s``), which also covers ``error``, ``mean_E``,
``per_block_E`` and ``n_divergences``.

After those 27 lines come NUTS-only lines for the cells in
``DIVERGENT_NUTS``, small AFT datasets on which NUTS diverges after
warm-up, so that the digests also cover a trajectory stopped by a
divergence.  Then come Gibbs-only lines for the cells in ``WIDE_GIBBS``,
LR-N and LR-L at n=100 and p=16, where the LR coordinate sweep runs 16
coefficients per scan.  They use the same schedule and seed.

Last come dataset lines, one per cell of ``DATASETS`` and seed in
``DATASET_SEEDS``: the prior, the design and the seed, then the SHA-256 of
the dataset that ``harness.make_dataset(ExperimentConfig(...))`` draws
(y, X, the censoring indicators and the ground truth).  The cells cover
the designs of the tests, the scripts and perfbench: binary covariates at
p = 4, 16 and 50, trailing zero coefficients, censoring fractions 0.2, 0.5
and 0.8, and mixtures of 2 and 4 components.  The datasets are drawn
through ``harness`` alone, so the script runs against the ``src`` of an
older tree through PYTHONPATH.

Run it before and after a change on the same machine and diff the two
outputs: equal lines mean bit-identical draws, sampler statistics, fit
numbers and report rows, and a line that differs only in its fit numbers
or its row shows which of them a diagnostics or report change moved.  The
digests depend on the CPU's SIMD code paths, so outputs from different
machines are not comparable.

Usage:
    python scripts/chain_digests.py > digests.txt
    PYTHONPATH=other/src python scripts/chain_digests.py > other.txt
"""

import hashlib
import json

import numpy as np

from mcmcbench.harness import ExperimentConfig, make_dataset, run_experiment
from mcmcbench.models import PRIORS

TIMING_CELLS = ("t_s", "N_it_per_s")
# (prior, design) cells where NUTS diverges at seed 0 and 2000/1000
DIVERGENT_NUTS = (("AFT-NH", {"n": 5, "k": 0.5}), ("AFT-NI", {"n": 20, "k": 0.5}))
# (prior, design) cells of 16 coefficients, as in the lr-gibbs workload
WIDE_GIBBS = (("LR-N", {"p": 16}), ("LR-L", {"p": 16}))
# (prior, design) cells whose datasets are hashed, each at every seed of DATASET_SEEDS
DATASETS = (
    ("LM-C", {"n": 100, "p": 4}),
    ("LM-C", {"n": 1000, "p": 16}),
    ("LM-C", {"n": 500, "p": 4, "covariates": "binary"}),
    ("LM-C", {"n": 500, "p": 16, "covariates": "binary"}),
    ("LM-C", {"n": 500, "p": 50, "covariates": "binary"}),
    ("LM-L", {"n": 1000, "p": 30, "zero_pattern": 15}),
    ("LR-N", {"n": 100, "p": 16}),
    ("LR-L", {"n": 1000, "p": 4, "zero_pattern": 3}),
    ("MM", {"n": 100, "H": 2}),
    ("MM", {"n": 1000, "H": 4}),
    ("AFT-NH", {"n": 1000, "p": 4, "k": 0.2}),
    ("AFT-NH", {"n": 1000, "p": 4, "k": 0.5}),
    ("AFT-NI", {"n": 1000, "p": 3, "k": 0.8}),
)
DATASET_SEEDS = (0, 1, 7)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def print_digests(cfg):
    for backend, rep in sorted(run_experiment(cfg).items()):
        chain = rep.chain
        samples = sha256(np.ascontiguousarray(chain.samples, dtype=np.float64).tobytes())
        stats = sha256(json.dumps(chain.stats, sort_keys=True).encode())
        fit = rep.fit
        row = {k: v for k, v in rep.row().items() if k not in TIMING_CELLS}
        row_digest = sha256(json.dumps(row, sort_keys=True, default=float).encode())
        print(
            f"{cfg.prior:7s} {backend:5s} {samples} stats {stats}"
            f" lpml {fit.lpml!r} waic {fit.waic!r} kl {fit.kl!r} row {row_digest}",
            flush=True,
        )


def dataset_digest(ds) -> str:
    """SHA-256 of a dataset's arrays and ground truth, each field in turn; None hashes as b"-"."""
    truth = ds.truth
    mixture = truth.mixture or {}
    fields = (ds.y, ds.X, ds.delta, truth.beta, truth.sigma2, *(mixture[k] for k in sorted(mixture)))
    h = hashlib.sha256()
    for a in fields:
        h.update(b"-" if a is None else np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def main():
    for prior in PRIORS:
        print_digests(ExperimentConfig(prior=prior, n_iter=2000, n_burn=1000, seed=0))
    for backend, cells in (("nuts", DIVERGENT_NUTS), ("gibbs", WIDE_GIBBS)):
        for prior, design in cells:
            print_digests(
                ExperimentConfig(
                    prior=prior, **design, backends=(backend,), n_iter=2000, n_burn=1000, seed=0
                )
            )
    for prior, design in DATASETS:
        for seed in DATASET_SEEDS:
            ds = make_dataset(ExperimentConfig(prior=prior, **design, seed=seed))
            cell = " ".join(f"{k}={v}" for k, v in design.items())
            print(f"dataset {prior:7s} {cell} seed={seed} {dataset_digest(ds)}", flush=True)


if __name__ == "__main__":
    main()
