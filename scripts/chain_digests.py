#!/usr/bin/env python3
"""Print a SHA-256 of the retained draws for every prior x backend.

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

Run it before and after a change on the same machine and diff the two
outputs: equal lines mean bit-identical draws, sampler statistics, fit
numbers and report rows, and a line that differs only in its fit numbers
or its row shows which of them a diagnostics or report change moved.  The
digests depend on the CPU's SIMD code paths, so outputs from different
machines are not comparable.

Usage:
    python scripts/chain_digests.py > digests.txt
"""

import hashlib
import json

import numpy as np

from mcmcbench.harness import ExperimentConfig, run_experiment
from mcmcbench.models import PRIORS

TIMING_CELLS = ("t_s", "N_it_per_s")
# (prior, design) cells where NUTS diverges at seed 0 and 2000/1000
DIVERGENT_NUTS = (("AFT-NH", {"n": 5, "k": 0.5}), ("AFT-NI", {"n": 20, "k": 0.5}))
# (prior, design) cells of 16 coefficients, as in the lr-gibbs workload
WIDE_GIBBS = (("LR-N", {"p": 16}), ("LR-L", {"p": 16}))


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


if __name__ == "__main__":
    main()
