#!/usr/bin/env python3
"""Print a SHA-256 of the retained draws for every prior x backend.

Each chain comes from ``run_experiment(ExperimentConfig(prior=...,
n_iter=2000, n_burn=1000, seed=0))`` with the other defaults (n=100, p=4,
H=2, thinning 2).  Each line holds the prior, the backend, the SHA-256 of
``Chain.samples``, the SHA-256 of ``Chain.stats`` as sorted JSON, and the
report's ``lpml``, ``waic`` and ``kl`` printed with ``repr`` (``kl`` is
``None`` outside the mixture).

Run it before and after a change on the same machine and diff the two
outputs: equal lines mean bit-identical draws, sampler statistics and fit
numbers, and a line that differs only in its fit numbers shows which of
them a diagnostics change moved and by how much.  The digests depend on
the CPU's SIMD code paths, so outputs from different machines are not
comparable.

Usage:
    python scripts/chain_digests.py > digests.txt
"""

import hashlib
import json

import numpy as np

from mcmcbench.harness import ExperimentConfig, run_experiment
from mcmcbench.models import PRIOR_TAGS


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main():
    for prior in PRIOR_TAGS:
        reports = run_experiment(ExperimentConfig(prior=prior, n_iter=2000, n_burn=1000, seed=0))
        for backend, rep in sorted(reports.items()):
            chain = rep.chain
            samples = sha256(np.ascontiguousarray(chain.samples, dtype=np.float64).tobytes())
            stats = sha256(json.dumps(chain.stats, sort_keys=True).encode())
            fit = rep.fit
            print(
                f"{prior:7s} {backend:5s} {samples} stats {stats}"
                f" lpml {fit.lpml!r} waic {fit.waic!r} kl {fit.kl!r}",
                flush=True,
            )


if __name__ == "__main__":
    main()
