"""Systematic-scan Gibbs sampler.

Each model supplies its own scan: conjugate blocks are drawn exactly
from their full conditionals, everything else advances by one slice
step.  The slice step is injected so it draws from the chain's random
stream and its failures carry the block name.

Each slice block keeps its own width, tuned during burn-in as JAGS and
NIMBLE do: it starts at 1, and once a block has made ``ADAPT_AFTER``
burn-in updates it follows ``WIDTH_PER_JUMP`` times the mean |jump| of
all of them.  After burn-in the widths stay frozen, so the sampling
phase runs a fixed, exact kernel; ``stats()`` reports them.
"""

from __future__ import annotations

import numpy as np

from .slice_sampling import slice_step

ADAPT_AFTER = 50  # burn-in updates of a block before its width adapts
WIDTH_PER_JUMP = 2.0  # tuned width as a multiple of the mean |jump|


def start(model, cfg, rng):
    state = {k: np.array(v, dtype=float, copy=True) for k, v in model.initial_params().items()}
    tuning = {}  # block -> [width, burn-in updates, sum of their |jump|]
    adapting = False  # set by step(it): true while it <= n_burn

    def slice_fn(logpdf, x0, block):
        tune = tuning.setdefault(block, [1.0, 0, 0.0])
        x1 = slice_step(logpdf, x0, rng, w=tune[0], block=block)
        if adapting:
            tune[1] += 1
            tune[2] += abs(x1 - x0)
            if tune[1] >= ADAPT_AFTER and tune[2] > 0:
                tune[0] = WIDTH_PER_JUMP * tune[2] / tune[1]
        return x1

    def step(it):
        nonlocal adapting
        adapting = it <= cfg.n_burn
        model.gibbs_scan(state, rng, slice_fn)

    def draw():
        return model.space.flatten_constrained(state)

    def stats():  # empty for a fully conjugate scan
        return {"slice_width": {b: float(t[0]) for b, t in tuning.items()}} if tuning else {}

    return step, draw, stats
