"""Systematic-scan Gibbs sampler.

Each model supplies its own scan: conjugate blocks are drawn exactly
from their full conditionals, everything else advances by one slice
step.  The slice step is injected so it draws from the chain's random
stream and its failures carry the block name.
"""

from __future__ import annotations

import numpy as np

from .slice_sampling import slice_step


def start(model, cfg, rng):
    state = {k: np.array(v, dtype=float, copy=True) for k, v in model.initial_params().items()}

    def slice_fn(logpdf, x0, block):
        return slice_step(logpdf, x0, rng, block=block)

    def step(it):
        model.gibbs_scan(state, rng, slice_fn)

    def draw():
        return model.space.flatten_constrained(state)

    return step, draw, dict  # no summary statistics
