"""Random-walk Metropolis-Hastings with per-block Gaussian proposals.

Proposal scales are adapted on the log scale toward the optimal-scaling
acceptance targets (0.44 for scalar blocks, 0.234 for multivariate ones)
during burn-in only, then frozen.  Latent-allocation models interleave
an exact categorical update of the allocations with the random-walk
updates of the continuous blocks.
"""

from __future__ import annotations

import math

SCALE_FLOOR = 1e-8
TARGET_ACCEPT_SCALAR = 0.44
TARGET_ACCEPT_BLOCK = 0.234


def start(model, cfg, rng):
    u = model.initial_u().copy()
    latent = model.is_latent
    z = None  # a latent model draws z, and then current, at the top of each step

    blocks = [(b.name, model.space.u_slice(b.name), b.size) for b in model.space.blocks]
    log_scale = {nm: math.log(0.5) for nm, _, _ in blocks}
    accept_count = {nm: 0 for nm, _, _ in blocks}

    def logp(uu, zz):
        return model.log_posterior_u(uu, zz) if latent else model.log_posterior_u(uu)

    current = None if latent else logp(u, z)

    def step(it):
        nonlocal u, z, current
        if latent:
            z = model.resample_latent(model.space.constrain(u), rng)
            current = logp(u, z)
        for nm, sl, size in blocks:
            prop = u.copy()
            prop[sl] = u[sl] + math.exp(log_scale[nm]) * rng.standard_normal(size)
            prop_lp = logp(prop, z)
            log_alpha = prop_lp - current
            accepted = log_alpha >= 0 or rng.random() < math.exp(log_alpha)
            if accepted:
                u = prop
                current = prop_lp
            if it <= cfg.n_burn:
                alpha = min(1.0, math.exp(min(0.0, log_alpha)))
                gain = it ** -0.6
                target = TARGET_ACCEPT_SCALAR if size == 1 else TARGET_ACCEPT_BLOCK
                log_scale[nm] += gain * (alpha - target)
                log_scale[nm] = max(log_scale[nm], math.log(SCALE_FLOOR))
            else:
                accept_count[nm] += int(accepted)

    def draw():
        return model.space.flatten_constrained(model.space.constrain(u))

    def stats():
        post_burn = cfg.n_iter - cfg.n_burn
        return {
            "acceptance": {nm: count / post_burn for nm, count in accept_count.items()},
            "proposal_scales": {nm: math.exp(s) for nm, s in log_scale.items()},
        }

    return step, draw, stats
