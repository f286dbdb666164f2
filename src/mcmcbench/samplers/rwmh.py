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


def start(model, cfg, rng):
    u = model.initial_u().copy()
    latent = model.is_latent
    z = model.initial_z(model.space.constrain(u)) if latent else None

    block_names = model.rw_block_names()
    slices = {nm: model.space.u_slice(nm) for nm in block_names}
    sizes = {nm: sl.stop - sl.start for nm, sl in slices.items()}
    log_scale = {nm: math.log(0.5) for nm in block_names}
    targets = {
        nm: (
            cfg.rwmh_target_accept_scalar
            if sizes[nm] == 1
            else cfg.rwmh_target_accept_block
        )
        for nm in block_names
    }
    accept_count = {nm: 0 for nm in block_names}

    def logp(uu, zz):
        return model.log_posterior_u(uu, zz) if latent else model.log_posterior_u(uu)

    current = logp(u, z)

    def step(it):
        nonlocal u, z, current
        if latent:
            z = model.resample_latent(model.space.constrain(u), rng)
            current = logp(u, z)
        for nm in block_names:
            sl = slices[nm]
            prop = u.copy()
            prop[sl] = u[sl] + math.exp(log_scale[nm]) * rng.standard_normal(sizes[nm])
            prop_lp = logp(prop, z)
            log_alpha = prop_lp - current
            accepted = log_alpha >= 0 or rng.random() < math.exp(log_alpha)
            if accepted:
                u = prop
                current = prop_lp
            if it <= cfg.n_burn:
                alpha = min(1.0, math.exp(min(0.0, log_alpha)))
                gain = it ** -0.6
                log_scale[nm] += gain * (alpha - targets[nm])
                log_scale[nm] = max(log_scale[nm], math.log(SCALE_FLOOR))
            else:
                accept_count[nm] += int(accepted)

    def draw():
        return model.space.flatten_constrained(model.space.constrain(u))

    def stats():
        post_burn = cfg.n_iter - cfg.n_burn
        return {
            "acceptance": {nm: accept_count[nm] / post_burn for nm in block_names},
            "proposal_scales": {nm: math.exp(s) for nm, s in log_scale.items()},
        }

    return step, draw, stats
