"""No-U-Turn sampler with dual-averaging step-size adaptation.

Tree doubling with the slice-variable acceptance rule, a unit diagonal
mass matrix and a hard cap on tree depth; each subtree is built by one
loop over its leaves, with the merges of Hoffman & Gelman's (2014)
recursion.  The step size is tuned toward a target acceptance statistic
during burn-in and frozen afterwards.  Trajectories whose energy error
exceeds ``DIVERGENCE_CAP`` are flagged as divergent and the doubling stops.
"""

from __future__ import annotations

import math

import numpy as np

DIVERGENCE_CAP = 1000.0
TARGET_ACCEPT = 0.8
MAX_TREE_DEPTH = 10


def leapfrog(logp_and_grad, q, p, grad_q, eps):
    """One leapfrog update: half momentum kick, drift, half kick.

    ``grad_q`` is the gradient at ``q``, carried over from the previous
    step, so each update costs one ``logp_and_grad`` call.  Returns the new
    position and momentum with the log density and gradient at the new
    position.
    """
    p_half = p + 0.5 * eps * grad_q
    q_new = q + eps * p_half
    logp_new, grad_new = logp_and_grad(q_new)
    p_new = p_half + 0.5 * eps * grad_new
    return q_new, p_new, logp_new, grad_new


def _merge(n_old, n_new, going, top, q_first, p_first, q_last, p_last, direction, rng):
    """Merge a new half of n'' = ``n_new`` valid points, built in ``direction``
    and still ``going`` or not, into the half of n' = ``n_old`` before it.

    Returns whether the new proposal replaces the old one and whether the
    merged segment, from ``q_first`` to ``q_last``, still grows.  Inside a
    subtree the new proposal wins with probability n''/(n' + n''); at the
    ``top`` with n''/n', which favours the new half, and never when the new
    half stopped.  The merged segment stops if the new half stopped or its
    ends make a U-turn.
    """
    take = (
        (going or not top)
        and n_new > 0
        and rng.random() < n_new / (n_old if top else n_old + n_new)
    )
    if going:
        dq = q_last - q_first if direction == 1 else q_first - q_last  # q_plus - q_minus
        going = float(dq @ p_first) >= 0.0 and float(dq @ p_last) >= 0.0
    return take, going


def _transition(model, q, logp, grad, eps, rng):
    """One NUTS iteration from ``q`` with step size ``eps``.

    ``logp`` and ``grad`` are the log density and its gradient at ``q``.
    Returns the next point with its log density and gradient, the
    acceptance statistic, the tree depth, whether the trajectory diverged
    and whether the depth cap stopped it while it still grew.
    """
    p0 = rng.standard_normal(q.size)
    joint0 = logp - 0.5 * float(p0 @ p0)
    log_u = joint0 + math.log(rng.random())
    # the trajectory's two ends; (q, logp, grad) is its proposal
    q_minus, p_minus, g_minus = q_plus, p_plus, g_plus = q, p0, grad
    n_valid, going, divergent = 1, True, False
    alpha_sum, n_leapfrog, depth = 0.0, 0, 0
    # a divergent trajectory overflows and leaves non-finite values in the
    # leapfrog and the U-turn checks; both end the tree, so the warnings say
    # nothing
    with np.errstate(over="ignore", invalid="ignore"):
        while going and depth < MAX_TREE_DEPTH:
            direction = 1 if rng.random() < 0.5 else -1
            if direction == 1:
                q_back, p_back, q1, p1, g1 = q_minus, p_minus, q_plus, p_plus, g_plus
            else:
                q_back, p_back, q1, p1, g1 = q_plus, p_plus, q_minus, p_minus, g_minus
            # The subtree's 2**depth leaves run off that end.  After leaf i,
            # halves merge once per trailing zero bit of i; ``halves`` holds
            # each finished left half, with its first point, until then.  A
            # subtree that stops merges into every half still waiting.
            halves, n_leaves = [], 2**depth
            for i in range(1, n_leaves + 1):
                q1, p1, logp1, g1 = leapfrog(model.logp_and_grad, q1, p1, g1, direction * eps)
                joint = logp1 - 0.5 * float(p1 @ p1)
                if not math.isfinite(joint):
                    joint = -math.inf
                n_leapfrog += 1
                divergent = log_u - DIVERGENCE_CAP > joint
                going = not divergent
                # the leaf as a subtree: first point, proposal and tallies
                q_first, p_first, q_prop, logp_prop, g_prop = q1, p1, q1, logp1, g1
                n_sub = 1 if log_u <= joint else 0
                alpha_sub = min(1.0, math.exp(min(0.0, joint - joint0)))
                merges = (i & -i).bit_length() - 1
                while halves and (merges or not going):
                    merges -= 1
                    q_first, p_first, q_left, logp_left, g_left, n_left, alpha_left = halves.pop()
                    take, going = _merge(
                        n_left, n_sub, going, False, q_first, p_first, q1, p1, direction, rng
                    )
                    if not take:
                        q_prop, logp_prop, g_prop = q_left, logp_left, g_left
                    n_sub += n_left
                    alpha_sub = alpha_left + alpha_sub
                if not going or i == n_leaves:
                    break
                halves.append((q_first, p_first, q_prop, logp_prop, g_prop, n_sub, alpha_sub))
            if direction == 1:
                q_plus, p_plus, g_plus = q1, p1, g1
            else:
                q_minus, p_minus, g_minus = q1, p1, g1
            take, going = _merge(
                n_valid, n_sub, going, True, q_back, p_back, q1, p1, direction, rng
            )
            if take:
                q, logp, grad = q_prop, logp_prop, g_prop
            n_valid += n_sub
            alpha_sum += alpha_sub
            depth += 1
    return q, logp, grad, alpha_sum / n_leapfrog, depth, divergent, going


def _find_reasonable_epsilon(model, q, logp, grad, rng):
    """Initial step size (Hoffman & Gelman 2014, Algorithm 4).

    Halves or doubles the step until one leapfrog step from ``q``, where the
    log density is ``logp`` and its gradient ``grad``, crosses an acceptance
    probability of 1/2.
    """
    p = rng.standard_normal(q.size)
    joint0 = logp - 0.5 * float(p @ p)

    def joint_after(eps):
        # a step far too long overflows, and its joint then counts as -inf
        with np.errstate(over="ignore", invalid="ignore"):
            _, p1, logp1, _ = leapfrog(model.logp_and_grad, q, p, grad, eps)
            joint = logp1 - 0.5 * float(p1 @ p1)
        return joint if math.isfinite(joint) else -math.inf

    eps = 1.0
    joint1 = joint_after(eps)
    while joint1 == -math.inf:
        eps *= 0.5
        if eps < 1e-10:
            return 1e-10
        joint1 = joint_after(eps)
    direction = 1.0 if joint1 - joint0 > math.log(0.5) else -1.0
    while direction * (joint1 - joint0) > -direction * math.log(2.0):
        eps *= 2.0**direction
        if eps > 1e7 or eps < 1e-10:
            break
        joint1 = joint_after(eps)
    return eps


def start(model, cfg, rng):
    if not model.has_gradient:
        raise RuntimeError(
            "NUTS needs a gradient; use the marginal parameterization for mixtures"
        )
    q = model.initial_u().copy()
    logp, grad = model.logp_and_grad(q)

    eps = _find_reasonable_epsilon(model, q, logp, grad, rng)
    mu = math.log(10.0 * eps)
    log_eps_bar = 0.0
    h_bar = 0.0
    gamma, t0, kappa = 0.05, 10.0, 0.75

    n_divergent = 0
    n_maxdepth = 0
    depth_total = 0

    def step(it):
        nonlocal q, logp, grad, eps, log_eps_bar, h_bar
        nonlocal n_divergent, n_maxdepth, depth_total
        q, logp, grad, accept, depth, divergent, capped = _transition(
            model, q, logp, grad, eps, rng
        )
        # As in Stan, the statistics count the iterations after warm-up only:
        # divergences and capped trees are expected while the step size adapts.
        if it > cfg.n_burn:
            n_divergent += int(divergent)
            n_maxdepth += int(capped)
            depth_total += depth

        if it <= cfg.n_burn:
            frac = 1.0 / (it + t0)
            h_bar = (1.0 - frac) * h_bar + frac * (TARGET_ACCEPT - accept)
            log_eps = mu - math.sqrt(it) / gamma * h_bar
            eta = it**-kappa
            log_eps_bar = eta * log_eps + (1.0 - eta) * log_eps_bar
            eps = math.exp(log_eps)
            if it == cfg.n_burn:
                eps = math.exp(log_eps_bar)

    def draw():
        return model.space.flatten_constrained(model.space.constrain(q))

    def stats():
        return {
            "step_size": eps,
            "n_divergent": n_divergent,
            "n_max_depth": n_maxdepth,
            "mean_tree_depth": depth_total / (cfg.n_iter - cfg.n_burn),
        }

    return step, draw, stats
