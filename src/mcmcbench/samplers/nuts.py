"""No-U-Turn sampler with dual-averaging step-size adaptation.

Recursive tree doubling with the slice-variable acceptance rule, a unit
diagonal mass matrix and a hard cap on tree depth.  The step size is
tuned toward a target acceptance statistic during burn-in and frozen
afterwards.  Trajectories whose energy error exceeds ``DIVERGENCE_CAP``
are flagged as divergent and the doubling stops.
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


class _Tree:
    """A trajectory segment: its two ends, its proposal and its tallies."""

    __slots__ = (
        "q_minus", "p_minus", "g_minus",
        "q_plus", "p_plus", "g_plus",
        "q_prop", "logp_prop", "g_prop",
        "n_valid", "keep_going", "alpha_sum", "n_alpha", "divergent",
    )


def _point(q, p, g, logp):
    """A segment of one point, which is both its ends and its proposal."""
    t = _Tree()
    t.q_minus = t.q_plus = t.q_prop = q
    t.p_minus = t.p_plus = p
    t.g_minus = t.g_plus = t.g_prop = g
    t.logp_prop = logp
    return t


def _build_tree(model, q, p, grad_q, log_u, joint0, direction, depth, eps, rng):
    if depth == 0:
        q1, p1, logp1, g1 = leapfrog(model.logp_and_grad, q, p, grad_q, direction * eps)
        joint = logp1 - 0.5 * float(p1 @ p1)
        if not math.isfinite(joint):
            joint = -math.inf
        t = _point(q1, p1, g1, logp1)
        t.n_valid = 1 if log_u <= joint else 0
        t.divergent = log_u - DIVERGENCE_CAP > joint
        t.keep_going = not t.divergent
        t.alpha_sum = min(1.0, math.exp(min(0.0, joint - joint0)))
        t.n_alpha = 1
        return t

    t = _build_tree(model, q, p, grad_q, log_u, joint0, direction, depth - 1, eps, rng)
    if t.keep_going:
        _extend(model, t, log_u, joint0, direction, depth - 1, eps, rng, top=False)
    return t


def _extend(model, t, log_u, joint0, direction, depth, eps, rng, top):
    """Grow ``t`` by a subtree of ``depth`` off its ``direction`` end.

    Inside a subtree the new half's proposal replaces ``t``'s with
    probability n''/(n' + n''). At the ``top`` of the trajectory it does so
    with probability n''/n', which favours the new half, and never when the
    new half stopped.  ``t`` then stops if the new half stopped or if its
    ends make a U-turn.
    """
    if direction == -1:
        sub = _build_tree(
            model, t.q_minus, t.p_minus, t.g_minus, log_u, joint0, direction, depth, eps, rng
        )
        t.q_minus, t.p_minus, t.g_minus = sub.q_minus, sub.p_minus, sub.g_minus
    else:
        sub = _build_tree(
            model, t.q_plus, t.p_plus, t.g_plus, log_u, joint0, direction, depth, eps, rng
        )
        t.q_plus, t.p_plus, t.g_plus = sub.q_plus, sub.p_plus, sub.g_plus
    n_old = t.n_valid
    t.n_valid = n_old + sub.n_valid
    if (
        (sub.keep_going or not top)
        and sub.n_valid > 0
        and rng.random() < sub.n_valid / (n_old if top else t.n_valid)
    ):
        t.q_prop, t.logp_prop, t.g_prop = sub.q_prop, sub.logp_prop, sub.g_prop
    t.alpha_sum += sub.alpha_sum
    t.n_alpha += sub.n_alpha
    t.divergent = t.divergent or sub.divergent
    dq = t.q_plus - t.q_minus
    t.keep_going = (
        sub.keep_going
        and float(dq @ t.p_minus) >= 0.0
        and float(dq @ t.p_plus) >= 0.0
    )


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
        p0 = rng.standard_normal(q.size)
        joint0 = logp - 0.5 * float(p0 @ p0)
        log_u = joint0 + math.log(rng.random())

        tree = _point(q, p0, grad, logp)
        tree.n_valid, tree.keep_going, tree.divergent = 1, True, False
        tree.alpha_sum, tree.n_alpha = 0.0, 0
        depth = 0
        # a divergent trajectory overflows and leaves non-finite values in
        # the leapfrog and the U-turn checks; both end the tree, so the
        # warnings say nothing
        with np.errstate(over="ignore", invalid="ignore"):
            while tree.keep_going and depth < MAX_TREE_DEPTH:
                direction = 1 if rng.random() < 0.5 else -1
                _extend(model, tree, log_u, joint0, direction, depth, eps, rng, top=True)
                depth += 1
        q, logp, grad = tree.q_prop, tree.logp_prop, tree.g_prop
        # As in Stan, the statistics count the iterations after warm-up only:
        # divergences and capped trees are expected while the step size adapts.
        if it > cfg.n_burn:
            n_divergent += int(tree.divergent)
            n_maxdepth += int(tree.keep_going)  # the cap stopped a growing tree
            depth_total += depth

        if it <= cfg.n_burn:
            frac = 1.0 / (it + t0)
            h_bar = (1.0 - frac) * h_bar + frac * (
                TARGET_ACCEPT - tree.alpha_sum / max(tree.n_alpha, 1)
            )
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
