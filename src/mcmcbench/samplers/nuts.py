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
    """State carried through the recursive doubling."""

    __slots__ = (
        "q_minus", "p_minus", "g_minus",
        "q_plus", "p_plus", "g_plus",
        "q_prop", "logp_prop", "g_prop",
        "n_valid", "keep_going", "alpha_sum", "n_alpha", "divergent",
    )


def _build_tree(model, q, p, grad_q, log_u, joint0, direction, depth, eps, rng):
    if depth == 0:
        with np.errstate(over="ignore", invalid="ignore"):
            q1, p1, logp1, g1 = leapfrog(
                model.logp_and_grad, q, p, grad_q, direction * eps
            )
            joint = logp1 - 0.5 * float(p1 @ p1)
        if not math.isfinite(joint):
            joint = -math.inf
        t = _Tree()
        t.q_minus = t.q_plus = t.q_prop = q1
        t.p_minus = t.p_plus = p1
        t.g_minus = t.g_plus = t.g_prop = g1
        t.logp_prop = logp1
        t.n_valid = 1 if log_u <= joint else 0
        t.divergent = log_u - DIVERGENCE_CAP > joint
        t.keep_going = not t.divergent
        t.alpha_sum = min(1.0, math.exp(min(0.0, joint - joint0)))
        t.n_alpha = 1
        return t

    t = _build_tree(model, q, p, grad_q, log_u, joint0, direction, depth - 1, eps, rng)
    if t.keep_going:
        if direction == -1:
            t2 = _build_tree(
                model, t.q_minus, t.p_minus, t.g_minus, log_u, joint0, direction, depth - 1, eps, rng
            )
            t.q_minus, t.p_minus, t.g_minus = t2.q_minus, t2.p_minus, t2.g_minus
        else:
            t2 = _build_tree(
                model, t.q_plus, t.p_plus, t.g_plus, log_u, joint0, direction, depth - 1, eps, rng
            )
            t.q_plus, t.p_plus, t.g_plus = t2.q_plus, t2.p_plus, t2.g_plus
        total = t.n_valid + t2.n_valid
        if t2.n_valid > 0 and rng.random() < t2.n_valid / total:
            t.q_prop, t.logp_prop, t.g_prop = t2.q_prop, t2.logp_prop, t2.g_prop
        t.n_valid = total
        t.alpha_sum += t2.alpha_sum
        t.n_alpha += t2.n_alpha
        t.divergent = t.divergent or t2.divergent
        dq = t.q_plus - t.q_minus
        t.keep_going = (
            t2.keep_going
            and float(dq @ t.p_minus) >= 0.0
            and float(dq @ t.p_plus) >= 0.0
        )
    return t


def _find_reasonable_epsilon(model, q, rng):
    eps = 1.0
    logp, grad = model.logp_and_grad(q)
    p = rng.standard_normal(q.size)
    joint0 = logp - 0.5 * float(p @ p)
    q1, p1, logp1, _ = leapfrog(model.logp_and_grad, q, p, grad, eps)
    joint1 = logp1 - 0.5 * float(p1 @ p1)
    while not math.isfinite(joint1):
        eps *= 0.5
        if eps < 1e-10:
            return 1e-10
        q1, p1, logp1, _ = leapfrog(model.logp_and_grad, q, p, grad, eps)
        joint1 = logp1 - 0.5 * float(p1 @ p1)
    direction = 1.0 if joint1 - joint0 > math.log(0.5) else -1.0
    while direction * (joint1 - joint0) > -direction * math.log(2.0):
        eps *= 2.0**direction
        if eps > 1e7 or eps < 1e-10:
            break
        q1, p1, logp1, _ = leapfrog(model.logp_and_grad, q, p, grad, eps)
        joint1 = logp1 - 0.5 * float(p1 @ p1)
        if not math.isfinite(joint1):
            joint1 = -math.inf
    return eps


def start(model, cfg, rng):
    if not model.has_gradient:
        raise RuntimeError(
            "NUTS needs a gradient; use the marginal parameterization for mixtures"
        )
    q = model.initial_u().copy()
    logp, grad = model.logp_and_grad(q)

    eps = _find_reasonable_epsilon(model, q, rng)
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

        q_minus = q_plus = q
        p_minus = p_plus = p0
        g_minus = g_plus = grad
        n_valid = 1
        depth = 0
        keep_going = True
        alpha_sum, n_alpha = 0.0, 0
        divergent = False
        while keep_going:
            direction = 1 if rng.random() < 0.5 else -1
            if direction == -1:
                t = _build_tree(
                    model, q_minus, p_minus, g_minus, log_u, joint0, -1, depth, eps, rng
                )
                q_minus, p_minus, g_minus = t.q_minus, t.p_minus, t.g_minus
            else:
                t = _build_tree(
                    model, q_plus, p_plus, g_plus, log_u, joint0, 1, depth, eps, rng
                )
                q_plus, p_plus, g_plus = t.q_plus, t.p_plus, t.g_plus
            if t.keep_going and t.n_valid > 0 and rng.random() < t.n_valid / n_valid:
                q, logp, grad = t.q_prop, t.logp_prop, t.g_prop
            n_valid += t.n_valid
            alpha_sum += t.alpha_sum
            n_alpha += t.n_alpha
            divergent = divergent or t.divergent
            depth += 1
            dq = q_plus - q_minus
            keep_going = (
                t.keep_going
                and float(dq @ p_minus) >= 0.0
                and float(dq @ p_plus) >= 0.0
            )
            if depth >= cfg.nuts_max_tree_depth:
                if keep_going:
                    n_maxdepth += 1
                keep_going = False
        depth_total += depth
        if it > cfg.n_burn:  # divergences during step-size adaptation are expected
            n_divergent += int(divergent)

        if it <= cfg.n_burn:
            frac = 1.0 / (it + t0)
            h_bar = (1.0 - frac) * h_bar + frac * (
                cfg.nuts_target_accept - alpha_sum / max(n_alpha, 1)
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
            "mean_tree_depth": depth_total / cfg.n_iter,
        }

    return step, draw, stats
