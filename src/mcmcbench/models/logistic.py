"""Logistic regression under a Gaussian or lasso prior.

Likelihood: y_i ~ Bernoulli(sigmoid(x_i'beta)).  No conjugate blocks
exist, so the Gibbs backend advances every coordinate by slice steps.
"""

from __future__ import annotations

import math

import numpy as np

from ..datagen import Dataset
from ..params import Block, Identity, Log, ParamSpace
from .base import ConditionalSpec, Model

HYPER_DEFAULTS = {
    "LR-N": {"b02": 10.0},
    "LR-L": {"lambda0": 0.1},
}


def _log1p_exp(eta: np.ndarray) -> np.ndarray:
    """log(1 + exp(eta)), stable for large |eta|."""
    return np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta)))


class LogisticModel(Model):
    family = "LR"

    def __init__(self, dataset: Dataset, prior_id: str, hyper: dict | None = None):
        if prior_id not in HYPER_DEFAULTS:
            raise ValueError(f"unknown logistic prior {prior_id!r}")
        self.prior_id = prior_id
        h = dict(HYPER_DEFAULTS[prior_id])
        if hyper:
            h.update(hyper)
        p = dataset.X.shape[1]
        blocks = [Block("beta", p, Identity())]
        if prior_id == "LR-L":
            blocks.append(Block("lambda2", 1, Log()))
        super().__init__(dataset, ParamSpace(blocks), h)
        self.X = dataset.X
        self.y = dataset.y
        self.p = p

    def log_likelihood_pointwise(self, params):
        eta = self.X @ params["beta"]
        return self.y * eta - _log1p_exp(eta)

    def log_prior(self, params):
        beta = np.asarray(params["beta"], dtype=float)
        h = self.hyper
        if self.prior_id == "LR-N":
            return float(
                -0.5 * self.p * math.log(2.0 * math.pi * h["b02"])
                - beta @ beta / (2.0 * h["b02"])
            )
        lam2 = float(np.atleast_1d(params["lambda2"])[0])
        if lam2 <= 0:
            return -math.inf
        root = math.sqrt(lam2)
        lp = self.p * (0.5 * math.log(lam2) - math.log(2.0)) - root * np.abs(beta).sum()
        return float(lp + math.log(h["lambda0"]) - h["lambda0"] * lam2)

    def logp_and_grad(self, u):
        params = self.space.constrain(u)
        beta = params["beta"]
        h = self.hyper
        eta = self.X @ beta
        prob = 1.0 / (1.0 + np.exp(-eta))
        value = float(
            np.sum(self.y * eta - _log1p_exp(eta))
            + self.log_prior(params)
            + self.space.log_jac(u)
        )
        grads = {}
        g_beta = self.X.T @ (self.y - prob)
        if self.prior_id == "LR-N":
            grads["beta"] = g_beta - beta / h["b02"]
        else:
            lam2 = float(np.atleast_1d(params["lambda2"])[0])
            root = math.sqrt(lam2)
            grads["beta"] = g_beta - np.sign(beta) * root
            grads["lambda2"] = (
                self.p / (2.0 * lam2)
                - np.abs(beta).sum() / (2.0 * root)
                - h["lambda0"]
            )
        return value, self.space.grad_to_unconstrained(u, grads)

    def initial_params(self):
        out = {"beta": np.zeros(self.p)}
        if self.prior_id == "LR-L":
            out["lambda2"] = np.array([1.0])
        return out

    def _beta_logdens(self, eta, j, bj, root):
        """Log full conditional of beta[j], up to a constant.

        ``eta`` is the linear predictor at beta[j] = bj; ``root`` is
        sqrt(lambda2) under LR-L and unused under LR-N.
        """
        h = self.hyper
        xj = self.X[:, j]

        def logpdf(b):
            e = eta + (b - bj) * xj
            lik = float(np.sum(self.y * e - _log1p_exp(e)))
            if self.prior_id == "LR-N":
                return lik - b * b / (2.0 * h["b02"])
            return lik - abs(b) * root

        return logpdf

    def gibbs_scan(self, state, rng, slice_fn):
        beta = state["beta"]
        eta = self.X @ beta
        if self.prior_id == "LR-L":
            lam2 = float(state["lambda2"][0])
            root = math.sqrt(lam2)
        else:
            root = None
        for j in range(self.p):
            bj = beta[j]
            new = slice_fn(self._beta_logdens(eta, j, bj, root), bj, f"beta[{j}]")
            if new != bj:
                eta += (new - bj) * self.X[:, j]
                beta[j] = new
        if self.prior_id == "LR-L":
            spec = self.full_conditional("lambda2", state)
            state["lambda2"] = np.array([slice_fn(spec.logpdf, lam2, "lambda2")])

    def full_conditional(self, block, params):
        h = self.hyper
        beta = np.asarray(params["beta"], dtype=float)
        if block.startswith("beta["):
            j = int(block[5:-1])
            root = None
            if self.prior_id == "LR-L":
                root = math.sqrt(float(np.atleast_1d(params["lambda2"])[0]))
            return ConditionalSpec.generic(
                self._beta_logdens(self.X @ beta, j, beta[j], root)
            )
        if block == "lambda2" and self.prior_id == "LR-L":
            abs_sum = float(np.abs(beta).sum())

            def logpdf(lam):
                if lam <= 0:
                    return -math.inf
                return (
                    0.5 * self.p * math.log(lam)
                    - math.sqrt(lam) * abs_sum
                    - h["lambda0"] * lam
                )

            return ConditionalSpec.generic(logpdf)
        raise KeyError(f"no conditional for block {block!r} under {self.prior_id}")
