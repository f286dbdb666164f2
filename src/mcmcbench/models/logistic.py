"""Logistic regression under a Gaussian or lasso prior.

Likelihood: y_i ~ Bernoulli(sigmoid(x_i'beta)).  No conjugate blocks
exist, so the Gibbs backend advances every coordinate by slice steps.
"""

from __future__ import annotations

import math

import numpy as np

from ..datagen import Dataset
from ..params import Block, Identity, Log, ParamSpace
from .base import LassoPrior, Model, coordinate_sweep, gaussian_prior, merge_hyper

HYPER_DEFAULTS = {
    "LR-N": {"b02": 10.0},
    "LR-L": {"lambda0": 0.1},
}


def _softplus(e):
    """log(1 + exp(e)), in place in e."""
    return np.logaddexp(0.0, e, e)


class LogisticModel(Model):
    family = "LR"

    def __init__(self, dataset: Dataset, prior_id: str, hyper: dict | None = None):
        if prior_id not in HYPER_DEFAULTS:
            raise ValueError(f"unknown logistic prior {prior_id!r}")
        self.prior_id = prior_id
        h = merge_hyper(HYPER_DEFAULTS[prior_id], hyper)
        p = dataset.X.shape[1]
        blocks = [Block("beta", p, Identity())]
        if prior_id == "LR-L":
            blocks.append(Block("lambda2", 1, Log()))
        super().__init__(dataset, ParamSpace(blocks), h)
        self.X = dataset.X
        self._XT = np.ascontiguousarray(dataset.X.T)  # contiguous columns of X
        self.y = dataset.y
        self._yx = self._XT @ dataset.y  # y @ x_j for every j
        self.p = p
        if prior_id == "LR-L":
            self.lasso = LassoPrior(h["lambda0"])

    def log_likelihood_pointwise(self, params):
        eta = self.X @ params["beta"]
        return self.y * eta - np.logaddexp(0.0, eta)

    def log_prior(self, params):
        beta = np.asarray(params["beta"], dtype=float)
        if self.prior_id == "LR-N":
            return float(gaussian_prior(beta, self.hyper["b02"]))
        lam2 = float(np.atleast_1d(params["lambda2"])[0])
        if lam2 <= 0:
            return -math.inf
        lp, log_lambda0, lambda0_lam2 = self.lasso.log_prior_terms(beta, lam2)
        return float(lp + log_lambda0 - lambda0_lam2)

    def logp_and_grad(self, u):
        params, log_jac, pullback = self.space.transform(u)
        beta = params["beta"]
        eta = self.X @ beta
        prob = 1.0 / (1.0 + np.exp(-eta))
        value = self._log_posterior(log_jac, params, (self.y * eta - np.logaddexp(0.0, eta)).sum())
        grads = {}
        g_beta = self.X.T @ (self.y - prob)
        if self.prior_id == "LR-N":
            grads["beta"] = g_beta - beta / self.hyper["b02"]
        else:
            lam2 = float(np.atleast_1d(params["lambda2"])[0])
            g_sign, grads["lambda2"] = self.lasso.grads(beta, lam2)
            grads["beta"] = g_beta - g_sign
        return value, pullback(grads)

    def initial_params(self):
        out = {"beta": np.zeros(self.p)}
        if self.prior_id == "LR-L":
            out["lambda2"] = np.array([1.0])
        return out

    def _beta_terms(self, state):
        """The beta sweep's ``(term, prior, slopes)`` at ``state`` (see ``coordinate_sweep``).

        The log-likelihood is y @ e minus the softplus terms; y @ e has slope
        y @ x_j in beta[j].
        """
        if self.prior_id == "LR-N":
            b02 = self.hyper["b02"]
            return _softplus, lambda b: b * b / (2.0 * b02), self._yx
        root = math.sqrt(float(state["lambda2"][0]))
        return _softplus, lambda b: abs(b) * root, self._yx

    def gibbs_scan(self, state, rng, slice_fn):
        beta = state["beta"]
        coordinate_sweep(beta, self.X @ beta, self._XT, slice_fn, *self._beta_terms(state))
        if self.prior_id == "LR-L":
            logpdf = self.lasso.lambda2_logpdf(beta)
            state["lambda2"] = np.array([slice_fn(logpdf, float(state["lambda2"][0]), "lambda2")])
