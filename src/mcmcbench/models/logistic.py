"""Logistic regression under a Gaussian or lasso prior.

Likelihood: y_i ~ Bernoulli(sigmoid(x_i'beta)).  No conjugate blocks
exist, so the Gibbs backend advances every coordinate by slice steps.
"""

from __future__ import annotations

import math

import numpy as np

from ..datagen import Dataset, GroundTruth, _draw_beta, _draw_X, _streams, check_design
from ..params import Block, Identity, Log, ParamSpace
from .base import LassoPrior, Model, coordinate_sweep, gaussian_prior, merge_hyper

HYPER_DEFAULTS = {
    "LR-N": {"b02": 10.0},
    "LR-L": {"lambda0": 0.1},
}


def sigmoid(eta):
    """The logistic link 1 / (1 + exp(-eta)): P(y = 1) at eta = x'beta."""
    return 1.0 / (1.0 + np.exp(-eta))


def simulate(params: dict, X: np.ndarray, rng) -> np.ndarray:
    """y ~ Bernoulli(sigmoid(X beta)), one draw per row of X from the stream ``rng``."""
    return (rng.random(X.shape[0]) < sigmoid(X @ params["beta"])).astype(float)


def gen_logistic(n: int, p: int, zero_pattern: int = 0, seed: int = 0) -> Dataset:
    """Binary data: beta_j ~ U(-7, 7), y by ``simulate``."""
    check_design(n, p, zero_pattern=zero_pattern, seed=seed)
    r_beta, _, r_x, r_noise = _streams(seed)
    beta = _draw_beta(r_beta, p, -7.0, 7.0, zero_pattern)
    X = _draw_X(r_x, n, p, "continuous")
    y = simulate({"beta": beta}, X, r_noise)
    return Dataset(y=y, X=X, truth=GroundTruth(beta=beta))


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

    def _loglik(self, eta):
        """Per-observation log-likelihood at eta = X beta."""
        return self.y * eta - np.logaddexp(0.0, eta)

    def log_likelihood_pointwise(self, params):
        return self._loglik(self.X @ params["beta"])

    def log_prior(self, params):
        beta = np.asarray(params["beta"], dtype=float)
        if self.prior_id == "LR-N":
            return float(gaussian_prior(beta, self.hyper["b02"]))
        lam2 = params["lambda2"][0]
        if lam2 <= 0:
            return -math.inf
        lp, log_lambda0, lambda0_lam2 = self.lasso.log_prior_terms(beta, lam2)
        return float(lp + log_lambda0 - lambda0_lam2)

    def logp_and_grad(self, u):
        params, log_jac, pullback = self.space.transform(u)
        beta = params["beta"]
        eta = self.X @ beta
        value = self._log_posterior(log_jac, params, self._loglik(eta).sum())
        grads = {}
        g_beta = self.X.T @ (self.y - sigmoid(eta))
        if self.prior_id == "LR-N":
            grads["beta"] = g_beta - beta / self.hyper["b02"]
        else:
            lam2 = params["lambda2"][0]
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
