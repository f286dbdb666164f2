"""Weibull accelerated failure time model with right censoring.

log T_i = x_i'beta + sigma * eps_i with Gumbel-type errors whose median
is zero, i.e. T_i ~ Wei(1/sigma, log(2) * exp(-x_i'beta / sigma)).
Censored observations (delta_i = 0) contribute the log survival
-lam_i * y_i^(1/sigma); uncensored ones the log density.

Priors:

- ``AFT-NH``: beta_j ~ N(0, b02), sigma ~ Exp(lambda0)
- ``AFT-NI``: beta_j ~ N(0, M^2), sigma ~ U(0, sigma0)
"""

from __future__ import annotations

import math

import numpy as np

from ..datagen import Dataset
from ..params import Block, Identity, Log, ParamSpace, ScaledLogit
from .base import Model, coordinate_sweep, gaussian_prior, merge_hyper

HYPER_DEFAULTS = {
    "AFT-NH": {"b02": 10.0, "lambda0": 1.0},
    "AFT-NI": {"M": 100.0, "sigma0": 1000.0},
}

LOG2 = math.log(2.0)
LOG_LOG2 = math.log(LOG2)


def _cum_hazard(logy, eta, sigma, out=None):
    """Cumulative hazard lam_i * y_i^(1/sigma) = log 2 * exp((log y_i - eta_i) / sigma).

    The exponent is capped at 600 so that the hazard stays finite.  With
    ``out`` the hazard is computed in that array, with the same rounding.
    """
    out = np.subtract(logy, eta, out)
    np.divide(out, sigma, out)
    np.minimum(out, 600.0, out=out)
    return np.multiply(np.exp(out, out), LOG2, out)


class AFTModel(Model):
    family = "AFT"

    def __init__(self, dataset: Dataset, prior_id: str, hyper: dict | None = None):
        if prior_id not in HYPER_DEFAULTS:
            raise ValueError(f"unknown AFT prior {prior_id!r}")
        if dataset.delta is None:
            raise ValueError("AFT model needs censoring indicators")
        self.prior_id = prior_id
        h = merge_hyper(HYPER_DEFAULTS[prior_id], hyper)
        p = dataset.X.shape[1]
        blocks = [Block("beta", p, Identity())]
        if prior_id == "AFT-NH":
            blocks.append(Block("sigma", 1, Log()))
        else:
            blocks.append(Block("sigma", 1, ScaledLogit(h["sigma0"])))
        super().__init__(dataset, ParamSpace(blocks), h)
        self.X = dataset.X
        self._XT = np.ascontiguousarray(dataset.X.T)  # contiguous columns of X
        self.y = dataset.y
        self.logy = np.log(dataset.y)
        self.delta = dataset.delta.astype(float)
        self.p = p

    def _beta_var(self):
        return self.hyper["b02"] if self.prior_id == "AFT-NH" else self.hyper["M"] ** 2

    def log_likelihood_pointwise(self, params):
        sigma = float(np.atleast_1d(params["sigma"])[0])
        if sigma <= 0.0 or not math.isfinite(sigma):
            return np.full(self.y.size, -math.inf)
        eta = self.X @ params["beta"]
        return self._loglik(eta, sigma, _cum_hazard(self.logy, eta, sigma))

    def _loglik(self, eta, sigma, A):
        """Per-observation log-likelihood given eta = X beta and the cumulative hazard A."""
        dens = (
            -math.log(sigma)
            + LOG_LOG2
            - eta / sigma
            + (1.0 / sigma - 1.0) * self.logy
            - A
        )
        surv = -A
        return self.delta * dens + (1.0 - self.delta) * surv

    def log_prior(self, params):
        beta = np.asarray(params["beta"], dtype=float)
        sigma = float(np.atleast_1d(params["sigma"])[0])
        h = self.hyper
        lp = gaussian_prior(beta, self._beta_var())
        if sigma <= 0:
            return -math.inf
        if self.prior_id == "AFT-NH":
            return float(lp + math.log(h["lambda0"]) - h["lambda0"] * sigma)
        if sigma >= h["sigma0"]:
            return -math.inf
        return float(lp - math.log(h["sigma0"]))

    def logp_and_grad(self, u):
        params, log_jac, pullback = self.space.transform(u)
        beta = params["beta"]
        sigma = float(np.atleast_1d(params["sigma"])[0])
        h = self.hyper
        if sigma <= 0.0 or not math.isfinite(sigma):
            return -math.inf, np.zeros(self.dim)
        eta = self.X @ beta
        A = _cum_hazard(self.logy, eta, sigma)
        value = self._log_posterior(log_jac, params, self._loglik(eta, sigma, A).sum())
        g_beta = self.X.T @ ((A - self.delta) / sigma) - beta / self._beta_var()
        w = (self.logy - eta) / sigma**2
        g_sigma = float((A * w - self.delta * (1.0 / sigma + w)).sum())
        if self.prior_id == "AFT-NH":
            g_sigma -= h["lambda0"]
        grads = {"beta": g_beta, "sigma": g_sigma}
        return value, pullback(grads)

    def initial_params(self):
        return {"beta": np.zeros(self.p), "sigma": np.array([1.0])}

    def _beta_terms(self, logy, delta, sigma):
        """The beta sweep's ``(term, prior, slopes)`` (see ``coordinate_sweep``).

        The terms are the cumulative hazards.  ``logy`` and the event
        indicators ``delta`` are the observed data, or the completed data of
        the Gibbs scan (every time observed).  The event term -delta @ e / sigma
        has slope -(delta @ x_j) / sigma in beta[j].
        """
        var = self._beta_var()
        return (
            lambda e: _cum_hazard(logy, e, sigma, e),
            lambda b: b * b / (2.0 * var),
            [-float(delta @ xj) / sigma for xj in self._XT],
        )

    def _sigma_logdens(self, logy, delta, eta):
        """Log density of sigma given beta, up to a constant; data as for beta[j].

        The event term delta @ (logy - eta) / s takes one dot product, done
        here; only the cumulative hazard sum stays O(n), computed in a
        scratch buffer.
        """
        h = self.hyper
        n_events = float(delta.sum())
        event_resid = float(delta @ (logy - eta))
        buf = np.empty_like(eta)

        def logpdf(s):
            if s <= 0:
                return -math.inf
            if self.prior_id == "AFT-NI" and s >= h["sigma0"]:
                return -math.inf
            lik = event_resid / s - float(np.add.reduce(_cum_hazard(logy, eta, s, buf)))
            lik -= n_events * math.log(s)
            if self.prior_id == "AFT-NH":
                lik -= h["lambda0"] * s
            return lik

        return logpdf

    def gibbs_scan(self, state, rng, slice_fn):
        beta = state["beta"]
        sigma = float(state["sigma"][0])
        n = self.y.size
        eta = self.X @ beta
        # Treat censored times as latent: draw log T_i from the Weibull tail
        # beyond y_i (A_T = A_y + Exp(1) in cumulative-hazard coordinates),
        # then update beta_j and sigma against the complete-data likelihood.
        cen = self.delta == 0.0
        A_t = _cum_hazard(self.logy, eta, sigma) + rng.exponential(1.0, size=n)
        logy = np.where(cen, eta + sigma * np.log(A_t / LOG2), self.logy)
        complete = np.ones(n)
        coordinate_sweep(beta, eta, self._XT, slice_fn, *self._beta_terms(logy, complete, sigma))
        logpdf = self._sigma_logdens(logy, complete, eta)
        state["sigma"] = np.array([slice_fn(logpdf, sigma, "sigma")])
