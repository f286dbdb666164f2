"""Gaussian linear regression under four priors.

Priors on (beta, scale):

- ``LM-C``  conjugate: beta | s2 ~ N(0, s2 I), s2 ~ IG(eta0/2, eta0*s02/2)
- ``LM-WI`` weakly informative: beta_j ~ N(0, M^2), sigma ~ HalfCauchy(0, d0)
- ``LM-NI`` non-informative: beta_j ~ N(0, M^2), sigma ~ U(0, sigma0)
- ``LM-L``  lasso: beta_j | l2 ~ DoubleExponential(0, 1/sqrt(l2)),
  l2 ~ Exp(lambda0), s2 ~ IG(nu0/2, nu0*s02/2)

The Cholesky solves come from ``scipy.linalg``, imported in the methods
that call them so that ``import mcmcbench`` does not load scipy.
"""

from __future__ import annotations

import math

import numpy as np

from ..datagen import Dataset
from ..params import Block, Identity, Log, ParamSpace, ScaledLogit
from .base import (
    LassoPrior,
    Model,
    gaussian_loglik,
    gaussian_prior,
    ig_logpdf,
    merge_hyper,
)

HYPER_DEFAULTS = {
    "LM-C": {"sigma02": 1.0, "eta0": 1e-4},
    "LM-WI": {"M": 100.0, "d0": 2.5},
    "LM-NI": {"M": 100.0, "sigma0": 1000.0},
    "LM-L": {"lambda0": 0.1, "nu0": 1e-4, "sigma02": 1.0},
}


class LinearModel(Model):
    family = "LM"

    def __init__(self, dataset: Dataset, prior_id: str, hyper: dict | None = None):
        if prior_id not in HYPER_DEFAULTS:
            raise ValueError(f"unknown linear-model prior {prior_id!r}")
        self.prior_id = prior_id
        h = merge_hyper(HYPER_DEFAULTS[prior_id], hyper)
        p = dataset.X.shape[1]
        blocks = [Block("beta", p, Identity())]
        if prior_id in ("LM-C", "LM-L"):
            blocks.append(Block("sigma2", 1, Log()))
        elif prior_id == "LM-WI":
            blocks.append(Block("sigma", 1, Log()))
        else:  # LM-NI
            blocks.append(Block("sigma", 1, ScaledLogit(h["sigma0"])))
        if prior_id == "LM-L":
            blocks.append(Block("lambda2", 1, Log()))
        super().__init__(dataset, ParamSpace(blocks), h)
        self.X = dataset.X
        self.y = dataset.y
        self.p = p
        self.XtX = self.X.T @ self.X
        self.Xty = self.X.T @ self.y
        if prior_id == "LM-C":
            from scipy.linalg import cho_factor, cho_solve

            # V = (X'X + I)^-1 via its Cholesky; reused by Gibbs
            self._V = cho_solve(cho_factor(self.XtX + np.eye(p), lower=True), np.eye(p))
            self._Lv = np.linalg.cholesky(self._V)
            self._beta_hat = self._V @ self.Xty
        if prior_id == "LM-L":
            self._col_sq = np.einsum("ij,ij->j", self.X, self.X)
            self.lasso = LassoPrior(h["lambda0"])

    # ---- helpers ---------------------------------------------------

    def _sigma2_of(self, params: dict) -> float:
        if "sigma2" in params:
            return float(np.atleast_1d(params["sigma2"])[0])
        return float(np.atleast_1d(params["sigma"])[0]) ** 2

    def _sigma2_prior(self):
        """Inverse-gamma (a, b) of the sigma2 prior under LM-C and LM-L."""
        nu = self.hyper["eta0" if self.prior_id == "LM-C" else "nu0"]
        return nu / 2.0, nu * self.hyper["sigma02"] / 2.0

    def _sigma2_ab(self, beta, r):
        """Inverse-gamma (a, b) of sigma2 | beta, y under LM-C and LM-L; r = y - X beta."""
        h = self.hyper
        if self.prior_id == "LM-C":
            a = (h["eta0"] + self.n + self.p) / 2.0
            return a, (h["eta0"] * h["sigma02"] + r @ r + beta @ beta) / 2.0
        return (h["nu0"] + self.n) / 2.0, (h["nu0"] * h["sigma02"] + r @ r) / 2.0

    def _beta_given_sigma(self, sig):
        """LM-WI/NI: beta | sigma, y ~ N(A^-1 X'y / s2, A^-1), A = X'X / s2 + I / M^2.

        Returns the lower Cholesky factor of A and the mean.
        """
        from scipy.linalg import cho_factor, cho_solve

        s2 = sig**2
        cA = cho_factor(self.XtX / s2 + np.eye(self.p) / self.hyper["M"] ** 2, lower=True)
        return cA, cho_solve(cA, self.Xty / s2)

    def _sigma_logdens(self, beta):
        """LM-WI/NI log full conditional of sigma given beta, up to a constant."""
        h = self.hyper
        r = self.y - self.X @ beta
        rr = float(r @ r)

        def logpdf(sig):
            if sig <= 0:
                return -math.inf
            s2 = sig**2
            out = -self.n * math.log(sig) - rr / (2.0 * s2)
            if self.prior_id == "LM-WI":
                return out - math.log(s2 + h["d0"] ** 2)
            if sig >= h["sigma0"]:
                return -math.inf
            return out

        return logpdf

    def _lasso_coordinate_logdens(self, r, j, bj, s2, root):
        """LM-L log full conditional of beta[j], up to a constant.

        ``r`` is the residual vector at beta[j] = bj; the quadratic is
        expanded around bj so each evaluation is O(1).
        """
        cj = self.X[:, j] @ r
        sq = self._col_sq[j]

        def logpdf(b):
            d = b - bj
            return -(-2.0 * d * cj + d * d * sq) / (2.0 * s2) - abs(b) * root

        return logpdf

    # ---- densities -------------------------------------------------

    def log_likelihood_pointwise(self, params):
        s2 = self._sigma2_of(params)
        return gaussian_loglik(self.y, self.X @ params["beta"], s2)

    def log_prior(self, params):
        beta = np.asarray(params["beta"], dtype=float)
        h = self.hyper
        if self.prior_id == "LM-C":
            s2 = self._sigma2_of(params)
            lp = gaussian_prior(beta, s2)
            return lp + ig_logpdf(s2, *self._sigma2_prior())
        if self.prior_id in ("LM-WI", "LM-NI"):
            sig = float(np.atleast_1d(params["sigma"])[0])
            lp = gaussian_prior(beta, h["M"] ** 2)
            if self.prior_id == "LM-WI":
                if sig <= 0:
                    return -math.inf
                return lp + math.log(2.0 * h["d0"] / math.pi) - math.log(
                    sig**2 + h["d0"] ** 2
                )
            if not 0.0 < sig < h["sigma0"]:
                return -math.inf
            return lp - math.log(h["sigma0"])
        # LM-L
        s2 = self._sigma2_of(params)
        lam2 = float(np.atleast_1d(params["lambda2"])[0])
        if lam2 <= 0:
            return -math.inf
        lp, log_lambda0, lambda0_lam2 = self.lasso.log_prior_terms(beta, lam2)
        lp += log_lambda0 - lambda0_lam2
        lp += ig_logpdf(s2, *self._sigma2_prior())
        return float(lp)

    # ---- gradient --------------------------------------------------

    def logp_and_grad(self, u):
        params, log_jac, pullback = self.space.transform(u)
        beta = params["beta"]
        h = self.hyper
        r = self.y - self.X @ beta
        rr = r @ r
        lik = self.log_likelihood_pointwise(params).sum()
        value = self._log_posterior(log_jac, params, lik)
        grads = {}
        if self.prior_id in ("LM-WI", "LM-NI"):
            sig = float(np.atleast_1d(params["sigma"])[0])
            s2 = sig**2
            grads["beta"] = self.X.T @ r / s2 - beta / h["M"] ** 2
            dlik_ds2 = -self.n / (2.0 * s2) + rr / (2.0 * s2**2)
            g_sig = dlik_ds2 * 2.0 * sig
            if self.prior_id == "LM-WI":
                g_sig += -2.0 * sig / (s2 + h["d0"] ** 2)
            grads["sigma"] = g_sig
            return value, pullback(grads)
        s2 = self._sigma2_of(params)
        if self.prior_id == "LM-C":
            grads["beta"] = (self.X.T @ r - beta) / s2
            # beta | s2 ~ N(0, s2 I) adds p and |beta|^2 to the likelihood's n and |r|^2
            m, q = self.n + self.p, rr + beta @ beta
        else:  # LM-L
            lam2 = float(np.atleast_1d(params["lambda2"])[0])
            g_sign, grads["lambda2"] = self.lasso.grads(beta, lam2)
            grads["beta"] = self.X.T @ r / s2 - g_sign
            m, q = self.n, rr
        a, b = self._sigma2_prior()
        grads["sigma2"] = -m / (2.0 * s2) + q / (2.0 * s2**2) - (a + 1.0) / s2 + b / s2**2
        return value, pullback(grads)

    # ---- sampler hooks ---------------------------------------------

    def initial_params(self):
        out = {"beta": np.zeros(self.p)}
        s2 = max(float(np.var(self.y)), 1e-3)
        if self.prior_id in ("LM-C", "LM-L"):
            out["sigma2"] = np.array([s2])
        else:
            out["sigma"] = np.array([math.sqrt(s2)])
        if self.prior_id == "LM-L":
            out["lambda2"] = np.array([1.0])
        return out

    def gibbs_scan(self, state, rng, slice_fn):
        if self.prior_id == "LM-C":
            s2 = float(state["sigma2"][0])
            z = rng.standard_normal(self.p)
            state["beta"] = self._beta_hat + math.sqrt(s2) * (self._Lv @ z)
            a, b = self._sigma2_ab(state["beta"], self.y - self.X @ state["beta"])
            state["sigma2"] = np.array([1.0 / rng.gamma(a, 1.0 / b)])
            return
        if self.prior_id in ("LM-WI", "LM-NI"):
            from scipy.linalg import solve_triangular

            sig = float(state["sigma"][0])
            cA, mean = self._beta_given_sigma(sig)
            z = rng.standard_normal(self.p)
            state["beta"] = mean + solve_triangular(cA[0], z, lower=True, trans="T")
            logpdf = self._sigma_logdens(state["beta"])
            state["sigma"] = np.array([slice_fn(logpdf, sig, "sigma")])
            return
        # LM-L: coordinate slice on beta, conjugate sigma2, slice on lambda2
        beta = state["beta"]
        s2 = float(state["sigma2"][0])
        lam2 = float(state["lambda2"][0])
        root = math.sqrt(lam2)
        r = self.y - self.X @ beta
        for j in range(self.p):
            bj = beta[j]
            logpdf = self._lasso_coordinate_logdens(r, j, bj, s2, root)
            new = slice_fn(logpdf, bj, f"beta[{j}]")
            if new != bj:
                r -= (new - bj) * self.X[:, j]
                beta[j] = new
        a, b = self._sigma2_ab(beta, r)
        state["sigma2"] = np.array([1.0 / rng.gamma(a, 1.0 / b)])
        logpdf = self.lasso.lambda2_logpdf(beta)
        state["lambda2"] = np.array([slice_fn(logpdf, lam2, "lambda2")])
