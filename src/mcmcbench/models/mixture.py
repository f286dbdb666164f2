"""Finite Gaussian mixture with a fixed number of components H.

Two interchangeable parameterizations of the same posterior:

- ``marginal``: per-observation likelihood sum_h p_h N(y | mu_h, s_h);
  fully continuous, so the gradient (and NUTS) is available
- ``latent``: each observation carries an allocation z_i; all continuous
  blocks then have conjugate full conditionals, which is what the Gibbs
  backend uses

Priors: mu_h | v2 ~ N(0, v2), v2 ~ IG(a0, b0), s_h ~ IG(c0, d0),
weights ~ Dirichlet(1, ..., 1).  The shared hypervariance v2 is the
convergence monitor: it is invariant under component relabeling.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from ..datagen import Dataset
from ..distributions import Categorical, Dirichlet, Gaussian, InverseGamma
from ..params import Block, Identity, Log, ParamSpace, PinnedSoftmax
from .base import ConditionalSpec, Model

HYPER_DEFAULTS = {"a0": 1.0, "b0": 1.0, "c0": 1.0, "d0": 1.0}


def _ig_logpdf(x, a, b):
    if np.any(np.asarray(x) <= 0):
        return -math.inf
    x = np.asarray(x, dtype=float)
    return float(np.sum(a * math.log(b) - gammaln(a) - b / x - (a + 1.0) * np.log(x)))


def _sum_over_obs(a: np.ndarray) -> np.ndarray:
    """Row sums of an (H, n) matrix, added left to right.

    This is the order in which numpy sums the columns of the (n, H)
    transpose; a plain row sum would add pairwise and round differently.
    """
    return np.add.accumulate(a, axis=1)[:, -1]


def _logsumexp_components(a: np.ndarray) -> np.ndarray:
    """Per-observation log-sum-exp over the components of an (H, n) matrix."""
    m = a.max(axis=0)
    return m + np.log(np.exp(a - m).sum(axis=0))


class MixtureModel(Model):
    family = "MM"
    prior_id = "MM"

    def __init__(
        self,
        dataset: Dataset,
        H: int,
        parameterization: str = "marginal",
        hyper: dict | None = None,
    ):
        if parameterization not in ("marginal", "latent"):
            raise ValueError(f"unknown parameterization {parameterization!r}")
        h = dict(HYPER_DEFAULTS)
        if hyper:
            h.update(hyper)
        self.H = int(H)
        self.parameterization = parameterization
        blocks = [
            Block("mu", self.H, Identity()),
            Block("sigma2", self.H, Log()),
            Block("v2", 1, Log()),
            Block("p", self.H - 1, PinnedSoftmax(self.H)),
        ]
        super().__init__(dataset, ParamSpace(blocks), h)
        self.y = dataset.y

    @property
    def is_latent(self):
        return self.parameterization == "latent"

    @property
    def has_gradient(self):
        return not self.is_latent

    # ---- marginal densities ----------------------------------------

    def _component_logpdf(self, params):
        """(H, n) matrix of log N(y_i | mu_h, s_h) and the residuals y_i - mu_h.

        Components run along the first axis so that every elementwise and
        per-observation operation works on contiguous rows of length n.
        """
        mu = params["mu"]
        s = params["sigma2"]
        d = self.y - mu[:, None]
        return -0.5 * (np.log(2.0 * math.pi * s)[:, None] + d * d / s[:, None]), d

    def log_likelihood_pointwise(self, params):
        # marginal likelihood regardless of parameterization; the latent
        # joint is exposed via log_joint_given_z
        comp, _ = self._component_logpdf(params)
        return _logsumexp_components(comp + np.log(params["p"])[:, None])

    def log_joint_given_z(self, params, z: np.ndarray) -> float:
        comp, _ = self._component_logpdf(params)
        idx = np.arange(self.n)
        return float(np.sum(comp[z, idx]) + np.sum(np.log(params["p"])[z]))

    def log_prior(self, params):
        h = self.hyper
        mu = params["mu"]
        v2 = float(np.atleast_1d(params["v2"])[0])
        if v2 <= 0:
            return -math.inf
        lp = float(
            np.sum(-0.5 * math.log(2.0 * math.pi * v2) - mu * mu / (2.0 * v2))
        )
        lp += _ig_logpdf(v2, h["a0"], h["b0"])
        lp += _ig_logpdf(params["sigma2"], h["c0"], h["d0"])
        lp += gammaln(float(self.H))  # Dirichlet(1,...,1) normalizer: (H-1)!
        return lp

    def log_posterior_u(self, u, z: np.ndarray | None = None):
        params = self.space.constrain(u)
        if self.is_latent:
            if z is None:
                raise ValueError("latent parameterization needs z")
            lik = self.log_joint_given_z(params, z)
        else:
            lik = float(np.sum(self.log_likelihood_pointwise(params)))
        return lik + self.log_prior(params) + self.space.log_jac(u)

    # ---- gradient (marginal only) ----------------------------------

    def logp_and_grad(self, u):
        if self.is_latent:
            return super().logp_and_grad(u)  # raises
        params = self.space.constrain(u)
        h = self.hyper
        mu, s, p = params["mu"], params["sigma2"], params["p"]
        v2 = float(np.atleast_1d(params["v2"])[0])
        comp, d = self._component_logpdf(params)
        comp += np.log(p)[:, None]
        mix = _logsumexp_components(comp)
        W = np.exp(comp - mix)  # responsibilities, columns sum to 1
        value = float(np.sum(mix)) + self.log_prior(params) + self.space.log_jac(u)
        g_mu = _sum_over_obs(W * d) / s - mu / v2
        g_s = (
            _sum_over_obs(W * (-0.5 / s[:, None] + d * d / (2.0 * s[:, None] ** 2)))
            - (h["c0"] + 1.0) / s
            + h["d0"] / s**2
        )
        g_v2 = (
            np.sum(-0.5 / v2 + mu * mu / (2.0 * v2**2))
            - (h["a0"] + 1.0) / v2
            + h["b0"] / v2**2
        )
        g_p = _sum_over_obs(W) / p  # Dirichlet(1,..,1) prior is flat
        grads = {"mu": g_mu, "sigma2": g_s, "v2": g_v2, "p": g_p}
        return value, self.space.grad_to_unconstrained(u, grads)

    # ---- sampler hooks ---------------------------------------------

    def initial_params(self):
        qs = np.quantile(self.y, (np.arange(self.H) + 0.5) / self.H)
        return {
            "mu": np.asarray(qs, dtype=float),
            "sigma2": np.ones(self.H),
            "v2": np.array([max(float(np.var(self.y)), 1.0)]),
            "p": np.full(self.H, 1.0 / self.H),
        }

    def initial_z(self, params) -> np.ndarray:
        return np.argmin(np.abs(self.y[:, None] - params["mu"][None, :]), axis=1)

    def resample_latent(self, params, rng) -> np.ndarray:
        comp, _ = self._component_logpdf(params)
        logw = comp + np.log(params["p"])[:, None]
        logw -= logw.max(axis=0)
        w = np.exp(logw)
        w /= w.sum(axis=0)
        cum = np.cumsum(w, axis=0)
        u = rng.random(self.n)
        return (u > cum).sum(axis=0).clip(0, self.H - 1)

    def gibbs_scan(self, state, rng, slice_fn):
        h = self.hyper
        z = self.resample_latent(state, rng)
        state["z"] = z
        mu = state["mu"]
        s = state["sigma2"]
        v2 = float(state["v2"][0])
        counts = np.bincount(z, minlength=self.H).astype(float)
        ysum = np.bincount(z, weights=self.y, minlength=self.H)
        prec = counts / s + 1.0 / v2
        mean = (ysum / s) / prec
        mu = mean + rng.standard_normal(self.H) / np.sqrt(prec)
        state["mu"] = mu
        sq = np.bincount(z, weights=(self.y - mu[z]) ** 2, minlength=self.H)
        a = h["c0"] + counts / 2.0
        b = h["d0"] + sq / 2.0
        state["sigma2"] = 1.0 / rng.gamma(a, 1.0 / b)
        av = h["a0"] + self.H / 2.0
        bv = h["b0"] + float(mu @ mu) / 2.0
        state["v2"] = np.array([1.0 / rng.gamma(av, 1.0 / bv)])
        g = rng.gamma(1.0 + counts, 1.0)
        state["p"] = g / g.sum()

    def full_conditional(self, block, params):
        h = self.hyper
        mu = np.asarray(params["mu"], dtype=float)
        s = np.asarray(params["sigma2"], dtype=float)
        v2 = float(np.atleast_1d(params["v2"])[0])
        if block.startswith("z["):
            i = int(block[2:-1])
            logw = (
                -0.5 * (np.log(2.0 * math.pi * s) + (self.y[i] - mu) ** 2 / s)
                + np.log(params["p"])
            )
            w = np.exp(logw - logw.max())
            return ConditionalSpec.closed_form(Categorical(w / w.sum()))
        z = params.get("z")
        if z is None:
            raise KeyError("conditionals for continuous blocks need z in params")
        counts = np.bincount(z, minlength=self.H).astype(float)
        if block.startswith("mu["):
            k = int(block[3:-1])
            ysum = float(np.sum(self.y[z == k]))
            prec = counts[k] / s[k] + 1.0 / v2
            return ConditionalSpec.closed_form(
                Gaussian((ysum / s[k]) / prec, 1.0 / prec)
            )
        if block.startswith("sigma2["):
            k = int(block[7:-1])
            sq = float(np.sum((self.y[z == k] - mu[k]) ** 2))
            return ConditionalSpec.closed_form(
                InverseGamma(h["c0"] + counts[k] / 2.0, h["d0"] + sq / 2.0)
            )
        if block == "v2":
            return ConditionalSpec.closed_form(
                InverseGamma(h["a0"] + self.H / 2.0, h["b0"] + float(mu @ mu) / 2.0)
            )
        if block == "p":
            return ConditionalSpec.closed_form(Dirichlet(1.0 + counts))
        raise KeyError(f"no conditional for block {block!r}")


def predictive_density(chain, y, H: int | None = None):
    """Posterior predictive density averaged over retained draws.

    ``chain`` needs ``samples`` (N_s x dim) and constrained ``names``
    containing mu[h], sigma2[h] and p[h] columns.
    """
    names = list(chain.names)
    if chain.samples.shape[0] == 0:
        raise ValueError("empty chain")
    if H is None:
        H = sum(1 for nm in names if nm.startswith("mu["))
    cols = {nm: k for k, nm in enumerate(names)}
    mu = chain.samples[:, [cols[f"mu[{h}]"] for h in range(H)]]
    s = chain.samples[:, [cols[f"sigma2[{h}]"] for h in range(H)]]
    w = chain.samples[:, [cols[f"p[{h}]"] for h in range(H)]]
    y = np.atleast_1d(np.asarray(y, dtype=float))
    n_draws = mu.shape[0]
    total = np.zeros(y.size)
    # chunk over draws to bound the (draws, H, n_y) temporary
    step = max(1, int(2e6 / max(1, H * y.size)))
    for lo in range(0, n_draws, step):
        m = mu[lo : lo + step, :, None]
        v = s[lo : lo + step, :, None]
        ww = w[lo : lo + step, :, None]
        d = y[None, None, :] - m
        dens = ww * np.exp(-0.5 * d * d / v) / np.sqrt(2.0 * math.pi * v)
        total += dens.sum(axis=1).sum(axis=0)
    out = total / n_draws
    return float(out[0]) if out.size == 1 else out
