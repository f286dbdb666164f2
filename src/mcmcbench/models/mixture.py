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

from ..datagen import Dataset
from ..params import Block, Identity, Log, ParamSpace, PinnedSoftmax, sum_in_order
from .base import Model, ig_log_terms, merge_hyper

HYPER_DEFAULTS = {"a0": 1.0, "b0": 1.0, "c0": 1.0, "d0": 1.0}
# Draws per evaluation in ``log_likelihood_draws``: 32 draws of H=4, n=1000
# make 1 MB temporaries.
DRAW_BLOCK = 32


def _gaussian_logpdf(dd, s, out=None):
    """log N(y | mu, s) from the squared residuals dd = (y - mu)^2.

    ``s`` holds one variance per row of ``dd``; the result goes to ``out``.
    """
    comp = np.divide(dd, s[..., None], out=out)
    comp += np.log(2.0 * math.pi * s)[..., None]
    comp *= -0.5
    return comp


def _logsumexp_components(a: np.ndarray):
    """Per-observation log-sum-exp over the components of an (H, n) matrix.

    Works in place: ``a`` is left holding exp(a - max), and its column sums
    are returned with the log-sum-exp.
    """
    m = a.max(axis=0)
    a -= m
    tot = np.exp(a, a).sum(axis=0)
    return m + np.log(tot), tot


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
        h = merge_hyper(HYPER_DEFAULTS, hyper)
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
        # Dirichlet(1,...,1) density (H-1)!; the log of the exact integer matches
        # scipy.special.gammaln(H) bit for bit, math.lgamma(H) does not
        self._log_dirichlet_norm = math.log(math.factorial(self.H - 1))
        # logp_and_grad's (H, n) work arrays: residuals, their squares, components
        if self.has_gradient:
            self._grad_work = tuple(np.empty((self.H, self.n)) for _ in range(3))

    @property
    def is_latent(self):
        return self.parameterization == "latent"

    @property
    def has_gradient(self):
        return not self.is_latent

    # ---- marginal densities ----------------------------------------

    def _component_logpdf(self, params):
        """(H, n) matrix of log N(y_i | mu_h, s_h).

        Components run along the first axis so that every elementwise and
        per-observation operation works on contiguous rows of length n.
        With k draws, given as (H, k) parameter blocks, it is (H, k, n).
        The residuals are squared in place, so no other full-size array is
        made.
        """
        d = self.y - params["mu"][..., None]
        return _gaussian_logpdf(np.multiply(d, d, out=d), params["sigma2"], out=d)

    def log_likelihood_pointwise(self, params):
        # marginal likelihood regardless of parameterization; the latent
        # joint is exposed via log_joint_given_z
        comp = self._component_logpdf(params)
        comp += np.log(params["p"])[..., None]
        return _logsumexp_components(comp)[0]

    def log_likelihood_draws(self, samples):
        """``log_likelihood_pointwise`` on blocks of ``DRAW_BLOCK`` draws at a time.

        A block's parameters are (H, k) arrays and the result is (k, n).  The
        reductions run over the components, so each row is computed by the
        same operations in the same order as for one draw, and is bit-identical
        to it.
        """
        out = np.empty((samples.shape[0], self.n))
        for lo in range(0, samples.shape[0], DRAW_BLOCK):
            cols = np.ascontiguousarray(samples[lo : lo + DRAW_BLOCK].T)
            params = self.space.unflatten_constrained(cols)
            out[lo : lo + DRAW_BLOCK] = self.log_likelihood_pointwise(params)
        return out

    def log_joint_given_z(self, params, z: np.ndarray) -> float:
        comp = self._component_logpdf(params)
        idx = np.arange(self.n)
        return float(comp[z, idx].sum() + np.log(params["p"])[z].sum())

    def log_prior(self, params):
        """Log prior density at ``params``, whose blocks are float arrays.

        Computed on Python floats, with numpy only for the inverse-gamma
        logs; see ``params`` for why that keeps the bits of the array form.
        """
        h = self.hyper
        v2 = float(params["v2"][0])
        if v2 <= 0:
            return -math.inf
        s = params["sigma2"].tolist()
        # inverse-gamma log densities are -inf unless every entry is positive
        s_ok = not any(sh <= 0 for sh in s)
        logs = np.log([v2, *s] if s_ok else [v2]).tolist()
        c = -0.5 * math.log(2.0 * math.pi * v2)
        lp = sum_in_order([c - m * m / (2.0 * v2) for m in params["mu"].tolist()])
        lp += ig_log_terms(v2, logs[0], h["a0"], h["b0"])
        if s_ok:
            c0, d0 = h["c0"], h["d0"]
            lp += sum_in_order([ig_log_terms(sh, lh, c0, d0) for sh, lh in zip(s, logs[1:])])
        else:
            lp += -math.inf
        lp += self._log_dirichlet_norm
        return lp

    def log_posterior_u(self, u, z: np.ndarray | None = None):
        params, log_jac, _ = self.space.transform(u)
        if self.is_latent:
            if z is None:
                raise ValueError("latent parameterization needs z")
            lik = self.log_joint_given_z(params, z)
        else:
            lik = float(self.log_likelihood_pointwise(params).sum())
        return self._log_posterior(log_jac, params, lik)

    # ---- gradient (marginal only) ----------------------------------

    def logp_and_grad(self, u):
        """Log posterior at ``u`` and its gradient.

        The value is computed by the same operations as ``log_posterior_u``
        and equals it exactly.  The gradient's row sums over the observations
        are taken by ``sum`` and ``einsum``, whose order of addition numpy
        chooses, so it is not bit-stable across numpy builds or CPUs.  Against
        a reference built from exp(comp - logsumexp) responsibilities and
        ``math.fsum`` row sums, it agreed within 1.2e-15 of the gradient's
        max-norm for sigma2 in [1e-3, 10], |mu| <= 8 and weights down to 1e-6
        (n=1000, H=2 and 4; the test allows 1e-12).  The (H, n) work is done
        in three arrays the model owns, so a model serves one call at a time.
        """
        if self.is_latent:
            return super().logp_and_grad(u)  # raises
        params, log_jac, pullback = self.space.transform(u)
        mu, s, p = params["mu"], params["sigma2"], params["p"]
        v2 = float(params["v2"][0])
        d, dd, comp = self._grad_work
        np.subtract(self.y, mu[:, None], d)
        np.multiply(d, d, dd)
        _gaussian_logpdf(dd, s, comp)
        comp += np.log(p)[:, None]
        mix, tot = _logsumexp_components(comp)
        value = self._log_posterior(log_jac, params, float(mix.sum()))
        W = np.divide(comp, tot, out=comp)  # responsibilities, columns sum to 1
        S0 = W.sum(axis=1)
        S1 = np.einsum("hn,hn->h", W, d)
        S2 = np.einsum("hn,hn->h", W, dd)
        try:
            grads = self._block_grads(
                mu.tolist(), s.tolist(), v2, p.tolist(), S0.tolist(), S1.tolist(), S2.tolist()
            )
        except (ZeroDivisionError, OverflowError):
            # a zero variance or weight, or v2**2 past the largest float: numpy
            # scalars give the inf or nan of numpy arithmetic, and the same
            # bits as floats elsewhere
            grads = self._block_grads(mu, s, np.float64(v2), p, S0, S1, S2)
        return value, pullback(grads)

    def _block_grads(self, mu, s, v2, p, S0, S1, S2):
        """Per-block gradient of the log posterior on the constrained scale.

        ``S0``, ``S1`` and ``S2`` are the per-component sums over the
        observations of the responsibilities, of them times the residuals and
        of them times the squared residuals.  The arguments are sequences of
        H floats and ``v2`` a float.  The arithmetic is that of the (H,)
        array form, term by term: ``s**2`` on an array is ``s * s``, while
        ``v2**2`` on a float is the libm power.
        """
        h = self.hyper
        c1, d0 = h["c0"] + 1.0, h["d0"]
        g_mu = [a / sh - m / v2 for a, sh, m in zip(S1, s, mu)]
        g_s = [
            b / (2.0 * (sh * sh)) - a / (2.0 * sh) - c1 / sh + d0 / (sh * sh)
            for a, b, sh in zip(S0, S2, s)
        ]
        g_v2 = (
            sum_in_order([-0.5 / v2 + m * m / (2.0 * v2**2) for m in mu])
            - (h["a0"] + 1.0) / v2
            + h["b0"] / v2**2
        )
        g_p = [a / ph for a, ph in zip(S0, p)]  # Dirichlet(1,..,1) prior is flat
        return {"mu": g_mu, "sigma2": g_s, "v2": g_v2, "p": g_p}

    # ---- sampler hooks ---------------------------------------------

    def initial_params(self):
        qs = np.quantile(self.y, (np.arange(self.H) + 0.5) / self.H)
        return {
            "mu": np.asarray(qs, dtype=float),
            "sigma2": np.ones(self.H),
            "v2": np.array([max(float(np.var(self.y)), 1.0)]),
            "p": np.full(self.H, 1.0 / self.H),
        }

    def _allocation_probs(self, params) -> np.ndarray:
        """(H, n) matrix of P(z_i = h | y_i, params); each column sums to 1."""
        w = self._component_logpdf(params)
        w += np.log(params["p"])[:, None]
        w /= _logsumexp_components(w)[1]
        return w

    def resample_latent(self, params, rng) -> np.ndarray:
        # z_i = number of cumulative probabilities below u_i.  Only the first
        # H-1 cumulative rows are needed: cum is nondecreasing, so the last
        # row could only push the count to H, past the last component.
        cum = self._allocation_probs(params)
        for h in range(1, self.H - 1):
            np.add(cum[h - 1], cum[h], out=cum[h])
        u = rng.random(self.n)
        return (u > cum[: self.H - 1]).sum(axis=0)

    # conjugate blocks given z: gibbs_scan draws from these

    def _mu_given(self, z, counts, s, v2):
        """(mean, precision) of mu_h | z, sigma2, v2, y, per component."""
        ysum = np.bincount(z, weights=self.y, minlength=self.H)
        prec = counts / s + 1.0 / v2
        return (ysum / s) / prec, prec

    def _sigma2_given(self, z, counts, mu):
        """Inverse-gamma (a, b) of s_h | z, mu, y, per component."""
        h = self.hyper
        sq = np.bincount(z, weights=(self.y - mu[z]) ** 2, minlength=self.H)
        return h["c0"] + counts / 2.0, h["d0"] + sq / 2.0

    def _v2_given(self, mu):
        """Inverse-gamma (a, b) of v2 | mu."""
        h = self.hyper
        return h["a0"] + self.H / 2.0, h["b0"] + float(mu @ mu) / 2.0

    def _p_given(self, counts):
        """Dirichlet concentration of the weights given z."""
        return 1.0 + counts

    def gibbs_scan(self, state, rng, slice_fn):
        z = self.resample_latent(state, rng)
        state["z"] = z
        counts = np.bincount(z, minlength=self.H).astype(float)
        mean, prec = self._mu_given(z, counts, state["sigma2"], float(state["v2"][0]))
        mu = mean + rng.standard_normal(self.H) / np.sqrt(prec)
        state["mu"] = mu
        a, b = self._sigma2_given(z, counts, mu)
        state["sigma2"] = 1.0 / rng.gamma(a, 1.0 / b)
        av, bv = self._v2_given(mu)
        state["v2"] = np.array([1.0 / rng.gamma(av, 1.0 / bv)])
        g = rng.gamma(self._p_given(counts), 1.0)
        state["p"] = g / g.sum()


def predictive_density(chain, y, H: int):
    """Posterior predictive density averaged over retained draws.

    ``chain`` needs ``samples`` (N_s x dim) and constrained ``names``
    containing mu[h], sigma2[h] and p[h] columns for h < ``H``.

    Each draw x component Gaussian is written as one quadratic form in y,

        log(w N(y | mu, s)) = [-1/(2s), mu/s, -mu^2/(2s) + log w - log(2 pi s)/2] @ [y^2, y, 1],

    so a chunk of draw x component rows on the grid costs one matrix
    product, one in-place ``exp`` and one column sum.  The three terms
    cancel near the mode: each component's density carries a relative
    rounding error of about eps (|y| + |mu|)^2 / (2 s), with eps = 2.2e-16.
    That is below 2e-14 on the chains of the simulated mixtures, and below
    5.5e-11 for s >= 1e-3 and |mu| <= 8, |y| <= 14, where 5.6e-12 was
    measured against the direct per-draw sum.
    """
    if chain.samples.shape[0] == 0:
        raise ValueError("empty chain")
    cols = {nm: k for k, nm in enumerate(chain.names)}
    mu = chain.samples[:, [cols[f"mu[{h}]"] for h in range(H)]].ravel()
    s = chain.samples[:, [cols[f"sigma2[{h}]"] for h in range(H)]].ravel()
    w = chain.samples[:, [cols[f"p[{h}]"] for h in range(H)]].ravel()
    # a component of weight zero adds nothing, and its log weight of -inf
    # would make the matrix product invalid
    live = w > 0
    mu, s, w = mu[live], s[live], w[live]
    y = np.atleast_1d(np.asarray(y, dtype=float))
    coef = np.empty((mu.size, 3))
    coef[:, 0] = -0.5 / s
    coef[:, 1] = mu / s
    coef[:, 2] = -0.5 * mu * mu / s + np.log(w) - 0.5 * np.log(2.0 * math.pi * s)
    powers = np.vstack([y * y, y, np.ones_like(y)])
    total = np.zeros(y.size)
    # about 1 MB of rows x grid per chunk, so it stays in cache
    step = max(1, (1 << 17) // y.size)
    for lo in range(0, mu.size, step):
        e = coef[lo : lo + step] @ powers
        total += np.exp(e, out=e).sum(axis=0)
    out = total / chain.samples.shape[0]
    return float(out[0]) if out.size == 1 else out
