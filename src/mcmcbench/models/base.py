"""Common interface for the Bayesian models.

Every model exposes the same surface to the samplers:

- ``log_posterior_u(u)``: unnormalized log posterior on the unconstrained
  scale, transform log-Jacobian included
- ``logp_and_grad(u)``: value plus hand-derived gradient (continuous
  parameterizations only)
- ``log_likelihood_pointwise(params)``: per-observation log-likelihood on
  the constrained scale
- ``log_likelihood_draws(samples)``: the same over retained draws, one row
  per draw, for LPML/WAIC
- ``gibbs_scan(state, rng, slice_fn)``: one systematic scan of block
  updates; conjugate blocks are drawn exactly, the rest take one slice
  step through the injected ``slice_fn``

Latent-allocation models additionally carry a discrete state vector z
handled via ``resample_latent``; their continuous conditional is
``log_posterior_u(u, z)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from ..datagen import Dataset
from ..params import ParamSpace


class UnsupportedOperationError(RuntimeError):
    """Raised when a model is asked for an operation it does not have."""


class Model:
    """Base class; subclasses fill in family-specific math."""

    family: str
    prior_id: str
    is_latent = False
    has_gradient = True

    def __init__(self, dataset: Dataset, space: ParamSpace, hyper: dict):
        self.dataset = dataset
        self.space = space
        self.hyper = dict(hyper)

    @property
    def n(self) -> int:
        return self.dataset.n

    @property
    def dim(self) -> int:
        return self.space.dim

    # ---- densities -------------------------------------------------

    def log_likelihood_pointwise(self, params: dict) -> np.ndarray:
        raise NotImplementedError

    def log_likelihood_draws(self, samples: np.ndarray) -> np.ndarray:
        """(N_s, n) matrix of ``log_likelihood_pointwise`` over constrained draws."""
        out = np.empty((samples.shape[0], self.n))
        for j, row in enumerate(samples):
            out[j] = self.log_likelihood_pointwise(self.space.unflatten_constrained(row))
        return out

    def log_prior(self, params: dict) -> float:
        raise NotImplementedError

    def log_posterior_u(self, u: np.ndarray) -> float:
        params, log_jac, _ = self.space.transform(u)
        lik = float(self.log_likelihood_pointwise(params).sum())
        return self._log_posterior(log_jac, params, lik)

    def _log_posterior(self, log_jac: float, params: dict, lik: float) -> float:
        """Log-likelihood ``lik`` plus log prior plus transform log-Jacobian."""
        return float(lik + self.log_prior(params) + log_jac)

    def logp_and_grad(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        raise UnsupportedOperationError(
            f"{self.prior_id} ({'latent' if self.is_latent else 'marginal'}) "
            "has no gradient"
        )

    # ---- sampler hooks ---------------------------------------------

    def initial_params(self) -> dict:
        raise NotImplementedError

    def initial_u(self) -> np.ndarray:
        return self.space.unconstrain(self.initial_params())

    def gibbs_scan(self, state: dict, rng: np.random.Generator, slice_fn) -> None:
        raise NotImplementedError


def merge_hyper(defaults: dict, hyper: dict | None) -> dict:
    """The hyperparameters ``defaults`` with the overrides in ``hyper``.

    Raises ``ValueError`` on an override that names no default, so that a
    misspelt key fails instead of leaving the default in place.
    """
    hyper = hyper or {}
    unknown = sorted(set(hyper) - set(defaults))
    if unknown:
        raise ValueError(
            f"unknown hyperparameters {unknown}; expected some of {sorted(defaults)}"
        )
    return {**defaults, **hyper}


# Integer shapes a whose log((a-1)!) equals scipy.special.gammaln(a) bit for bit
# (checked with scipy 1.17.1; a = 14 to 17 differ in the last bit)
EXACT_LGAMMA_SHAPES = range(1, 14)


@lru_cache(maxsize=None)
def _ig_norm(a: float, b: float) -> float:
    """Normalizing term a log b - log Gamma(a) of InverseGamma(a, b)."""
    # math.lgamma differs from gammaln in the last bit for most a, which would
    # move the draws; scipy is imported here, off the import path, and only for
    # a shape the exact integer cannot give
    if a in EXACT_LGAMMA_SHAPES:
        return a * math.log(b) - math.log(math.factorial(int(a) - 1))
    from scipy.special import gammaln

    return a * math.log(b) - gammaln(a)


def ig_log_terms(x, log_x, a: float, b: float):
    """log InverseGamma(x | a, b) at a positive x given its log, entry by entry."""
    return _ig_norm(a, b) - b / x - (a + 1.0) * log_x


def ig_logpdf(x: float, a: float, b: float) -> float:
    """log InverseGamma(x | a, b) at a scalar x; -inf unless x is positive."""
    if x <= 0:
        return -math.inf
    return float(ig_log_terms(x, math.log(x), a, b))


def coordinate_logdens(eta, xj, bj, term, prior, slope, buf, sum_bj=None):
    """Log density of beta[j] given the rest, computing its O(n) sum once per b.

    ``eta`` is the linear predictor at beta[j] = bj.  At b it shifts to
    e = eta + (b - bj) * xj in the scratch array ``buf``; the density is
    minus the sum of ``term(e)``, the log-likelihood terms nonlinear in b
    (computed in place in e), minus ``prior(b)``, plus (b - bj) * ``slope``,
    the log-likelihood part linear in b.  The memo holds the nonlinear sum
    alone.  Returns the density and its memo, a dict from b to that sum
    seeded with ``{bj: sum_bj}`` when the caller already knows it.
    """
    seen = {} if sum_bj is None else {bj: sum_bj}

    def logpdf(b):
        v = seen.get(b)
        if v is None:
            # outputs passed positionally: keywords cost more
            np.add(eta, np.multiply(xj, b - bj, buf), buf)
            v = seen[b] = -float(np.add.reduce(term(buf)))
        return v - (prior(b) - (b - bj) * slope)

    return logpdf, seen


def coordinate_sweep(beta, eta, XT, slice_fn, term, prior, slopes) -> None:
    """One slice step on each beta[j] in turn, updating ``beta`` and ``eta = X @ beta`` in place.

    ``XT`` holds X's columns contiguously; ``term``, ``prior`` and
    ``slopes[j]`` make coordinate j's density (see ``coordinate_logdens``).
    The sum at the value a step accepts is handed on as the next
    coordinate's sum at its start.  That is exact: eta moves by the same
    (new - bj) * x_j that the shifted predictor added.
    """
    buf = np.empty_like(eta)
    lik = None
    for j in range(beta.size):
        bj, xj = beta[j], XT[j]
        logpdf, seen = coordinate_logdens(eta, xj, bj, term, prior, slopes[j], buf, lik)
        new = slice_fn(logpdf, bj, f"beta[{j}]")
        lik = seen.get(new)
        if new != bj:
            eta += (new - bj) * xj
            beta[j] = new


def gaussian_prior(beta: np.ndarray, var: float) -> float:
    """log N(beta | 0, var I), the Gaussian prior on regression coefficients.

    At var = 0, where ``math.log`` raises, the value is numpy's nan.
    """
    try:
        log_norm = math.log(2.0 * math.pi * var)
    except ValueError:
        log_norm = np.log(2.0 * math.pi * var)
    return -0.5 * beta.size * log_norm - beta @ beta / (2.0 * var)


@dataclass
class LassoPrior:
    """Bayesian lasso: beta_j | l2 ~ DoubleExponential(0, 1/sqrt(l2)), l2 ~ Exp(lambda0)."""

    lambda0: float

    def log_prior_terms(self, beta: np.ndarray, lam2: float) -> tuple[float, float, float]:
        """Terms (beta | l2, log lambda0, lambda0 * l2) of the log prior at l2 > 0.

        Each model adds them in its own order, which fixes its rounding.
        """
        root = math.sqrt(lam2)
        lp = beta.size * (0.5 * math.log(lam2) - math.log(2.0)) - root * np.abs(beta).sum()
        return lp, math.log(self.lambda0), self.lambda0 * lam2

    def grads(self, beta: np.ndarray, lam2: float) -> tuple[np.ndarray, float]:
        """Minus the beta-gradient of the log prior, and its l2-derivative."""
        root = math.sqrt(lam2)
        g_lam2 = beta.size / (2.0 * lam2) - np.abs(beta).sum() / (2.0 * root) - self.lambda0
        return np.sign(beta) * root, g_lam2

    def lambda2_logpdf(self, beta: np.ndarray) -> Callable[[float], float]:
        """Full conditional of l2 given beta, up to a constant."""
        p = beta.size
        abs_sum = float(np.abs(beta).sum())

        def logpdf(lam):
            if lam <= 0:
                return -math.inf
            return 0.5 * p * math.log(lam) - math.sqrt(lam) * abs_sum - self.lambda0 * lam

        return logpdf
