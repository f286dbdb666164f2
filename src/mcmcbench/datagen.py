"""Synthetic dataset generation with recorded ground truth.

A single base seed derives independent sub-streams for the regression
coefficients, the noise variance, the covariates and the observation
noise, so sweeping n keeps beta_true fixed.

Regression coefficients are drawn U(-7, 7) for linear/logistic models
and U(-1, 1) for the survival model; the noise variance is U(2, 10).
Covariates are iid standard normal with the first column pinned to 1
(intercept); binary covariate schedules are defined for p in {4, 16, 50}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Dataset",
    "GroundTruth",
    "gen_linear",
    "gen_logistic",
    "gen_mixture",
    "gen_aft",
    "check_design",
]

LOG2 = math.log(2.0)

# Bernoulli success probabilities for binary covariate columns (excluding
# the intercept), keyed by p.
BINARY_SCHEDULES = {
    4: [0.1, 0.5, 0.8],
    16: [0.1, 0.2, 0.3, 0.4, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.6, 0.7, 0.8, 0.9],
}


class ConfigurationError(ValueError):
    pass


@dataclass
class GroundTruth:
    beta: np.ndarray | None = None
    sigma2: float | None = None
    mixture: dict | None = None  # keys: weights, means, sds


@dataclass
class Dataset:
    y: np.ndarray
    X: np.ndarray | None = None
    delta: np.ndarray | None = None
    truth: GroundTruth = field(default_factory=GroundTruth)

    @property
    def n(self) -> int:
        return self.y.shape[0]


def check_design(
    n: int,
    p: int = 1,
    covariates: str = "continuous",
    zero_pattern: int = 0,
    H: int | None = None,
    k: float | None = None,
    seed: int = 0,
) -> None:
    """Raise ``ConfigurationError`` unless the ``gen_*`` functions can draw this design.

    Takes the arguments of any ``gen_*`` function; ``H`` and ``k`` are
    checked only when given.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    if p < 1:
        raise ConfigurationError(f"p must be >= 1, got {p}")
    if not 0 <= zero_pattern < p:
        raise ConfigurationError(f"zero_pattern must be in [0, p={p}), got {zero_pattern}")
    if covariates not in ("continuous", "binary"):
        raise ConfigurationError(f"unknown covariate kind {covariates!r}")
    if covariates == "binary" and p != 50 and p not in BINARY_SCHEDULES:
        raise ConfigurationError(f"binary covariates not defined for p={p}")
    if H is not None and H not in (2, 4):
        raise ConfigurationError(f"H must be 2 or 4, got {H}")
    if k is not None and not 0.0 < k < 1.0:
        raise ConfigurationError(f"censoring fraction k must be in (0, 1), got {k}")


def _streams(seed: int, n_streams: int = 4):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n_streams)]


def _draw_beta(rng, p: int, lo: float, hi: float, zero_pattern: int) -> np.ndarray:
    beta = rng.uniform(lo, hi, size=p)
    if zero_pattern:
        # zero the trailing non-intercept coefficients
        beta[p - zero_pattern :] = 0.0
    return beta


def _draw_X(rng, n: int, p: int, covariates: str) -> np.ndarray:
    X = np.empty((n, p))
    X[:, 0] = 1.0
    if covariates == "continuous":
        X[:, 1:] = rng.standard_normal((n, p - 1))
    else:
        if p == 50:
            probs = rng.uniform(0.05, 0.95, size=p - 1)
        else:
            probs = np.asarray(BINARY_SCHEDULES[p])
        X[:, 1:] = (rng.random((n, p - 1)) < probs).astype(float)
    return X


def gen_linear(
    n: int,
    p: int,
    covariates: str = "continuous",
    zero_pattern: int = 0,
    seed: int = 0,
) -> Dataset:
    """Gaussian linear regression data y ~ N(x'beta, sigma2)."""
    check_design(n, p, covariates, zero_pattern, seed=seed)
    r_beta, r_sig, r_x, r_noise = _streams(seed)
    beta = _draw_beta(r_beta, p, -7.0, 7.0, zero_pattern)
    sigma2 = r_sig.uniform(2.0, 10.0)
    X = _draw_X(r_x, n, p, covariates)
    y = X @ beta + math.sqrt(sigma2) * r_noise.standard_normal(n)
    return Dataset(y=y, X=X, truth=GroundTruth(beta=beta, sigma2=sigma2))


def gen_logistic(n: int, p: int, zero_pattern: int = 0, seed: int = 0) -> Dataset:
    """Binary data y ~ Bernoulli(sigmoid(x'beta))."""
    check_design(n, p, zero_pattern=zero_pattern, seed=seed)
    r_beta, _, r_x, r_noise = _streams(seed)
    beta = _draw_beta(r_beta, p, -7.0, 7.0, zero_pattern)
    X = _draw_X(r_x, n, p, "continuous")
    prob = 1.0 / (1.0 + np.exp(-(X @ beta)))
    y = (r_noise.random(n) < prob).astype(float)
    return Dataset(y=y, X=X, truth=GroundTruth(beta=beta))


def gen_mixture(n: int, H: int, seed: int = 0) -> Dataset:
    """Equal-weight univariate Gaussian mixture data, unit component sd."""
    check_design(n, H=H, seed=seed)
    if H == 2:
        r_mu, _, _, r_noise = _streams(seed)
        mu = np.array([r_mu.uniform(-2.0, 0.0), r_mu.uniform(1.0, 3.0)])
    else:
        _, _, _, r_noise = _streams(seed)
        mu = np.array([-4.0, 0.0, 2.0, 6.0])
    weights = np.full(H, 1.0 / H)
    z = r_noise.integers(0, H, size=n)
    y = mu[z] + r_noise.standard_normal(n)
    truth = GroundTruth(
        mixture={"weights": weights, "means": mu, "sds": np.ones(H)}
    )
    return Dataset(y=y, truth=truth)


def gen_aft(n: int, p: int, k: float, seed: int = 0) -> Dataset:
    """Right-censored Weibull survival data.

    Failure times follow T ~ Wei(1/sigma, log(2) * exp(-x'beta/sigma));
    censoring times use the same shape with the rate scaled by k/(1-k),
    which censors a fraction k of observations on average.
    """
    check_design(n, p, k=k, seed=seed)
    r_beta, r_sig, r_x, r_noise = _streams(seed)
    beta = _draw_beta(r_beta, p, -1.0, 1.0, 0)
    sigma2 = r_sig.uniform(2.0, 10.0)
    sigma = math.sqrt(sigma2)
    X = _draw_X(r_x, n, p, "continuous")
    lam_T = LOG2 * np.exp(-(X @ beta) / sigma)
    lam_C = (k / (1.0 - k)) * lam_T
    T = (r_noise.exponential(1.0, size=n) / lam_T) ** sigma
    C = (r_noise.exponential(1.0, size=n) / lam_C) ** sigma
    y = np.minimum(T, C)
    delta = (T <= C).astype(np.int64)
    truth = GroundTruth(beta=beta, sigma2=sigma2)
    return Dataset(y=y, X=X, delta=delta, truth=truth)

