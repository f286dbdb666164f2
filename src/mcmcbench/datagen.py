"""What the synthetic data generators of every family share.

Each family's ``gen_*`` lives in its model module, beside its density,
and draws y through that module's ``simulate``.  A single base seed
derives independent sub-streams (``_streams``) for the regression
coefficients, the noise variance, the covariates and the observation
noise, so sweeping n keeps beta_true fixed.

Covariates are iid standard normal with the first column pinned to 1
(intercept); binary covariate schedules are defined for p in {4, 16, 50}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Dataset", "GroundTruth", "check_design"]

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
