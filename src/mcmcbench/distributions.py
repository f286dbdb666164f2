"""Probability distributions used by the models and samplers.

Each distribution exposes ``log_density``, ``sample`` and, for the
continuous ones, ``grad_log_density`` (hand-derived, checked against
finite differences in the test suite).  Parameterizations:

- Gaussian(mu, sigma2) by mean and *variance*
- Weibull(alpha, lam) with density  alpha * lam * x^(alpha-1) * exp(-lam * x^alpha)
- InverseGamma(alpha, beta) with density  beta^alpha / Gamma(alpha) * exp(-beta/x) / x^(alpha+1)
- DoubleExponential(mu, b) by location and scale
- HalfCauchy(mu, b) supported on x > mu

Points outside the support get log-density -inf rather than an error so
that Metropolis-style samplers can propose freely.  Invalid parameters
raise ``ValueError`` at construction.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

__all__ = [
    "Gaussian",
    "MvGaussian",
    "Uniform",
    "Bernoulli",
    "Exponential",
    "DoubleExponential",
    "Cauchy",
    "HalfCauchy",
    "InverseGamma",
    "Weibull",
    "Dirichlet",
    "Categorical",
]

_LOG_2PI = math.log(2.0 * math.pi)


class UnsupportedOperationError(RuntimeError):
    """Raised when asking for a gradient of a discrete distribution."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


class Distribution:
    """Immutable distribution; subclasses implement the three operations."""

    continuous = True

    def log_density(self, x):
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size=None):
        raise NotImplementedError

    def grad_log_density(self, x):
        raise UnsupportedOperationError(
            f"{type(self).__name__} has no log-density gradient"
        )


class Gaussian(Distribution):
    def __init__(self, mu: float, sigma2: float):
        _require(sigma2 > 0, "Gaussian requires sigma2 > 0")
        self.mu = float(mu)
        self.sigma2 = float(sigma2)

    def log_density(self, x):
        return -0.5 * (_LOG_2PI + math.log(self.sigma2)) - (x - self.mu) ** 2 / (
            2.0 * self.sigma2
        )

    def sample(self, rng, size=None):
        return rng.normal(self.mu, math.sqrt(self.sigma2), size=size)

    def grad_log_density(self, x):
        return -(x - self.mu) / self.sigma2


class MvGaussian(Distribution):
    def __init__(self, mean, cov):
        self.mean = np.asarray(mean, dtype=float)
        self.cov = np.asarray(cov, dtype=float)
        _require(self.mean.ndim == 1, "mean must be a vector")
        _require(self.cov.shape == (self.mean.size,) * 2, "cov shape mismatch")
        # Cholesky also validates positive definiteness.
        try:
            self._chol = np.linalg.cholesky(self.cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariance must be positive definite") from exc
        self._logdet = 2.0 * np.sum(np.log(np.diag(self._chol)))

    @property
    def dim(self):
        return self.mean.size

    def log_density(self, x):
        d = np.asarray(x, dtype=float) - self.mean
        z = np.linalg.solve(self._chol, d)
        return -0.5 * (self.dim * _LOG_2PI + self._logdet + z @ z)

    def sample(self, rng, size=None):
        if size is None:
            return self.mean + self._chol @ rng.standard_normal(self.dim)
        z = rng.standard_normal((size, self.dim))
        return self.mean + z @ self._chol.T

    def grad_log_density(self, x):
        d = np.asarray(x, dtype=float) - self.mean
        return -np.linalg.solve(self.cov, d)


class Uniform(Distribution):
    def __init__(self, a: float, b: float):
        _require(a < b, "Uniform requires a < b")
        self.a = float(a)
        self.b = float(b)

    def log_density(self, x):
        if self.a <= x <= self.b:
            return -math.log(self.b - self.a)
        return -math.inf

    def sample(self, rng, size=None):
        return rng.uniform(self.a, self.b, size=size)

    def grad_log_density(self, x):
        if self.a < x < self.b:
            return 0.0
        return math.nan


class Bernoulli(Distribution):
    continuous = False

    def __init__(self, p: float):
        _require(0.0 <= p <= 1.0, "Bernoulli requires p in [0, 1]")
        self.p = float(p)

    def log_density(self, x):
        if x == 1:
            return math.log(self.p) if self.p > 0 else -math.inf
        if x == 0:
            return math.log1p(-self.p) if self.p < 1 else -math.inf
        return -math.inf

    def sample(self, rng, size=None):
        return (rng.random(size) < self.p).astype(np.int64)


class Exponential(Distribution):
    def __init__(self, lam: float):
        _require(lam > 0, "Exponential requires lam > 0")
        self.lam = float(lam)

    def log_density(self, x):
        if x <= 0:
            return -math.inf
        return math.log(self.lam) - self.lam * x

    def sample(self, rng, size=None):
        return rng.exponential(1.0 / self.lam, size=size)

    def grad_log_density(self, x):
        return -self.lam


class DoubleExponential(Distribution):
    def __init__(self, mu: float, b: float):
        _require(b > 0, "DoubleExponential requires b > 0")
        self.mu = float(mu)
        self.b = float(b)

    def log_density(self, x):
        return -math.log(2.0 * self.b) - abs(x - self.mu) / self.b

    def sample(self, rng, size=None):
        return rng.laplace(self.mu, self.b, size=size)

    def grad_log_density(self, x):
        # subgradient 0 at the kink
        return -np.sign(x - self.mu) / self.b


class Cauchy(Distribution):
    def __init__(self, mu: float, b: float):
        _require(b > 0, "Cauchy requires b > 0")
        self.mu = float(mu)
        self.b = float(b)

    def log_density(self, x):
        return math.log(self.b / math.pi) - math.log((x - self.mu) ** 2 + self.b**2)

    def sample(self, rng, size=None):
        u = rng.random(size)
        return self.mu + self.b * np.tan(math.pi * (u - 0.5))

    def grad_log_density(self, x):
        d = x - self.mu
        return -2.0 * d / (d * d + self.b**2)


class HalfCauchy(Distribution):
    def __init__(self, mu: float, b: float):
        _require(b > 0, "HalfCauchy requires b > 0")
        self.mu = float(mu)
        self.b = float(b)

    def log_density(self, x):
        if x <= self.mu:
            return -math.inf
        return math.log(2.0 * self.b / math.pi) - math.log(
            (x - self.mu) ** 2 + self.b**2
        )

    def sample(self, rng, size=None):
        u = rng.random(size)
        return self.mu + self.b * np.tan(math.pi * u / 2.0)

    def grad_log_density(self, x):
        d = x - self.mu
        return -2.0 * d / (d * d + self.b**2)


class InverseGamma(Distribution):
    def __init__(self, alpha: float, beta: float):
        _require(alpha > 0 and beta > 0, "InverseGamma requires alpha, beta > 0")
        self.alpha = float(alpha)
        self.beta = float(beta)

    def log_density(self, x):
        if x <= 0:
            return -math.inf
        return (
            self.alpha * math.log(self.beta)
            - gammaln(self.alpha)
            - self.beta / x
            - (self.alpha + 1.0) * math.log(x)
        )

    def sample(self, rng, size=None):
        # 1/G with G ~ Gamma(alpha, rate=beta)
        return 1.0 / rng.gamma(self.alpha, 1.0 / self.beta, size=size)

    def grad_log_density(self, x):
        return -(self.alpha + 1.0) / x + self.beta / x**2


class Weibull(Distribution):
    def __init__(self, alpha: float, lam: float):
        _require(alpha > 0 and lam > 0, "Weibull requires alpha, lam > 0")
        self.alpha = float(alpha)
        self.lam = float(lam)

    def log_density(self, x):
        if x <= 0:
            return -math.inf
        return (
            math.log(self.alpha)
            + math.log(self.lam)
            + (self.alpha - 1.0) * math.log(x)
            - self.lam * x**self.alpha
        )

    def log_survival(self, x):
        """log P(X > x) = -lam * x^alpha for x > 0."""
        if x <= 0:
            return 0.0
        return -self.lam * x**self.alpha

    def sample(self, rng, size=None):
        e = rng.exponential(1.0, size=size)
        return (e / self.lam) ** (1.0 / self.alpha)

    def grad_log_density(self, x):
        return (self.alpha - 1.0) / x - self.lam * self.alpha * x ** (self.alpha - 1.0)


class Dirichlet(Distribution):
    def __init__(self, alpha):
        self.alpha = np.asarray(alpha, dtype=float)
        _require(self.alpha.ndim == 1 and self.alpha.size >= 2, "alpha must be a vector")
        _require(bool(np.all(self.alpha > 0)), "Dirichlet requires alpha_i > 0")
        self._log_norm = np.sum(gammaln(self.alpha)) - gammaln(np.sum(self.alpha))

    @property
    def dim(self):
        return self.alpha.size

    def log_density(self, x):
        """Density of the full weight vector (simplex interior)."""
        x = np.asarray(x, dtype=float)
        if x.size != self.dim or np.any(x <= 0) or abs(x.sum() - 1.0) > 1e-9:
            return -math.inf
        return float(np.sum((self.alpha - 1.0) * np.log(x)) - self._log_norm)

    def sample(self, rng, size=None):
        # normalized independent Gamma draws
        if size is None:
            g = rng.gamma(self.alpha, 1.0)
            return g / g.sum()
        g = rng.gamma(self.alpha, 1.0, size=(size, self.dim))
        return g / g.sum(axis=1, keepdims=True)

    def grad_log_density(self, x):
        """Gradient w.r.t. the K-1 free coordinates (x_K = 1 - sum)."""
        x = np.asarray(x, dtype=float)
        xk = 1.0 - x[:-1].sum()
        return (self.alpha[:-1] - 1.0) / x[:-1] - (self.alpha[-1] - 1.0) / xk


class Categorical(Distribution):
    """Categorical over {0, ..., K-1} with weights p (sum to 1 within 1e-12)."""

    continuous = False

    def __init__(self, p):
        self.p = np.asarray(p, dtype=float)
        _require(self.p.ndim == 1 and self.p.size >= 1, "p must be a vector")
        _require(bool(np.all(self.p >= 0)), "Categorical weights must be nonnegative")
        _require(abs(self.p.sum() - 1.0) <= 1e-12, "Categorical weights must sum to 1")
        self._cum = np.cumsum(self.p)

    def log_density(self, x):
        k = int(x)
        if k != x or not (0 <= k < self.p.size) or self.p[k] == 0.0:
            return -math.inf
        return math.log(self.p[k])

    def sample(self, rng, size=None):
        # inverse CDF on the cumulative weights
        u = rng.random(size)
        return np.searchsorted(self._cum, u, side="right").clip(0, self.p.size - 1)
