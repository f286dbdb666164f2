"""Common interface for the Bayesian models.

Every model exposes the same surface to the samplers:

- ``log_posterior_u(u)``: unnormalized log posterior on the unconstrained
  scale, transform log-Jacobian included
- ``logp_and_grad(u)``: value plus hand-derived gradient (continuous
  parameterizations only)
- ``log_likelihood_pointwise(params)``: per-observation log-likelihood on
  the constrained scale, for LPML/WAIC
- ``gibbs_scan(state, rng, slice_fn)``: one systematic scan of block
  updates; conjugate blocks are drawn exactly, the rest take one slice
  step through the injected ``slice_fn``
- ``full_conditional(block, params)``: declarative view of a block's
  conditional (closed form distribution or generic 1-D log density)

Latent-allocation models additionally carry a discrete state vector z
handled via ``resample_latent``; their continuous conditional is
``log_posterior_u(u, z)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..datagen import Dataset
from ..distributions import Distribution, UnsupportedOperationError
from ..params import ParamSpace


@dataclass
class ConditionalSpec:
    """Full-conditional description of one parameter block."""

    kind: str  # "closed_form" | "generic"
    dist: Distribution | None = None
    logpdf: Callable[[float], float] | None = None

    @classmethod
    def closed_form(cls, dist: Distribution) -> "ConditionalSpec":
        return cls(kind="closed_form", dist=dist)

    @classmethod
    def generic(cls, logpdf: Callable[[float], float]) -> "ConditionalSpec":
        return cls(kind="generic", logpdf=logpdf)


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

    def log_prior(self, params: dict) -> float:
        raise NotImplementedError

    def log_posterior_u(self, u: np.ndarray) -> float:
        params = self.space.constrain(u)
        lik = float(np.sum(self.log_likelihood_pointwise(params)))
        return lik + self.log_prior(params) + self.space.log_jac(u)

    def logp_and_grad(self, u: np.ndarray) -> tuple[float, np.ndarray]:
        raise NotImplementedError

    def grad_log_posterior_u(self, u: np.ndarray) -> np.ndarray:
        if not self.has_gradient:
            raise UnsupportedOperationError(
                f"{self.prior_id} ({'latent' if self.is_latent else 'marginal'}) "
                "has no gradient"
            )
        return self.logp_and_grad(u)[1]

    # ---- sampler hooks ---------------------------------------------

    def initial_params(self) -> dict:
        raise NotImplementedError

    def initial_u(self) -> np.ndarray:
        return self.space.unconstrain(self.initial_params())

    def gibbs_scan(self, state: dict, rng: np.random.Generator, slice_fn) -> None:
        raise NotImplementedError

    def full_conditional(self, block: str, params: dict) -> ConditionalSpec:
        raise NotImplementedError

    def rw_block_names(self) -> list[str]:
        return [b.name for b in self.space.blocks]


def gaussian_loglik(y: np.ndarray, mean, sigma2: float) -> np.ndarray:
    return -0.5 * (np.log(2.0 * np.pi * sigma2) + (y - mean) ** 2 / sigma2)
