"""Sampling backends: random-walk Metropolis, Gibbs/slice, and NUTS."""

from .common import BACKENDS, Chain, SamplerConfig, chain_rng, run
from .slice_sampling import slice_step

__all__ = [
    "BACKENDS",
    "Chain",
    "SamplerConfig",
    "chain_rng",
    "run",
    "slice_step",
]
