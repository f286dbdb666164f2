"""Sampling backends: random-walk Metropolis, Gibbs/slice, and NUTS."""

from .common import BACKENDS, Chain, SamplerConfig, chain_rng, run

__all__ = ["BACKENDS", "Chain", "SamplerConfig", "chain_rng", "run"]
