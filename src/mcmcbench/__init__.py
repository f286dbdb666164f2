"""Bayesian MCMC benchmark suite: models, samplers, diagnostics, harness."""

__version__ = "0.1.0"

from . import datagen, diagnostics, models, params, samplers
from .harness import ExperimentConfig, run_experiment

__all__ = [
    "ExperimentConfig",
    "datagen",
    "diagnostics",
    "models",
    "params",
    "run_experiment",
    "samplers",
]
