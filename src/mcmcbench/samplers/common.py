"""Sampler configuration, chain storage and the sampling loop shared by all backends.

Each backend module supplies only its transition kernel as
``start(model, cfg, rng) -> (step, draw, stats)``.  ``start`` does the set-up
(initial state, adaptation state, any tuning that precedes sampling);
``step(it)`` advances the chain by one iteration (1-based); ``draw()``
returns the current state as a flat constrained row; ``stats()`` returns
the backend's summary statistics once the chain has finished.  ``run``
owns everything else: the random stream, burn-in, thinning, timing and the
resulting ``Chain``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import gibbs, nuts, rwmh

BACKENDS = {"gibbs": gibbs.start, "nuts": nuts.start, "rwmh": rwmh.start}


@dataclass
class SamplerConfig:
    backend: str = "nuts"
    n_iter: int = 11000
    n_burn: int = 1000
    n_thin: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {sorted(BACKENDS)}")
        if not 0 <= self.n_burn < self.n_iter:
            raise ValueError("need 0 <= n_burn < n_iter")
        if self.n_thin < 1 or (self.n_iter - self.n_burn) % self.n_thin != 0:
            raise ValueError("n_thin must divide (n_iter - n_burn)")

    @property
    def n_samples(self) -> int:
        return (self.n_iter - self.n_burn) // self.n_thin

    def keep(self, iteration: int) -> bool:
        """Retention rule for 1-based iteration numbers."""
        past = iteration - self.n_burn
        return past > 0 and past % self.n_thin == 0


@dataclass
class Chain:
    samples: np.ndarray  # (N_s, dim), constrained scale
    names: list[str]
    backend: str
    seed: int
    n_iter: int
    n_burn: int
    n_thin: int
    t_s: float
    stats: dict = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    def col(self, name: str) -> np.ndarray:
        return self.samples[:, self.names.index(name)]

    def cols_with_prefix(self, prefix: str) -> list[str]:
        exact = [nm for nm in self.names if nm == prefix]
        return exact or [nm for nm in self.names if nm.startswith(prefix + "[")]

    def metadata(self) -> dict:
        return {
            "backend": self.backend,
            "seed": self.seed,
            "n_iter": self.n_iter,
            "n_burn": self.n_burn,
            "n_thin": self.n_thin,
            "n_samples": self.n_samples,
            "t_s": self.t_s,
            "stats": self.stats,
        }

    def to_csv(self, path) -> None:
        """One retained draw per row, plus a metadata JSON sidecar."""
        path = Path(path)
        header = ",".join(self.names)
        np.savetxt(path, self.samples, delimiter=",", header=header, comments="")
        sidecar = path.with_suffix(path.suffix + ".meta.json")
        sidecar.write_text(json.dumps(self.metadata(), indent=2, default=float))


def chain_rng(seed: int, chain_index: int = 0) -> np.random.Generator:
    """Deterministic per-chain stream derived from the base seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chain_index,)))


def run(backend, model, cfg: SamplerConfig, rng: np.random.Generator | None = None) -> Chain:
    """Run one chain of ``backend``, a key of ``BACKENDS``.

    ``t_s`` times the iterations only: the backend's set-up runs before the
    clock starts and its summary statistics are gathered after it stops.
    """
    try:
        start = BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {sorted(BACKENDS)}"
        ) from None
    if rng is None:
        rng = chain_rng(cfg.seed)
    step, draw, stats = start(model, cfg, rng)
    rows = np.empty((cfg.n_samples, model.space.constrained_dim))
    row = 0
    clock = time.perf_counter
    t0 = clock()
    for it in range(1, cfg.n_iter + 1):
        step(it)
        if cfg.keep(it):
            rows[row] = draw()
            row += 1
    t_s = clock() - t0
    return Chain(
        samples=rows,
        names=model.space.names(),
        backend=backend,
        seed=cfg.seed,
        n_iter=cfg.n_iter,
        n_burn=cfg.n_burn,
        n_thin=cfg.n_thin,
        t_s=t_s,
        stats=stats(),
    )
