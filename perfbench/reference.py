"""Reference posterior means of beta for the LR-N workloads' datasets.

Each reference is one long NUTS chain on the dataset of a sub-seed, with a
sampler seed of its own (``REF_SEED_OFFSET + seed``) so that it shares no
random stream with the chains it checks.  The stored file covers the first
sub-seeds; a run whose sub-seed is missing computes the reference with the
same settings and caches it next to the run outputs.

Regenerate the stored file with

    PYTHONPATH=src python3 perfbench/reference.py --first 0 --count 128
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

STORED = Path(__file__).resolve().parent / "lr_reference.json"
SETTINGS = {
    "prior": "LR-N",
    "n": 100,
    "p": 16,
    "backend": "nuts",
    "n_iter": 8000,
    "n_burn": 1000,
    "n_thin": 2,
}
REF_SEED_OFFSET = 1_000_000


def compute(seed: int) -> dict:
    """Long NUTS run on the LR-N dataset of ``seed``: beta means and MCSEs."""
    from mcmcbench import diagnostics
    from mcmcbench.harness import ExperimentConfig, make_dataset
    from mcmcbench.models import get_model
    from mcmcbench.samplers import SamplerConfig, run

    s = SETTINGS
    dataset = make_dataset(ExperimentConfig(prior=s["prior"], n=s["n"], p=s["p"], seed=seed))
    scfg = SamplerConfig(
        backend=s["backend"],
        n_iter=s["n_iter"],
        n_burn=s["n_burn"],
        n_thin=s["n_thin"],
        seed=REF_SEED_OFFSET + seed,
    )
    chain = run(s["backend"], get_model(s["prior"], dataset), scfg)
    cols = chain.cols_with_prefix("beta")
    draws = np.column_stack([chain.col(nm) for nm in cols])
    ess = np.array([diagnostics.ess(draws[:, j]) for j in range(draws.shape[1])])
    return {
        "mean": draws.mean(axis=0).tolist(),
        "mcse": (draws.std(axis=0, ddof=1) / np.sqrt(ess)).tolist(),
        "ess": ess.tolist(),
    }


def _load(path: Path) -> dict:
    if not path.exists():
        return {}
    data = json.loads(path.read_text())
    if data.get("settings") != SETTINGS or data.get("ref_seed_offset") != REF_SEED_OFFSET:
        return {}
    return data["references"]


def _save(path: Path, refs: dict) -> None:
    body = {"settings": SETTINGS, "ref_seed_offset": REF_SEED_OFFSET, "references": refs}
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(body, indent=1, sort_keys=True))
    tmp.replace(path)


def lookup(seed: int, cache: Path) -> dict:
    """Reference for ``seed``, from the stored file, the cache, or a fresh run."""
    key = str(seed)
    stored = _load(STORED)
    if key in stored:
        return stored[key]
    cached = _load(cache)
    if key not in cached:
        cached[key] = compute(seed)
        cache.parent.mkdir(parents=True, exist_ok=True)
        _save(cache, cached)
    return cached[key]


def check_beta_means(chain, ref: dict, band: float) -> list[str]:
    """Coordinates whose chain mean is more than ``band`` MCSE from the reference.

    The MCSE combines the chain's own (sd / sqrt(ESS)) with the reference's.
    """
    from mcmcbench import diagnostics

    bad = []
    for j, nm in enumerate(chain.cols_with_prefix("beta")):
        x = chain.col(nm)
        mcse = x.std(ddof=1) / math.sqrt(diagnostics.ess(x))
        mcse = math.hypot(mcse, ref["mcse"][j])
        dev = abs(x.mean() - ref["mean"][j])
        if not dev <= band * mcse:
            bad.append(f"{nm}: |{x.mean():.4f} - {ref['mean'][j]:.4f}| > {band} x {mcse:.4f}")
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--first", type=int, default=0)
    ap.add_argument("--count", type=int, default=128)
    args = ap.parse_args(argv)
    refs = _load(STORED)
    for seed in range(args.first, args.first + args.count):
        if str(seed) in refs:
            continue
        t0 = time.perf_counter()
        refs[str(seed)] = compute(seed)
        _save(STORED, refs)
        print(f"seed {seed}: {time.perf_counter() - t0:.1f} s", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
