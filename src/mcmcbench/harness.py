"""Experiment driver: configuration, chain execution, timing, reports.

A single experiment fixes one simulated dataset and runs every requested
backend on it, so the backends are compared on identical data.  Repeated
runs (``repeats > 1``) regenerate the dataset with derived seeds
(dataset r uses base_seed + r) and aggregate per-backend summaries.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from . import datagen, diagnostics
from .models import PRIORS, get_model
from .models.base import merge_hyper
from .models.mixture import predictive_density
from .samplers import BACKENDS, SamplerConfig, chain_rng
from .samplers import run as run_backend_sampler


# A design field the prior's data draws takes this value when the config leaves it None.
DESIGN_DEFAULTS = {"p": 4, "H": 2, "k": 0.5, "covariates": "continuous", "zero_pattern": 0}

# Mixture parameterization per backend: the gradient-based sampler needs the
# marginal likelihood, the others use the latent-allocation form.
MIXTURE_PARAMETERIZATION = {"gibbs": "latent", "rwmh": "latent", "nuts": "marginal"}

REPORT_COLUMNS = [
    "model",
    "prior",
    "backend",
    "n",
    "p_or_H",
    "seed",
    "mean_E",
    "per_block_E",
    "N_it",
    "t_s",
    "N_it_per_s",
    "lpml",
    "waic",
    "kl",
    "error",
    "n_divergences",
]


@dataclass
class ExperimentConfig:
    prior: str
    n: int = 100
    # Design fields: None takes DESIGN_DEFAULTS where PRIORS lists the field,
    # and a value for a field the prior's data does not draw is an error.
    p: int | None = None  # covariate count (regressions)
    H: int | None = None  # mixture components
    covariates: str | None = None
    zero_pattern: int | None = None
    k: float | None = None  # target censored fraction (AFT)
    backends: tuple = tuple(BACKENDS)
    chains: int = 1
    seed: int = 0
    repeats: int = 1
    out: str | None = None
    n_iter: int | None = None  # override the per-prior schedule
    n_burn: int | None = None
    n_thin: int | None = None
    max_workers: int | None = None  # default: host cores - 1
    hyper: dict | None = None

    def __post_init__(self):
        if self.prior not in PRIORS:
            raise ValueError(f"unknown prior tag {self.prior!r}")
        drawn = PRIORS[self.prior].fields
        for name, default in DESIGN_DEFAULTS.items():
            value = getattr(self, name)
            if name not in drawn and value is not None:
                raise ValueError(f"{self.prior} data does not draw {name}; got {name}={value!r}")
            if name in drawn and value is None:
                setattr(self, name, default)
        if self.chains < 1:
            raise ValueError("chains must be >= 1")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be None or >= 1")
        datagen.check_design(**_dataset_args(self))  # the design make_dataset will draw
        if isinstance(self.backends, str):
            self.backends = tuple(s for s in self.backends.split(",") if s)
        if not self.backends:
            raise ValueError("need at least one backend")
        if len(set(self.backends)) != len(self.backends):
            raise ValueError(f"repeated backend names in {self.backends}")
        for backend in self.backends:  # sampler_config rejects unknown backends, bad schedules
            kept = self.sampler_config(backend).n_samples
            if kept < diagnostics.ESS_MIN_DRAWS:
                raise ValueError(f"{backend} schedule keeps {kept} draws; ESS needs "
                                 f"at least {diagnostics.ESS_MIN_DRAWS}")
        merge_hyper(PRIORS[self.prior].hyper, self.hyper)  # rejects unknown keys

    @property
    def family(self) -> str:
        return PRIORS[self.prior].model.family

    @property
    def p_or_H(self) -> int:
        return self.H if self.family == "MM" else self.p

    def sampler_config(self, backend: str) -> SamplerConfig:
        n_it, n_b = PRIORS[self.prior].schedule
        return SamplerConfig(
            backend=backend,
            n_iter=self.n_iter if self.n_iter is not None else n_it,
            n_burn=self.n_burn if self.n_burn is not None else n_b,
            n_thin=self.n_thin if self.n_thin is not None else 2,
            seed=self.seed,
        )


def _dataset_args(cfg: ExperimentConfig) -> dict:
    """Keyword arguments of the prior's ``datagen.gen_*`` call."""
    design = {name: getattr(cfg, name) for name in PRIORS[cfg.prior].fields}
    return {"n": cfg.n, "seed": cfg.seed, **design}


def make_dataset(cfg: ExperimentConfig) -> datagen.Dataset:
    """Generate the dataset for one experiment (or one repeat of it)."""
    return PRIORS[cfg.prior].generate(**_dataset_args(cfg))


def _chain_worker(model, scfg: SamplerConfig, chain_index: int):
    """Top-level worker so chains can run in separate processes."""
    rng = chain_rng(scfg.seed, chain_index)
    return run_backend_sampler(scfg.backend, model, scfg, rng=rng)


@dataclass
class RunReport:
    """Everything the report tables need for one (experiment, backend) pair."""

    cfg: ExperimentConfig
    backend: str
    chains: list = field(default_factory=list)
    ess: diagnostics.EssReport = None
    per_chain_ess: list = field(default_factory=list)
    fit: diagnostics.FitReport = None
    wall_clock: float = None  # batch wall time for parallel runs
    skipped: bool = False
    note: str = ""

    @property
    def chain(self):
        return self.chains[0] if self.chains else None

    @property
    def t_s(self) -> float:
        return sum(c.t_s for c in self.chains)

    def row(self) -> dict:
        """Flat report row; skipped backends carry "-" in every metric cell."""
        cfg = self.cfg
        out = {
            "model": cfg.family,
            "prior": cfg.prior,
            "backend": self.backend,
            "n": cfg.n,
            "p_or_H": cfg.p_or_H,
            "seed": cfg.seed,
        }
        metrics = [c for c in REPORT_COLUMNS if c not in out]
        if self.skipped:
            out.update({c: "-" for c in metrics})
            return out
        chain = self.chain
        out["mean_E"] = self.ess.mean_E
        out["per_block_E"] = ";".join(f"{e:.6f}" for e in self.ess.per_param_E)
        out["N_it"] = chain.n_iter
        out["t_s"] = self.t_s
        out["N_it_per_s"] = sum(c.n_iter for c in self.chains) / self.t_s
        for key in ("lpml", "waic", "kl", "error"):
            val = getattr(self.fit, key)
            out[key] = "" if val is None else val
        out["n_divergences"] = self.chains_stat("n_divergent")
        return out

    def chains_stat(self, key):
        vals = [c.stats.get(key) for c in self.chains]
        if any(v is None for v in vals):
            return ""
        return int(sum(vals))


def _true_mixture_density(truth, y):
    """The generating mixture's density at the points y."""
    mix = truth.mixture
    w = np.asarray(mix["weights"], dtype=float)
    mu = np.asarray(mix["means"], dtype=float)
    sd = np.asarray(mix["sds"], dtype=float)
    comps = np.exp(-0.5 * ((y[:, None] - mu) / sd) ** 2) / (sd * np.sqrt(2.0 * np.pi))
    return comps @ w


def _diagnose(cfg: ExperimentConfig, dataset, model, report: RunReport) -> None:
    """Fill in efficiency and fit metrics for a completed backend run."""
    family = cfg.family
    prefix = "v2" if family == "MM" else "beta"
    report.per_chain_ess = [diagnostics.ess_report(c, prefix) for c in report.chains]
    report.ess = report.per_chain_ess[0]

    pooled = report.chains[0]
    if len(report.chains) > 1:
        pooled = replace(pooled, samples=np.vstack([c.samples for c in report.chains]))
    # One matrix over the pooled draws: each row depends on its draw alone.
    # Pointwise log-likelihoods are marginal under both mixture parameterizations,
    # so latent-allocation chains are scored on the same likelihood.
    loglik = model.log_likelihood_draws(pooled.samples)

    fit = diagnostics.FitReport()
    fit.lpml = diagnostics.lpml(loglik)
    fit.waic = diagnostics.waic(loglik)
    if family == "MM":
        mu = np.asarray(dataset.truth.mixture["means"], dtype=float)
        y = np.linspace(float(mu.min() - 6.0), float(mu.max() + 6.0), 2001)
        fit.kl = diagnostics.kl_divergence(
            _true_mixture_density(dataset.truth, y), predictive_density(pooled, y, H=cfg.H), y
        )
    if dataset.truth.beta is not None:
        means = [np.mean(pooled.col(nm)) for nm in pooled.cols_with_prefix("beta")]
        fit.error = diagnostics.beta_error(means, dataset.truth.beta)
    report.fit = fit


def _run_one_backend(cfg: ExperimentConfig, dataset, backend: str) -> RunReport:
    report = RunReport(cfg=cfg, backend=backend)
    parameterization = MIXTURE_PARAMETERIZATION.get(backend, "marginal")
    model = get_model(cfg.prior, dataset, H=cfg.H, parameterization=parameterization,
                      hyper=cfg.hyper)
    if backend == "nuts" and not model.has_gradient:
        report.skipped = True
        report.note = "no gradient available for this parameterization"
        return report
    scfg = cfg.sampler_config(backend)
    t0 = time.perf_counter()
    if cfg.chains == 1:
        report.chains = [_chain_worker(model, scfg, 0)]
    else:
        workers = cfg.max_workers or max(1, (os.cpu_count() or 2) - 1)
        workers = min(workers, cfg.chains)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            report.chains = list(pool.map(_chain_worker, repeat(model), repeat(scfg),
                                          range(cfg.chains)))
    report.wall_clock = time.perf_counter() - t0
    _diagnose(cfg, dataset, model, report)
    return report


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run every requested backend on one shared dataset.

    Returns {backend: RunReport}.  If cfg.out is set, reports are also
    written there (report.csv + report.json + one chain CSV per backend).
    One dataset only: ``repeated_datasets`` runs several.
    """
    if cfg.repeats != 1:
        raise ValueError(f"run_experiment runs one dataset, not repeats={cfg.repeats}")
    dataset = make_dataset(cfg)
    reports = {}
    for backend in cfg.backends:
        reports[backend] = _run_one_backend(cfg, dataset, backend)
    if cfg.out is not None:
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        emit_report(list(reports.values()), out / "report.csv", fmt="csv")
        emit_report(list(reports.values()), out / "report.json", fmt="json")
        for backend, rep in reports.items():
            for i, chain in enumerate(rep.chains):
                chain.to_csv(out / f"chain_{backend}_{i}.csv")
    return reports


def repeated_datasets(cfg: ExperimentConfig) -> dict:
    """Run the experiment on R independently generated datasets.

    Returns {"rows": [report-row dicts], "summary": {backend: stats}} where
    stats hold mean/sd/min/max of the rows' mean_E and N_it_per_s across
    datasets.  If cfg.out is set, writes a long-format sweep.csv (one row
    per dataset x backend, histogram-ready) plus summary.json.
    """
    rows = []
    for r in range(cfg.repeats):
        sub = replace(cfg, seed=cfg.seed + r, repeats=1, out=None)
        rows += [rep.row() for rep in run_experiment(sub).values()]
    summary = {}
    for backend in cfg.backends:
        done = [row for row in rows if row["backend"] == backend and row["mean_E"] != "-"]
        summary[backend] = {key: _spread([row[key] for row in done])
                            for key in ("mean_E", "N_it_per_s") if done}
    if cfg.out is not None:
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        emit_report(rows, out / "sweep.csv")
        (out / "summary.json").write_text(json.dumps(summary, indent=2))
    return {"rows": rows, "summary": summary}


def _spread(vals) -> dict:
    arr = np.asarray(vals, dtype=float)
    return {
        "mean": float(arr.mean()),
        "sd": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        "min": float(arr.min()),
        "max": float(arr.max()),
    }


def format_report(reports, fmt="csv") -> str:
    """CSV or JSON text of RunReports (or prebuilt row dicts), for files and stdout."""
    if not reports:
        raise ValueError("no reports to emit")
    rows = [r.row() if isinstance(r, RunReport) else r for r in reports]
    if fmt == "json":
        return json.dumps(rows, indent=2, default=float)
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(REPORT_COLUMNS)
    writer.writerows([row[c] for c in REPORT_COLUMNS] for row in rows)
    return text.getvalue()


def emit_report(reports, path, fmt="csv"):
    """Write ``format_report(reports, fmt)`` to path."""
    path = Path(path)
    path.write_text(format_report(reports, fmt), newline="")
    return path
