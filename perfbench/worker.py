"""Runs one workload inside its own interpreter and prints one JSON result.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; not meant to be run
by hand.  Modes:

- ``--setup-only``: import, generate the dataset and build the model, then
  exit; run.py times the whole process.
- untraced (``--trace 0``): closed loop of ``run_experiment`` calls over the
  workload's sub-seeds for ``--seconds``.
- traced (``--trace 1``): a few untraced calls on the first sub-seed, then
  two calls with spans around every layer's public calls.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
import spans
from workloads import KL_MAX, MCSE_BAND, WORKLOADS, Workload

import mcmcbench
from mcmcbench import diagnostics, harness
from mcmcbench.harness import ExperimentConfig, run_experiment
from mcmcbench.models import get_model
from mcmcbench.samplers import Chain, gibbs

MODEL_METHODS = (
    "logp_and_grad",
    "log_posterior_u",
    "gibbs_scan",
    "resample_latent",
    "log_likelihood_pointwise",
)
# The backend's model evaluation, for evals_per_ess.
EVAL_SPAN = {
    "nuts": "models.logp_and_grad",
    "rwmh": "models.log_posterior_u",
    "gibbs": "models.slice_logdens",
}
PROBE_LOOPS = 200_000


def speed_probe() -> float:
    """Seconds taken by a fixed pure-Python loop.

    On a shared virtual machine the speed of a core can drift between states
    up to ~1.8x apart (measured on a 2-vCPU Xeon guest), each lasting tens of
    seconds.  The loop slows down with the workload, so wall time divided by
    the probe time measured around the same calls stays steadier across them.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(PROBE_LOOPS):
        acc += (i % 7) * 0.5
    return time.perf_counter() - t0


def config(wl: Workload, seed: int, out: str | None = None, tiny: bool = False) -> ExperimentConfig:
    n_iter, n_burn = (20, 10) if tiny else (wl.n_iter, wl.n_burn)
    return ExperimentConfig(
        backends=(wl.backend,), chains=1, seed=seed, n_iter=n_iter, n_burn=n_burn,
        n_thin=wl.n_thin, out=out, **wl.grid,
    )


def digest(chains) -> str:
    h = hashlib.sha256()
    for c in chains:
        h.update(np.ascontiguousarray(c.samples, dtype=np.float64).tobytes())
    return h.hexdigest()


@dataclass
class Call:
    """One timed ``run_experiment`` call and what it produced."""

    seed: int
    wall: float = math.nan
    probes: tuple = ()  # speed_probe() times just before and just after the call
    t_s: float = math.nan
    n_iter: int = 0
    n_samples: int = 0
    mean_E: float = math.nan
    digest: str = ""
    output_bytes: int = 0
    chain: object = None
    errors: list = field(default_factory=list)


class Runner:
    def __init__(self, wl: Workload, out_dir: Path):
        self.wl = wl
        self.out_dir = out_dir
        self.refs = {}
        self.first_digest = {}

    def reference(self, seed):
        if seed not in self.refs:
            self.refs[seed] = reference.lookup(seed, self.out_dir / "lr_reference_cache.json")
        return self.refs[seed]

    def call(self, seed: int, tiny: bool = False, entry=run_experiment) -> Call:
        """Run the workload once at ``seed`` through ``entry``; check it unless tiny."""
        res = Call(seed)
        tmp = tempfile.mkdtemp(prefix="run-", dir=self.out_dir) if self.wl.write_output else None
        try:
            cfg = config(self.wl, seed, out=tmp, tiny=tiny)
            probe = speed_probe()
            t0 = time.perf_counter()
            rep = entry(cfg)[self.wl.backend]
            res.wall = time.perf_counter() - t0
            res.probes = (probe, speed_probe())
            if tmp is not None:
                res.output_bytes = sum(p.stat().st_size for p in Path(tmp).iterdir())
            if not tiny:
                self.check(rep, res)
        except Exception:  # a failing call is counted and the run goes on
            res.errors.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
        finally:
            if tmp is not None:
                shutil.rmtree(tmp, ignore_errors=True)
        return res

    def check(self, rep, res: Call) -> None:
        if rep.skipped:
            res.errors.append(f"backend skipped: {rep.note}")
            return
        chain = rep.chain
        res.chain = chain
        res.t_s, res.n_iter, res.n_samples = rep.t_s, chain.n_iter, chain.n_samples
        res.mean_E = rep.ess.mean_E
        res.digest = digest(rep.chains)
        if not np.isfinite(chain.samples).all():
            res.errors.append("non-finite draws")
        if self.first_digest.setdefault(res.seed, res.digest) != res.digest:
            res.errors.append("draws differ from the first call at this seed")
        if self.wl.family == "MM":
            if not rep.fit.kl < KL_MAX:
                res.errors.append(f"predictive KL {rep.fit.kl} not below {KL_MAX}")
        else:
            res.errors += reference.check_beta_means(chain, self.reference(res.seed), MCSE_BAND)


def instrument(tracer: spans.Tracer) -> None:
    """Wrap the public calls of every layer; ``tracer.restore()`` undoes it."""
    wrap = tracer.wrap

    def traced_get_model(build):
        def get(*args, **kwargs):
            model = build(*args, **kwargs)
            for m in MODEL_METHODS:
                if hasattr(model, m):
                    setattr(model, m, wrap(f"models.{m}", getattr(model, m)))
            model.space.constrain = wrap("params.constrain", model.space.constrain)
            return model

        return get

    def traced_slice_step(step):
        step = wrap("samplers.slice_step", step)

        def call(logdens, x0, *args, **kwargs):
            return step(wrap("models.slice_logdens", logdens), x0, *args, **kwargs)

        return call

    tracer.patch(harness, "get_model", traced_get_model)
    tracer.patch(gibbs, "slice_step", traced_slice_step)
    for owner, attr, name in [
        (harness, "make_dataset", "datagen.make_dataset"),
        (harness, "run_backend_sampler", "samplers.run"),
        (harness, "predictive_density", "diagnostics.predictive_density"),
        (harness, "emit_report", "harness.emit_report"),
        (Chain, "to_csv", "harness.chain_to_csv"),
        (diagnostics, "ess_report", "diagnostics.ess_report"),
        (diagnostics, "lpml", "diagnostics.lpml"),
        (diagnostics, "waic", "diagnostics.waic"),
        (diagnostics, "kl_divergence", "diagnostics.kl_divergence"),
    ]:
        tracer.patch(owner, attr, lambda fn, name=name: wrap(name, fn))


def layer_metrics(run_spans: list[spans.Span], call: Call, backend: str) -> dict:
    """Per-layer figures of one traced call."""
    selfs = spans.self_times(run_spans)
    in_sampler = spans.descendants_of(run_spans, "samplers.run")
    calls, total, self_total = {}, {}, {}
    for s, st, inside in zip(run_spans, selfs, in_sampler):
        key = (s.name, inside)
        calls[key] = calls.get(key, 0) + 1
        total[key] = total.get(key, 0.0) + s.duration
        self_total[key] = self_total.get(key, 0.0) + st

    def n(name, inside=None):
        return sum(v for (nm, ins), v in calls.items() if nm == name and inside in (None, ins))

    def t(name, inside=None, table=total):
        return sum(v for (nm, ins), v in table.items() if nm == name and inside in (None, ins))

    def us(name):
        return 1e6 * t(name) / n(name) if n(name) else 0.0

    chain = call.chain
    n_iter = chain.n_iter
    slice_steps = n("samplers.slice_step")
    sampler_self = sum(
        st for s, st, inside in zip(run_spans, selfs, in_sampler) if inside and s.layer == "samplers"
    )
    root_wall = t("harness.run_experiment")
    evals = n(EVAL_SPAN[backend], True) or n("models.gibbs_scan", True)
    ess = call.mean_E * call.n_samples
    stats = chain.stats
    m = {
        "models.logp_and_grad.calls": n("models.logp_and_grad"),
        "models.logp_and_grad.us": us("models.logp_and_grad"),
        "params.constrain.calls": n("params.constrain"),
        "params.constrain.us": us("params.constrain"),
        "models.slice_logdens.calls": n("models.slice_logdens"),
        "models.slice_logdens.us": us("models.slice_logdens"),
        "samplers.slice.steps_per_iter": slice_steps / n_iter,
        "samplers.slice.evals_per_step": n("models.slice_logdens") / slice_steps if slice_steps else 0.0,
        "models.log_posterior_u.calls": n("models.log_posterior_u"),
        "models.log_posterior_u.us": us("models.log_posterior_u"),
        "samplers.rwmh.accept_rate": (
            statistics.fmean(stats["acceptance"].values()) if "acceptance" in stats else 0.0
        ),
        "samplers.self_s": sampler_self,
        "samplers.sample_s": t("samplers.run"),
        "samplers.nuts.grads_per_iter": n("models.logp_and_grad", True) / n_iter,
        "samplers.nuts.mean_tree_depth": float(stats.get("mean_tree_depth", 0.0)),
        "samplers.nuts.n_divergent": int(stats.get("n_divergent", 0)),
        "models.gibbs_scan.calls": n("models.gibbs_scan"),
        "models.gibbs_scan.self_us": (
            1e6 * t("models.gibbs_scan", table=self_total) / n("models.gibbs_scan")
            if n("models.gibbs_scan") else 0.0
        ),
        "models.resample_latent.us": us("models.resample_latent"),
        "diagnostics.pointwise_loglik_s": t("models.log_likelihood_pointwise", False),
        "diagnostics.ess_s": t("diagnostics.ess_report"),
        "diagnostics.lpml_waic_s": t("diagnostics.lpml") + t("diagnostics.waic"),
        "diagnostics.predictive_kl_s": (
            t("diagnostics.predictive_density") + t("diagnostics.kl_divergence")
        ),
        "harness.output_s": t("harness.emit_report") + t("harness.chain_to_csv"),
        "harness.output_bytes": call.output_bytes,
        "datagen.make_dataset_s": t("datagen.make_dataset"),
        "samplers.mean_E": call.mean_E,
        "samplers.evals_per_ess": evals / ess if ess > 0 else math.inf,
        "trace.wall_s": call.wall,
    }
    # Shares behind the workload claims; reported, not gated.
    sample_s = m["samplers.sample_s"]
    diag_s = (
        m["diagnostics.pointwise_loglik_s"] + m["diagnostics.ess_s"]
        + m["diagnostics.lpml_waic_s"] + m["diagnostics.predictive_kl_s"]
    )
    shares = {
        "logp_and_grad_of_sampler": t("models.logp_and_grad", True) / sample_s,
        "slice_steps_of_sampler": t("samplers.slice_step", True) / sample_s,
        "sampler_self_of_sampler": sampler_self / sample_s,
        "diagnostics_of_wall": diag_s / root_wall,
        "diagnostics_output_of_wall": (diag_s + m["harness.output_s"]) / root_wall,
        "self_sum_of_wall": sum(selfs) / call.wall,
    }
    return {"metrics": m, "shares": shares, "counts": dict(spans.call_counts(run_spans))}


def timed_calls(runner: Runner, seeds: list[int], seconds: float) -> list[Call]:
    """Rounds over ``seeds`` until another round would overrun ``seconds``."""
    calls = []
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        calls += [runner.call(s) for s in seeds]
        now = time.perf_counter()
        if now + (now - t_round) > t_start + seconds:
            return calls


def summarize(calls: list[Call]) -> dict:
    ok = [c for c in calls if not c.errors]
    walls = [c.wall for c in ok]
    by_seed = {}
    for c in ok:
        by_seed.setdefault(c.seed, []).append(c.wall)
    return {
        "wall_s": walls,
        "wall_by_seed": by_seed,
        "probe_s": [p for c in ok for p in c.probes],
        "it_per_s": [c.n_iter / c.t_s for c in ok],
        "ess_per_s": [c.mean_E * c.n_samples / c.t_s for c in ok],
        "mean_E": {c.seed: c.mean_E for c in ok},
        "digests": {c.seed: c.digest for c in ok},
    }


def relative_wall(summary: dict) -> float:
    """Median call wall time over the mean speed-probe time around the same calls."""
    return statistics.median(summary["wall_s"]) / statistics.fmean(summary["probe_s"])


def run_untraced(runner: Runner, seed: int, seconds: float) -> dict:
    calls = timed_calls(runner, runner.wl.seeds(seed), seconds)
    return {"calls": calls, **summarize(calls)}


def run_traced(runner: Runner, seed: int, seconds: float) -> dict:
    wl = runner.wl
    seed0 = wl.seeds(seed)[0]
    untraced = timed_calls(runner, [seed0], 0.4 * seconds)
    base = summarize(untraced)
    tracer = spans.Tracer()
    instrument(tracer)
    traced, layers = [], []
    try:
        root = tracer.wrap("harness.run_experiment", run_experiment)
        for run_id in (1, 2):
            tracer.run = run_id
            traced.append(runner.call(seed0, entry=root))
    finally:
        tracer.restore()
    for run_id, call in zip((1, 2), traced):
        if not call.errors:
            layers.append(layer_metrics(tracer.of_run(run_id), call, wl.backend))
    checks = []
    if len(layers) == 2:
        if layers[0]["counts"] != layers[1]["counts"]:
            checks.append("span counts differ between the two traced calls")
        for lay in layers:
            if abs(lay["shares"]["self_sum_of_wall"] - 1.0) > 0.03:
                checks.append(
                    f"self times sum to {lay['shares']['self_sum_of_wall']:.4f} of traced wall"
                )
    result = {"calls": untraced + traced, "checks": checks, "spans": tracer.spans}
    if not layers or not base["wall_s"]:
        return result
    metrics = dict(layers[0]["metrics"])
    for key in metrics:
        if key.endswith(("_s", ".us", "_us")):
            metrics[key] = statistics.median(lay["metrics"][key] for lay in layers)
    metrics["trace.overhead"] = relative_wall(summarize(traced)) / relative_wall(base) - 1.0
    metrics["samplers.ess_per_s"] = statistics.median(base["ess_per_s"])
    result.update(
        metrics=metrics,
        shares={k: statistics.median(lay["shares"][k] for lay in layers) for k in layers[0]["shares"]},
        counts=layers[0]["counts"],
        digests=base["digests"],
    )
    return result


def setup_only(wl: Workload, seed: int) -> None:
    cfg = config(wl, wl.seeds(seed)[0])
    dataset = harness.make_dataset(cfg)
    get_model(
        cfg.prior, dataset, H=cfg.H,
        parameterization=harness.MIXTURE_PARAMETERIZATION.get(wl.backend, "marginal"),
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.setup_only:
        setup_only(wl, args.seed)
        return 0

    # mm-gibbs keeps every draw (n_thin=1) on purpose; the harness warns about it.
    warnings.filterwarnings("ignore", message="chain thinned by")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(wl, args.out_dir)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        runner.call(wl.seeds(args.seed)[0], tiny=True)  # imports and first-use costs
    if wl.family == "LR":  # load or compute the references before any timing
        for s in wl.seeds(args.seed):
            runner.reference(s)

    run = run_traced if args.trace else run_untraced
    res = run(runner, args.seed, args.seconds)
    calls = res.pop("calls")
    trace_spans = res.pop("spans", None)
    if trace_spans is not None:
        spans.write_csv(trace_spans, args.out_dir / f"spans-{wl.name}-seed{args.seed}.csv.gz")
    per_seed = sorted(res.get("digests", {}).items())
    out = {
        "attempted": len(calls),
        "failed": sum(1 for c in calls if c.errors),
        "errors": sorted({e for c in calls for e in c.errors}),
        "digest": hashlib.sha256("".join(d for _, d in per_seed).encode()).hexdigest(),
        "seed_digests": dict(per_seed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "mcmcbench": getattr(mcmcbench, "__version__", ""),
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
        },
        **res,
    }
    print(json.dumps(out, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
