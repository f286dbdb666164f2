"""The benchmark's workloads: one ``run_experiment`` call each, one backend.

Every workload is a GRID cell of ``scripts/benchmark_grid.py`` run with a
single backend and ``chains=1``.  The schedule is shortened so that a run
fits in the benchmark's time budget; the ``--seed`` of a run fixes a short
list of sub-seeds, and each sub-seed fixes both the simulated dataset and
the chain (``ExperimentConfig.seed`` drives both).  Several sub-seeds per
run average out how much the work varies between datasets.

This module imports nothing from ``mcmcbench``, so run.py can read the
table without the package on its path.
"""

from __future__ import annotations

from dataclasses import dataclass

# Predictive-KL band of acceptance test 3 for MM n=1000 H=4.
KL_MAX = 0.05
# Posterior means of beta must lie within this many Monte Carlo standard
# errors of the reference means.
MCSE_BAND = 4.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    grid: dict  # ExperimentConfig fields of the GRID cell
    backend: str
    n_iter: int
    n_burn: int
    sub_seeds: int  # datasets per run
    n_thin: int = 2
    write_output: bool = False

    def seeds(self, seed: int) -> list[int]:
        """The sub-seeds (dataset and chain seeds) a run at ``seed`` uses."""
        return [seed * self.sub_seeds + j for j in range(self.sub_seeds)]

    @property
    def family(self) -> str:
        return "MM" if self.grid["prior"] == "MM" else "LR"


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="mm-nuts",
            why=(
                "MM n=1000 H=4 under NUTS (marginal): about 94% of sampling is the "
                "mixture logp_and_grad, ~30 calls per iteration; stresses models "
                "(mixture) and samplers.nuts, the path of acceptance test 3"
            ),
            grid=dict(prior="MM", n=1000, H=4),
            backend="nuts",
            # The gradient count per call varies by 10-20% between datasets
            # (tree depth 4 or 5); six datasets per run average part of it out.
            n_iter=200,
            n_burn=100,
            sub_seeds=6,
        ),
        Workload(
            name="lr-gibbs",
            why=(
                "LR-N n=100 p=16 under Gibbs: ~96% of time is slice steps, 16 per "
                "iteration of ~10 coordinate log-density calls; stresses "
                "samplers.slice_sampling and the LR kernel, the path of test 2"
            ),
            grid=dict(prior="LR-N", n=100, p=16),
            backend="gibbs",
            n_iter=1500,
            n_burn=500,
            sub_seeds=2,
        ),
        Workload(
            name="mm-gibbs",
            why=(
                "MM n=1000 H=4 under Gibbs (latent, all conjugate) with reports and "
                "chain CSVs written: diagnostics plus output are at least a third of "
                "wall; stresses diagnostics and harness output"
            ),
            grid=dict(prior="MM", n=1000, H=4),
            backend="gibbs",
            # Diagnostics cost per retained draw; no thinning and a short
            # burn-in give them at least a third of the wall time.
            n_iter=1500,
            n_burn=100,
            n_thin=1,
            sub_seeds=4,
            write_output=True,
        ),
        Workload(
            name="lr-rwmh",
            why=(
                "LR-N n=100 p=16 under RWMH: ~32 us per iteration, a third of it the "
                "sampler's own loop; stresses samplers.rwmh, params.constrain and "
                "log_posterior_u on the whole vector"
            ),
            grid=dict(prior="LR-N", n=100, p=16),
            backend="rwmh",
            # The chain mixes slowly (efficiency ~0.01 at thin 2): it must be
            # long for the 4-MCSE check to hold, and thinning by 10 keeps the
            # per-draw diagnostics under 5% of wall.  Its cost per iteration
            # does not depend on the dataset, so one sub-seed suffices.
            n_iter=120000,
            n_burn=40000,
            n_thin=10,
            sub_seeds=1,
        ),
    ]
}


# Metric name -> unit.  End-to-end metrics come from untraced runs, per-layer
# metrics from traced runs; BENCHMARK.json lists the same names and units.
# Chain efficiency (mean_E, ess_per_s, evals_per_ess) varies between seeds by
# more than any usable bound at these chain lengths, so it is a per-layer
# figure of the samplers layer, reported but not gated.
END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "models.logp_and_grad.calls": "count",
    "models.logp_and_grad.us": "us",
    "params.constrain.calls": "count",
    "params.constrain.us": "us",
    "models.slice_logdens.calls": "count",
    "models.slice_logdens.us": "us",
    "samplers.slice.steps_per_iter": "count",
    "samplers.slice.evals_per_step": "count",
    "models.log_posterior_u.calls": "count",
    "models.log_posterior_u.us": "us",
    "samplers.rwmh.accept_rate": "ratio",
    "samplers.self_s": "s",
    "samplers.sample_s": "s",
    "samplers.nuts.grads_per_iter": "count",
    "samplers.nuts.mean_tree_depth": "count",
    "samplers.nuts.n_divergent": "count",
    "models.gibbs_scan.calls": "count",
    "models.gibbs_scan.self_us": "us",
    "models.resample_latent.us": "us",
    "diagnostics.pointwise_loglik_s": "s",
    "diagnostics.ess_s": "s",
    "diagnostics.lpml_waic_s": "s",
    "diagnostics.predictive_kl_s": "s",
    "harness.output_s": "s",
    "harness.output_bytes": "B",
    "datagen.make_dataset_s": "s",
    "samplers.mean_E": "ratio",
    "samplers.ess_per_s": "1/s",
    "samplers.evals_per_ess": "count",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
}
