"""End-to-end acceptance checks for the benchmark harness.

Each test exercises one headline guarantee of the package and records a
single ``ACCEPTANCE n <label>: PASS/FAIL`` line, echoed in the terminal
summary, before asserting.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest
from scipy.integrate import quad

from mcmcbench import datagen, diagnostics
from mcmcbench.diagnostics import ess, hard_shrinkage_select
from mcmcbench.harness import PRIORS, ExperimentConfig, make_dataset, run_experiment
from mcmcbench.models import get_model
from mcmcbench.models.aft import gen_aft
from mcmcbench.models.logistic import gen_logistic
from mcmcbench.models.mixture import gen_mixture
from mcmcbench.samplers import SamplerConfig, run
from mcmcbench.samplers.nuts import leapfrog


def _verdict(num: int, label: str, ok: bool, note: str = "") -> None:
    suffix = f" ({note})" if note else ""
    line = f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'}{suffix}"
    print(line, flush=True)
    try:
        from conftest import acceptance_lines

        acceptance_lines.append(line)
    except ImportError:
        pass
    assert ok, line


def test_1_conjugate_oracle_every_backend(lmc_posterior):
    """Posterior means of beta match the closed-form conjugate answer."""
    cfg = ExperimentConfig(prior="LM-C", n=100, p=4, seed=0)
    ds = make_dataset(cfg)
    oracle = lmc_posterior(ds.X, ds.y, PRIORS["LM-C"].hyper)
    reports = run_experiment(cfg)
    ok = True
    for backend, rep in reports.items():
        if rep.wall_clock >= 60.0:
            ok = False
        for j in range(cfg.p):
            draws = rep.chain.col(f"beta[{j}]")
            se = draws.std(ddof=1) / math.sqrt(ess(draws))
            if abs(draws.mean() - oracle.beta_hat[j]) > 3.0 * se:
                ok = False
    _verdict(1, "conjugate oracle, all backends within 3 MC SE", ok)


def test_2_sampler_efficiency_ordering():
    """Relative chain efficiency across backends, 4/5 seeds per setting."""

    def passes(prior, seed, **kw):
        cfg = ExperimentConfig(prior=prior, n=100, seed=seed, **kw)
        e = {b: r.ess.mean_E for b, r in run_experiment(cfg).items()}
        if prior == "LM-C":
            return e["gibbs"] >= 0.9 and e["nuts"] >= 0.7 and e["rwmh"] <= 0.5
        if prior == "LR-N":
            return e["nuts"] >= 0.5 and e["nuts"] > e["gibbs"] and e["nuts"] > e["rwmh"]
        return e["nuts"] >= 0.7 and e["nuts"] > e["gibbs"] > e["rwmh"]

    ok = True
    for prior, kw in [
        ("LM-C", {"p": 4}),
        ("LR-N", {"p": 16}),
        ("AFT-NH", {"p": 4, "k": 0.2}),
    ]:
        n_pass = sum(passes(prior, seed, **kw) for seed in range(5))
        if n_pass < 4:
            ok = False
    _verdict(2, "efficiency ordering gibbs/nuts/rwmh over 5 seeds", ok)


def test_3_mixture_predictive_fit():
    """Predictive KL against the generating mixture stays inside bands."""
    ok = True
    for rep in run_experiment(ExperimentConfig(prior="MM", n=100, H=2, seed=0)).values():
        if not rep.fit.kl < 0.15:
            ok = False
    for rep in run_experiment(ExperimentConfig(prior="MM", n=1000, H=4, seed=0)).values():
        if not rep.fit.kl < 0.05:
            ok = False
    _verdict(3, "mixture predictive KL bands", ok)


def test_4_lasso_variable_selection():
    """Hard shrinkage recovers the sparsity pattern of a lasso fit."""
    cfg = ExperimentConfig(
        prior="LM-L", n=1000, p=30, zero_pattern=15, backends=("nuts",), seed=0
    )
    truth = make_dataset(cfg).truth.beta
    kept = hard_shrinkage_select(run_experiment(cfg)["nuts"].chain)
    zeros = {j for j in range(cfg.p) if truth[j] == 0.0}
    nonzeros = set(range(cfg.p)) - zeros
    assert len(zeros) == 15
    ok = len(zeros - kept) >= 14 and len(nonzeros & kept) >= 14
    _verdict(4, "lasso hard shrinkage recovers 14/15 in both groups", ok)


def test_5_censoring_calibration():
    """Empirical censored fraction tracks the requested rate k."""
    ok = True
    for k in (0.2, 0.5, 0.8):
        ds = gen_aft(10_000, 4, k, seed=0)
        if abs(1.0 - ds.delta.mean() - k) > 0.015:
            ok = False
    _verdict(5, "censoring rate calibrated within 0.015", ok)


def test_6_cross_backend_lpml_consistency():
    """All backends agree on LPML for the conjugate linear model."""
    reports = run_experiment(ExperimentConfig(prior="LM-C", n=1000, p=4, seed=0))
    lpmls = [rep.fit.lpml for rep in reports.values()]
    spread = max(lpmls) - min(lpmls)
    ok = spread < 0.01 * abs(float(np.mean(lpmls)))
    _verdict(6, "cross-backend LPML spread below 1%", ok)


def test_7_property_suite():
    """Compact re-run of the core invariants the unit suites cover."""
    ok = True
    rng = np.random.default_rng(7)

    # density normalization: the likelihood of one observation integrates to 1
    # over y, for a two-component mixture and an uncensored AFT time
    mix = {
        "mu": np.array([-1.0, 2.5]),
        "sigma2": np.array([0.6, 2.0]),
        "v2": np.array([1.0]),
        "p": np.array([0.3, 0.7]),
    }
    aft = {"beta": np.array([0.2, -0.4]), "sigma": np.array([0.7])}

    def mm_lik(y):
        model = get_model("MM", datagen.Dataset(y=np.array([y])), H=2)
        return math.exp(model.log_likelihood_pointwise(mix)[0])

    def aft_lik(y):
        ds = datagen.Dataset(y=np.array([y]), X=np.array([[1.0, 0.5]]), delta=np.array([1]))
        return math.exp(get_model("AFT-NH", ds).log_likelihood_pointwise(aft)[0])

    for lik, lo, hi in [(mm_lik, -20, 20), (aft_lik, 0, 60)]:
        mass, _ = quad(lik, lo, hi)
        if abs(mass - 1.0) > 1e-6:
            ok = False

    # gradient vs central finite differences
    model = get_model("LR-N", gen_logistic(40, 3, seed=1))
    u0 = rng.normal(size=model.dim) * 0.3
    _, g = model.logp_and_grad(u0)
    h = 1e-6
    for i in range(model.dim):
        e = np.zeros(model.dim)
        e[i] = h
        fd = (model.logp_and_grad(u0 + e)[0] - model.logp_and_grad(u0 - e)[0]) / (2 * h)
        if abs(fd - g[i]) > 1e-5 * max(1.0, abs(g[i])):
            ok = False

    # leapfrog reversibility and O(eps^2) energy error
    cov = np.array([[1.0, 0.6], [0.6, 2.0]])
    prec = np.linalg.inv(cov)
    grad = lambda q: -prec @ q
    logp_and_grad = lambda q: (-0.5 * q @ prec @ q, grad(q))
    energy = lambda q, p: 0.5 * q @ prec @ q + 0.5 * p @ p
    q0, p0 = rng.normal(size=2), rng.normal(size=2)
    q1, p1, _, g1 = leapfrog(logp_and_grad, q0, p0, grad(q0), 0.1)
    qb, pb, _, _ = leapfrog(logp_and_grad, q1, -p1, g1, 0.1)
    if not (np.allclose(qb, q0, atol=1e-12) and np.allclose(-pb, p0, atol=1e-12)):
        ok = False
    errs = []
    for eps in (0.2, 0.1, 0.05):
        q, p = q0.copy(), p0.copy()
        g = grad(q)
        for _ in range(int(round(1.0 / eps))):
            q, p, _, g = leapfrog(logp_and_grad, q, p, g, eps)
        errs.append(abs(energy(q, p) - energy(q0, p0)))
    if not all(errs[i] / errs[i + 1] > 3.0 for i in range(2)):
        ok = False

    # ESS on iid draws and on an AR(1) chain with known autocorrelation
    iid = rng.normal(size=20_000)
    if abs(ess(iid) / iid.size - 1.0) > 0.15:
        ok = False
    rho, n = 0.9, 200_000
    ar = np.empty(n)
    ar[0] = rng.normal()
    shocks = rng.normal(size=n) * math.sqrt(1 - rho**2)
    for t in range(1, n):
        ar[t] = rho * ar[t - 1] + shocks[t]
    if abs(ess(ar) / (n * (1 - rho) / (1 + rho)) - 1.0) > 0.15:
        ok = False

    # LPML / WAIC log-space evaluation matches the direct formulas
    loglik = rng.normal(scale=0.5, size=(60, 9))
    lik = np.exp(loglik)
    lpml_naive = float(np.sum(np.log(1.0 / np.mean(1.0 / lik, axis=0))))
    lppd = float(np.sum(np.log(np.mean(lik, axis=0))))
    waic_naive = lppd - float(np.sum(np.var(loglik, axis=0, ddof=1)))
    if abs(diagnostics.lpml(loglik) - lpml_naive) > 1e-12:
        ok = False
    if abs(diagnostics.waic(loglik) - waic_naive) > 1e-12:
        ok = False

    # mixture: marginal likelihood equals brute-force sum over allocations,
    # and is invariant to permuting component labels
    import itertools

    from scipy.special import logsumexp

    ds = gen_mixture(8, 2, seed=3)
    marg = get_model("MM", ds, H=2, parameterization="marginal")
    params = {
        "mu": np.array([-1.0, 2.0]),
        "sigma2": np.array([1.3, 0.7]),
        "v2": np.array([1.0]),
        "p": np.array([0.35, 0.65]),
    }
    target = float(np.sum(marg.log_likelihood_pointwise(params)))
    per_comp = np.stack(
        [
            np.log(params["p"][h])
            - 0.5 * math.log(2 * math.pi * params["sigma2"][h])
            - (ds.y - params["mu"][h]) ** 2 / (2 * params["sigma2"][h])
            for h in range(2)
        ]
    )
    terms = [
        float(np.sum(per_comp[list(z), np.arange(8)]))
        for z in itertools.product(range(2), repeat=8)
    ]
    if abs(logsumexp(terms) - target) > 1e-10:
        ok = False
    flipped = {
        "mu": params["mu"][::-1].copy(),
        "sigma2": params["sigma2"][::-1].copy(),
        "v2": params["v2"],
        "p": params["p"][::-1].copy(),
    }
    if abs(float(np.sum(marg.log_likelihood_pointwise(flipped))) - target) > 1e-12:
        ok = False

    # retained-draw bookkeeping on every default schedule
    for n_iter, n_burn in {design.schedule for design in PRIORS.values()}:
        cfg = SamplerConfig(backend="gibbs", n_iter=n_iter, n_burn=n_burn, n_thin=2)
        if cfg.n_samples != (n_iter - n_burn) // 2:
            ok = False

    _verdict(7, "property suite (densities, gradients, ESS, IC, mixtures)", ok)


def test_8_parallel_chains_consistency():
    """Four parallel chains each match single-chain efficiency."""
    single = run_experiment(
        ExperimentConfig(prior="LM-C", n=1000, p=16, backends=("gibbs",), seed=0)
    )["gibbs"]
    multi = run_experiment(
        ExperimentConfig(
            prior="LM-C", n=1000, p=16, backends=("gibbs",), chains=4, seed=0
        )
    )["gibbs"]
    ok = all(
        abs(rep.mean_E - single.ess.mean_E) <= 0.1 for rep in multi.per_chain_ess
    )
    if os.cpu_count() >= 4:
        ok = ok and multi.wall_clock < 2.5 * single.t_s
        note = ""
    else:
        note = "wall-clock clause skipped: fewer than 4 cores"
    _verdict(8, "parallel chains match single-chain efficiency", ok, note)
