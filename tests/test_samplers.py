import math

import numpy as np
import pytest
from scipy import stats

from mcmcbench import diagnostics
from mcmcbench.models import get_model
from mcmcbench.models.linear import gen_linear
from mcmcbench.params import Block, ParamSpace
from mcmcbench.samplers import SamplerConfig, chain_rng, nuts, run
from mcmcbench.samplers.nuts import leapfrog
from mcmcbench.samplers.slice_sampling import slice_step


class GaussianTarget:
    """Analytic multivariate normal target for sampler calibration tests."""

    is_latent = False
    has_gradient = True

    def __init__(self, mean, cov):
        self.mean = np.asarray(mean, dtype=float)
        self.cov = np.asarray(cov, dtype=float)
        self.prec = np.linalg.inv(self.cov)
        self.space = ParamSpace([Block("x", self.mean.size)])
        self.n = 1

    @property
    def dim(self):
        return self.mean.size

    def initial_params(self):
        return {"x": np.zeros(self.dim)}

    def initial_u(self):
        return np.zeros(self.dim)

    def log_posterior_u(self, u):
        d = u - self.mean
        return -0.5 * float(d @ self.prec @ d)

    def logp_and_grad(self, u):
        d = u - self.mean
        g = -self.prec @ d
        return -0.5 * float(d @ g * -1.0), g

    def gibbs_scan(self, state, rng, slice_fn):
        # exact normal full conditionals
        x = state["x"]
        for j in range(self.dim):
            others = [i for i in range(self.dim) if i != j]
            cond_var = 1.0 / self.prec[j, j]
            cond_mean = self.mean[j] - cond_var * self.prec[j, others] @ (
                x[others] - self.mean[others]
            )
            x[j] = rng.normal(cond_mean, math.sqrt(cond_var))


class SliceGaussianTarget(GaussianTarget):
    """The same target, each coordinate advanced by the Gibbs backend's slice step."""

    def gibbs_scan(self, state, rng, slice_fn):
        x = state["x"]
        for j in range(self.dim):
            others = [i for i in range(self.dim) if i != j]
            cond_var = 1.0 / self.prec[j, j]
            cond_mean = self.mean[j] - cond_var * self.prec[j, others] @ (
                x[others] - self.mean[others]
            )

            def logpdf(v, m=cond_mean, s2=cond_var):
                return -0.5 * (v - m) ** 2 / s2

            x[j] = slice_fn(logpdf, x[j], f"x[{j}]")


def corr2(rho=0.9):
    return GaussianTarget([1.0, -2.0], [[1.0, rho], [rho, 1.0]])


def cfg_for(backend, n_iter=6000, n_burn=1000, seed=0, **kw):
    return SamplerConfig(backend=backend, n_iter=n_iter, n_burn=n_burn, n_thin=2,
                         seed=seed, **kw)


# ---------------------------------------------------------------------------
# slice sampling


def test_slice_standard_normal_moments():
    rng = chain_rng(0)
    logdens = lambda x: -0.5 * x * x  # noqa: E731
    x = 0.0
    draws = np.empty(20_000)
    for i in range(draws.size):
        x = slice_step(logdens, x, rng=rng)
        draws[i] = x
    assert abs(draws.mean()) < 0.03
    assert abs(draws.var() - 1.0) < 0.05


def test_slice_uniform_target():
    rng = chain_rng(1)
    logdens = lambda x: 0.0 if 2.0 <= x <= 5.0 else -math.inf  # noqa: E731
    x = 3.0
    draws = np.empty(10_000)
    for i in range(draws.size):
        x = slice_step(logdens, x, rng=rng)
        draws[i] = x
    assert draws.min() >= 2.0 and draws.max() <= 5.0
    assert abs(draws.mean() - 3.5) < 0.05
    stat = stats.kstest(draws[::10], stats.uniform(2.0, 3.0).cdf).statistic
    assert stat < 0.06


def test_slice_bimodal_visits_both_modes():
    rng = chain_rng(2)

    def logdens(x):
        return float(np.logaddexp(-0.5 * (x + 4.0) ** 2, -0.5 * (x - 4.0) ** 2))

    x = -4.0
    draws = np.empty(20_000)
    for i in range(draws.size):
        x = slice_step(logdens, x, rng=rng)
        draws[i] = x
    frac_right = np.mean(draws > 0)
    assert 0.4 < frac_right < 0.6


def test_slice_requires_finite_start():
    with pytest.raises(ValueError):
        slice_step(lambda x: -math.inf, 0.0, rng=chain_rng(3), block="beta[0]")


@pytest.mark.parametrize("max_steps,n_steps", [(1, 160_000), (2, 40_000)])
def test_slice_finite_budget_exact(max_steps, n_steps):
    # A budget of one or two widths w=1 on N(0, 3^2) rarely brackets the
    # slice, yet stepping out stays exact.  At max_steps=1 a step moves less
    # than w, so its chain needs four times the steps for the same precision.
    rng = chain_rng(17)
    logdens = lambda x: -0.5 * (x / 3.0) ** 2  # noqa: E731
    x = 0.0
    draws = np.empty(n_steps)
    for i in range(n_steps):
        x = slice_step(logdens, x, rng=rng, w=1.0, max_steps=max_steps)
        draws[i] = x
    mcse = draws.std() / math.sqrt(diagnostics.ess(draws))
    assert abs(draws.mean()) < 4.0 * mcse
    assert abs(draws.std() / 3.0 - 1.0) < 0.05
    thinned = draws[:: n_steps // 400]
    assert stats.kstest(thinned, stats.norm(0.0, 3.0).cdf).statistic < 0.1


# ---------------------------------------------------------------------------
# leapfrog


def _quad_logp_and_grad(prec):
    return lambda q: (-0.5 * float(q @ prec @ q), -prec @ q)


def test_leapfrog_reversibility():
    prec = np.array([[2.0, 0.3], [0.3, 1.0]])
    logp_and_grad = _quad_logp_and_grad(prec)
    q0 = np.array([0.5, -1.0])
    p0 = np.array([1.0, 0.2])
    q, p = q0, p0
    g = logp_and_grad(q)[1]
    for _ in range(25):
        q, p, _, g = leapfrog(logp_and_grad, q, p, g, 0.1)
    q, p = q, -p
    for _ in range(25):
        q, p, _, g = leapfrog(logp_and_grad, q, p, g, 0.1)
    np.testing.assert_allclose(q, q0, atol=1e-12)
    np.testing.assert_allclose(-p, p0, atol=1e-12)


def test_leapfrog_energy_error_scales_quadratically():
    prec = np.array([[2.0, 0.3], [0.3, 1.0]])
    logp_and_grad = _quad_logp_and_grad(prec)

    def energy(q, p):
        return 0.5 * float(q @ prec @ q) + 0.5 * float(p @ p)

    q0 = np.array([1.0, -0.5])
    p0 = np.array([0.3, 0.8])
    errs = []
    for eps in (0.1, 0.05, 0.025):
        q, p = q0.copy(), p0.copy()
        g = logp_and_grad(q)[1]
        n = int(round(1.0 / eps))  # fixed integration time
        for _ in range(n):
            q, p, _, g = leapfrog(logp_and_grad, q, p, g, eps)
        errs.append(abs(energy(q, p) - energy(q0, p0)))
    # halving eps should cut the energy error by about 4
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


# ---------------------------------------------------------------------------
# backends on an analytic 2-D correlated Gaussian


@pytest.mark.parametrize("backend", ["rwmh", "gibbs", "nuts"])
def test_backend_recovers_correlated_gaussian(backend):
    target = corr2(0.9)
    n_iter = 20_000 if backend == "rwmh" else 6000
    chain = run(backend, target, cfg_for(backend, n_iter=n_iter, seed=4))
    xs = chain.samples
    se = 3.0 * np.sqrt(np.diag(target.cov)) / np.sqrt(
        np.array([diagnostics.ess(xs[:, j]) for j in range(2)])
    )
    np.testing.assert_array_less(np.abs(xs.mean(axis=0) - target.mean), se)
    cov = np.cov(xs.T)
    np.testing.assert_allclose(cov, target.cov, atol=0.15)


def test_nuts_high_efficiency_on_standard_normal():
    target = GaussianTarget(np.zeros(10), np.eye(10))
    chain = run("nuts", target, cfg_for("nuts", n_iter=10_000, n_burn=5000, seed=5))
    assert chain.n_samples == 2500
    rep = diagnostics.ess_report(chain, "x")
    assert rep.mean_E >= 0.8


# ---------------------------------------------------------------------------
# Gibbs slice steps with widths tuned in burn-in


def slice_gauss3():
    sd = np.array([0.5, 1.0, 2.0])
    corr = np.array([[1.0, 0.5, -0.3], [0.5, 1.0, 0.2], [-0.3, 0.2, 1.0]])
    return SliceGaussianTarget([1.0, -2.0, 0.5], corr * np.outer(sd, sd))


def test_gibbs_slice_recovers_gaussian():
    target = slice_gauss3()
    chain = run("gibbs", target, cfg_for("gibbs", n_iter=8000, n_burn=1000, seed=18))
    xs = chain.samples
    sd = np.sqrt(np.diag(target.cov))
    mcse = sd / np.sqrt(np.array([diagnostics.ess(xs[:, j]) for j in range(3)]))
    np.testing.assert_array_less(np.abs(xs.mean(axis=0) - target.mean), 4.0 * mcse)
    # each entry within 0.15 on the correlation scale
    np.testing.assert_allclose(np.cov(xs.T) / np.outer(sd, sd), target.cov / np.outer(sd, sd),
                               atol=0.15)
    width = chain.stats["slice_width"]
    assert list(width) == ["x[0]", "x[1]", "x[2]"]
    # the tuned widths follow the conditional scales
    assert width["x[0]"] < width["x[1]"] < width["x[2]"]


def test_gibbs_slice_widths_freeze_after_burn_in():
    target = slice_gauss3()
    short = run("gibbs", target, cfg_for("gibbs", n_iter=400, n_burn=200, seed=19))
    long = run("gibbs", target, cfg_for("gibbs", n_iter=800, n_burn=200, seed=19))
    assert short.stats["slice_width"] == long.stats["slice_width"]
    assert all(w != 1.0 for w in short.stats["slice_width"].values())


def test_gibbs_slice_width_untuned_without_burn_in():
    chain = run("gibbs", slice_gauss3(), cfg_for("gibbs", n_iter=200, n_burn=0, seed=20))
    assert chain.stats["slice_width"] == {"x[0]": 1.0, "x[1]": 1.0, "x[2]": 1.0}


# ---------------------------------------------------------------------------
# bookkeeping


SCHEDULE_DEFAULTS = [
    (11000, 1000, 5000),
    (15000, 5000, 5000),
    (20000, 10000, 5000),
    (15000, 10000, 2500),
    (10000, 5000, 2500),
]


@pytest.mark.parametrize("n_iter,n_burn,n_s", SCHEDULE_DEFAULTS)
def test_sample_count_identity(n_iter, n_burn, n_s):
    cfg = SamplerConfig(backend="gibbs", n_iter=n_iter, n_burn=n_burn, n_thin=2, seed=0)
    assert cfg.n_samples == (n_iter - n_burn) // 2 == n_s


def test_retention_rule():
    cfg = SamplerConfig(backend="gibbs", n_iter=20, n_burn=10, n_thin=2, seed=0)
    kept = [it for it in range(1, 21) if cfg.keep(it)]
    assert kept == [12, 14, 16, 18, 20]
    assert len(kept) == cfg.n_samples


def test_indivisible_schedule_rejected():
    with pytest.raises(ValueError):
        SamplerConfig(backend="gibbs", n_iter=11, n_burn=4, n_thin=2, seed=0)
    with pytest.raises(ValueError):  # n_samples 6, but only 5 iterations kept
        SamplerConfig(backend="gibbs", n_iter=10, n_burn=-2, n_thin=2, seed=0)
    with pytest.raises(ValueError):
        SamplerConfig(backend="gibbs", n_iter=0, n_burn=-2, n_thin=2, seed=0)


@pytest.mark.parametrize("backend", ["rwmh", "gibbs", "nuts"])
def test_chain_shapes_and_metadata(backend):
    ds = gen_linear(25, 3, seed=6)
    model = get_model("LM-C", ds)
    chain = run(backend, model, cfg_for(backend, n_iter=400, n_burn=100, seed=7))
    assert chain.samples.shape == (150, 4)
    assert chain.names == ["beta[0]", "beta[1]", "beta[2]", "sigma2"]
    assert chain.backend == backend
    assert chain.t_s > 0
    assert np.all(chain.col("sigma2") > 0)


# ---------------------------------------------------------------------------
# determinism


@pytest.mark.parametrize("backend", ["rwmh", "gibbs", "nuts"])
def test_seed_determinism(backend):
    ds = gen_linear(25, 3, seed=8)

    def one():
        model = get_model("LM-WI", ds)
        return run(backend, model, cfg_for(backend, n_iter=300, n_burn=100, seed=9))

    a, b = one(), one()
    np.testing.assert_array_equal(a.samples, b.samples)
    c = run(backend, get_model("LM-WI", ds), cfg_for(backend, n_iter=300, n_burn=100, seed=10))
    assert not np.array_equal(a.samples, c.samples)


def test_unknown_backend():
    with pytest.raises(ValueError):
        run("stan", corr2(), cfg_for("gibbs"))


# ---------------------------------------------------------------------------
# conjugate recovery (small version; the full check lives in the acceptance suite)


def test_gibbs_matches_closed_form_lmc(lmc_posterior):
    ds = gen_linear(50, 3, seed=11)
    model = get_model("LM-C", ds)
    post = lmc_posterior(ds.X, ds.y, model.hyper)
    chain = run("gibbs", model, cfg_for("gibbs", n_iter=4000, n_burn=1000, seed=12))
    for j in range(3):
        col = chain.col(f"beta[{j}]")
        mc_se = math.sqrt(post.beta_var[j] / diagnostics.ess(col))
        assert abs(col.mean() - post.beta_hat[j]) < 3.0 * mc_se
    s2 = chain.col("sigma2")
    assert abs(s2.mean() - post.sigma2_mean) / post.sigma2_mean < 0.1
    assert chain.stats == {}  # a fully conjugate scan tunes no slice width


def test_rwmh_acceptance_near_target():
    ds = gen_linear(100, 4, seed=13)
    model = get_model("LM-C", ds)
    chain = run("rwmh", model, cfg_for("rwmh", n_iter=8000, n_burn=4000, seed=14))
    acc = chain.stats["acceptance"]
    assert 0.1 < acc["beta"] < 0.45  # block target 0.234
    assert 0.25 < acc["sigma2"] < 0.65  # scalar target 0.44


def test_nuts_reports_adaptation_stats():
    target = corr2()
    chain = run("nuts", target, cfg_for("nuts", n_iter=1000, n_burn=500, seed=15))
    assert chain.stats["step_size"] > 0
    assert chain.stats["n_divergent"] == 0
    assert chain.stats["mean_tree_depth"] >= 1.0


def test_nuts_tree_depth_cap(monkeypatch):
    monkeypatch.setattr(nuts, "MAX_TREE_DEPTH", 3)
    # Variances from 1 to 100: the step size fits the narrowest direction, so
    # trajectories after warm-up still want more than 2**3 leapfrog steps.
    target = GaussianTarget(np.zeros(10), np.diag(np.logspace(0, 2, 10)))
    chain = run("nuts", target, cfg_for("nuts", n_iter=400, n_burn=200, seed=16))
    assert chain.stats["n_max_depth"] > 0
    assert chain.stats["mean_tree_depth"] <= 3


def test_nuts_depth_stats_skip_warmup(monkeypatch):
    # On a standard normal the depth-3 cap is hit only while the step size
    # adapts (42 times in the first 200 iterations at this seed), and the
    # statistics count the iterations after warm-up, as Stan does.
    monkeypatch.setattr(nuts, "MAX_TREE_DEPTH", 3)
    target = GaussianTarget(np.zeros(50), np.eye(50))
    chain = run("nuts", target, cfg_for("nuts", n_iter=400, n_burn=200, seed=16))
    assert chain.stats["n_max_depth"] == 0
    assert chain.stats["mean_tree_depth"] == 3.0


class FreeParticle:
    """A flat target: trajectories run straight and never make a U-turn.

    Once ``calls`` is set to 0, the ``k``-th gradient call after that returns
    a log density of -inf, which makes that leaf diverge.
    """

    has_gradient = True

    def __init__(self, k, dim=3):
        self.k, self.dim, self.calls = k, dim, None

    def initial_u(self):
        return np.zeros(self.dim)

    def logp_and_grad(self, u):
        if self.calls is not None:
            self.calls += 1
            if self.calls == self.k:
                return -math.inf, np.zeros(self.dim)
        return 0.0, np.zeros(self.dim)


@pytest.mark.parametrize("k", [1, 2, 3, 6, 7, 11, 100])
def test_nuts_divergence_stops_the_trajectory_at_its_leaf(k):
    # Doublings of 1, 2, 4, ... leaves: the k-th leaf lies in the one that
    # brings the depth to ceil(log2(k + 1)), and nothing after it is built.
    target = FreeParticle(k)
    cfg = SamplerConfig(backend="nuts", n_iter=1, n_burn=0, n_thin=1, seed=0)
    step, _, stats = nuts.start(target, cfg, chain_rng(0))
    target.calls = 0
    step(1)
    assert target.calls == k
    assert stats()["n_divergent"] == 1
    assert stats()["n_max_depth"] == 0
    assert stats()["mean_tree_depth"] == math.ceil(math.log2(k + 1))


# One-step invariance: from exact draws x0 of the target, one NUTS transition
# with any fixed step size gives exact draws again.  The replicate count, the
# seed and the p-value bound were fixed before the test first ran; a failure is
# a finding about the kernel, not a reason to change them.
INVARIANCE_REPLICATES = 20_000
INVARIANCE_SEED = 2211
INVARIANCE_P_MIN = 1e-3


@pytest.mark.parametrize("eps", [0.9, 0.2])
def test_nuts_one_step_invariance(eps):
    # sds 1 and 3, correlation 0.9: the narrow axis (sd 0.42) makes eps = 0.9
    # an unstable leapfrog step that diverges often; eps = 0.2 builds deep trees
    sd = np.array([1.0, 3.0])
    target = GaussianTarget([1.0, -2.0], [[1.0, 0.9 * 3.0], [0.9 * 3.0, 9.0]])
    rng = chain_rng(INVARIANCE_SEED)
    x0 = rng.multivariate_normal(target.mean, target.cov, size=INVARIANCE_REPLICATES)
    x1 = np.empty_like(x0)
    for r, q in enumerate(x0):
        logp, grad = target.logp_and_grad(q)
        x1[r] = nuts._transition(target, q, logp, grad, eps, rng)[0]
    for j in range(2):
        p = stats.kstest(x1[:, j], "norm", args=(target.mean[j], sd[j])).pvalue
        assert p >= INVARIANCE_P_MIN, (j, p)
