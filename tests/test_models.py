import itertools
import math

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import minimize
from scipy.special import logsumexp

from mcmcbench import datagen
from mcmcbench.harness import ExperimentConfig
from mcmcbench.models import PRIORS, aft, get_model, linear, logistic
from mcmcbench.models.base import UnsupportedOperationError, coordinate_logdens
from mcmcbench.models.aft import gen_aft
from mcmcbench.models.linear import HYPER_DEFAULTS, gen_linear
from mcmcbench.models.logistic import gen_logistic
from mcmcbench.models.mixture import gen_mixture


def rng(seed=0):
    return np.random.default_rng(seed)


def small_dataset(prior, seed=0, n=30, p=3, H=2, k=0.4):
    """The prior's data from its own generator, at the design fields it draws."""
    design = PRIORS[prior]
    values = {"p": p, "H": H, "k": k}
    return design.generate(n, seed=seed, **{f: values[f] for f in design.fields if f in values})


GRAD_MODELS = list(PRIORS)


def build(prior, seed=0, n=30, p=3, H=2):
    ds = small_dataset(prior, seed=seed, n=n, p=p, H=H)
    return get_model(prior, ds, H=H, parameterization="marginal")


@pytest.mark.parametrize("prior", list(PRIORS))
def test_prior_table_builds_its_model(prior):
    model = get_model(prior, small_dataset(prior), H=2)
    assert isinstance(model, PRIORS[prior].model)
    assert model.prior_id == prior
    assert model.family == ExperimentConfig(prior=prior).family
    with pytest.raises(ValueError, match="nope"):
        ExperimentConfig(prior=prior, hyper={"nope": 1.0})


# ---------------------------------------------------------------------------
# gradients


@pytest.mark.parametrize("prior", GRAD_MODELS)
def test_gradient_matches_finite_differences(prior):
    model = build(prior, seed=1)
    r = rng(2)
    for _ in range(20):
        u = model.initial_u() + 0.3 * r.standard_normal(model.dim)
        if prior in ("LM-L", "LR-L"):
            # keep away from the lasso kink where the subgradient is used
            beta_sl = model.space.u_slice("beta")
            u[beta_sl][np.abs(u[beta_sl]) < 1e-3] += 0.01
        value, grad = model.logp_and_grad(u)
        assert math.isfinite(value)
        h = 1e-6
        for j in range(model.dim):
            up, um = u.copy(), u.copy()
            up[j] += h
            um[j] -= h
            fd = (model.log_posterior_u(up) - model.log_posterior_u(um)) / (2 * h)
            assert abs(grad[j] - fd) / (1.0 + abs(grad[j])) < 1e-5, (prior, j)
        if prior == "MM":
            # the mixture's value path is the one log_posterior_u runs
            assert value == model.log_posterior_u(u)


def mixture_gradient_reference(model, u):
    """MM ``logp_and_grad`` gradient with exp(comp - logsumexp) responsibilities
    and ``math.fsum`` sums over the observations."""
    params, _, pullback = model.space.transform(u)
    h = model.hyper
    mu, s, p = params["mu"], params["sigma2"], params["p"]
    v2 = float(params["v2"][0])
    d = model.y - mu[:, None]
    comp = -0.5 * (d * d / s[:, None] + np.log(2.0 * math.pi * s)[:, None])
    comp += np.log(p)[:, None]
    W = np.exp(comp - logsumexp(comp, axis=0))

    def rows(a):
        return np.array([math.fsum(row) for row in a])

    g_mu = rows(W * d) / s - mu / v2
    g_s = (
        rows(W * (d * d / (2.0 * s**2)[:, None] - (0.5 / s)[:, None]))
        - (h["c0"] + 1.0) / s
        + h["d0"] / s**2
    )
    g_v2 = (
        math.fsum(-0.5 / v2 + mu * mu / (2.0 * v2**2))
        - (h["a0"] + 1.0) / v2
        + h["b0"] / v2**2
    )
    return pullback({"mu": g_mu, "sigma2": g_s, "v2": g_v2, "p": rows(W) / p})


@pytest.mark.parametrize("H", [2, 4])
def test_mixture_gradient_on_hard_parameters(H):
    """Narrow and wide components, far means and a weight of 1e-6."""
    model = get_model("MM", gen_mixture(1000, H, seed=7), H=H)
    r = rng(8)
    for k in range(20):
        g = r.gamma(1.0, 1.0, H)
        g[k % H] = 1e-6 * g.sum()
        params = {
            "mu": r.uniform(-8.0, 8.0, H),
            "sigma2": np.exp(r.uniform(math.log(1e-3), math.log(10.0), H)),
            "v2": np.exp(r.normal(0.0, 1.0, 1)),
            "p": g / g.sum(),
        }
        if k == 0:
            params["sigma2"][:2] = 1e-3, 10.0
        u = model.space.unconstrain(params)
        value, grad = model.logp_and_grad(u)
        assert value == model.log_posterior_u(u)
        ref = mixture_gradient_reference(model, u)
        scale = np.abs(ref).max()
        assert np.abs(grad - ref).max() <= 1e-12 * scale, (H, k)


@pytest.mark.parametrize("H", [2, 4])
def test_mixture_gradient_work_arrays_carry_nothing_over(H):
    # logp_and_grad reuses its (H, n) work arrays: a call after one at another
    # u must give the same bits, and must not touch a gradient already returned
    model = build("MM", seed=3, n=50, H=H)
    r = rng(5)
    u1, u2 = (model.initial_u() + r.standard_normal(model.dim) for _ in range(2))
    v1, g1 = model.logp_and_grad(u1)
    g1_before = g1.copy()
    v2, _ = model.logp_and_grad(u2)
    np.testing.assert_array_equal(g1, g1_before)
    v3, g3 = model.logp_and_grad(u1)
    assert v3 == v1
    np.testing.assert_array_equal(g3, g1_before)
    np.testing.assert_array_equal(g1, g1_before)
    assert v1 == model.log_posterior_u(u1)
    assert v2 == model.log_posterior_u(u2)


def check_far_out_gives_numpy_inf_and_nan(model):
    # where exp under- or overflows, or a square passes the largest float, the
    # gradient takes the inf or nan of numpy arithmetic instead of raising,
    # and the value is log_posterior_u's, which raises nowhere either
    u0 = model.initial_u()
    with np.errstate(all="ignore"):
        for j, x in itertools.product(range(model.dim), (-800.0, -400.0, 356.0, 400.0, 800.0)):
            u = u0.copy()
            u[j] = x
            value, grad = model.logp_and_grad(u)
            assert grad.shape == (model.dim,)
            np.testing.assert_equal(value, model.log_posterior_u(u), err_msg=f"u[{j}]={x}")


@pytest.mark.parametrize("H", [2, 4])
def test_mixture_gradient_far_out_gives_numpy_inf_and_nan(H):
    check_far_out_gives_numpy_inf_and_nan(build("MM", seed=3, n=50, H=H))


@pytest.mark.parametrize("prior", [m for m in GRAD_MODELS if m != "MM"])
def test_gradient_far_out_gives_numpy_inf_and_nan(prior):
    check_far_out_gives_numpy_inf_and_nan(build(prior, seed=3, n=50))


def test_gradient_vanishes_at_mode():
    model = build("LR-N", seed=3, n=60, p=3)
    res = minimize(
        lambda u: -model.log_posterior_u(u),
        model.initial_u(),
        jac=lambda u: -model.logp_and_grad(u)[1],
        method="BFGS",
        options={"gtol": 1e-10},
    )
    _, grad = model.logp_and_grad(res.x)
    assert np.linalg.norm(grad) < 1e-4


def test_lr_hand_gradient():
    # single observation y=1, x=1, beta=0: dl/dbeta = 1 - sigmoid(0) = 0.5
    # plus the prior term -beta/b0^2 = 0
    ds = datagen.Dataset(y=np.array([1.0]), X=np.array([[1.0]]),
                         truth=datagen.GroundTruth(beta=np.array([1.0])))
    model = get_model("LR-N", ds)
    _, grad = model.logp_and_grad(np.array([0.0]))
    assert grad[0] == pytest.approx(0.5, abs=1e-12)


def test_latent_mixture_has_no_gradient():
    ds = gen_mixture(20, 2, seed=0)
    model = get_model("MM", ds, H=2, parameterization="latent")
    assert not model.has_gradient
    with pytest.raises(UnsupportedOperationError):
        model.logp_and_grad(model.initial_u())


def test_unknown_hyper_key_rejected():
    with pytest.raises(ValueError, match="b2"):
        get_model("LR-N", small_dataset("LR-N"), hyper={"b2": 5.0})


# ---------------------------------------------------------------------------
# log-posterior hand checks


def test_lmc_hand_value_single_obs():
    # n=1, p=1, x=1, y=0, beta=0, sigma2=1:
    # log N(0|0,1) likelihood + log N(0|0, sigma2*sigma02)=N(0|0,1) prior
    # + log IG(1 | eta0/2, eta0*sigma02/2), plus the log-Jacobian of
    # sigma2 = exp(u) at u=0 (which is 0)
    ds = datagen.Dataset(y=np.array([0.0]), X=np.array([[1.0]]),
                         truth=datagen.GroundTruth())
    model = get_model("LM-C", ds)
    h = HYPER_DEFAULTS["LM-C"]
    u = model.space.unconstrain({"beta": np.array([0.0]), "sigma2": np.array([1.0])})
    expected = (
        stats.norm.logpdf(0.0)
        + stats.norm.logpdf(0.0)
        + stats.invgamma.logpdf(1.0, h["eta0"] / 2.0, scale=h["eta0"] * h["sigma02"] / 2.0)
        + 0.0
    )
    assert model.log_posterior_u(u) == pytest.approx(expected, abs=1e-10)


def test_posterior_decreases_away_from_truth():
    ds = gen_linear(200, 3, seed=5)
    model = get_model("LM-WI", ds)
    params_true = {
        "beta": ds.truth.beta,
        "sigma": np.array([math.sqrt(ds.truth.sigma2)]),
    }
    u_true = model.space.unconstrain(params_true)
    far = dict(params_true, beta=ds.truth.beta + 10.0)
    u_far = model.space.unconstrain(far)
    assert model.log_posterior_u(u_true) > model.log_posterior_u(u_far)


def test_aft_all_censored_only_survival_terms():
    ds = gen_aft(40, 3, 0.5, seed=6)
    ds = datagen.Dataset(y=ds.y, X=ds.X, delta=np.zeros_like(ds.delta), truth=ds.truth)
    model = get_model("AFT-NH", ds)
    beta = 0.1 * np.ones(3)
    sigma = 1.7
    pw = model.log_likelihood_pointwise({"beta": beta, "sigma": np.array([sigma])})
    lam = math.log(2.0) * np.exp(-(ds.X @ beta) / sigma)
    expected = -lam * ds.y ** (1.0 / sigma)
    np.testing.assert_allclose(pw, expected, atol=1e-10)


def test_aft_uncensored_matches_weibull_density():
    ds = gen_aft(30, 3, 0.3, seed=7)
    ds = datagen.Dataset(y=ds.y, X=ds.X, delta=np.ones_like(ds.delta), truth=ds.truth)
    model = get_model("AFT-NH", ds)
    beta = np.array([0.2, -0.1, 0.4])
    sigma = 1.3
    pw = model.log_likelihood_pointwise({"beta": beta, "sigma": np.array([sigma])})
    # T ~ Weibull with density a l t^(a-1) exp(-l t^a), a = 1/sigma and
    # l = log(2) exp(-x'beta/sigma): scipy's weibull_min with scale l^(-sigma)
    lam = math.log(2.0) * np.exp(-(ds.X @ beta) / sigma)
    expected = stats.weibull_min.logpdf(ds.y, 1.0 / sigma, scale=lam**-sigma)
    np.testing.assert_allclose(pw, expected, atol=1e-10)


def test_aft_intercept_only_hand_value():
    # x'beta = 0 and sigma = 1 reduce T to Weibull(1, ln 2):
    # log f(y) = ln ln 2 - (ln 2) y
    ds = datagen.Dataset(
        y=np.array([1.5]), X=np.array([[1.0]]), delta=np.array([1]),
        truth=datagen.GroundTruth(),
    )
    model = get_model("AFT-NH", ds)
    pw = model.log_likelihood_pointwise({"beta": np.array([0.0]), "sigma": np.array([1.0])})
    assert pw[0] == pytest.approx(math.log(math.log(2.0)) - math.log(2.0) * 1.5, abs=1e-12)


# ---------------------------------------------------------------------------
# both sides of each likelihood: draws of ``simulate`` against the density code

# Fixed before the first run: the seed, the draws per case, the draws per
# logistic design row, and one bound on every p-value.
SIMULATE_SEED, SIMULATE_N, SIMULATE_LR_REPS, SIMULATE_P_MIN = 2604, 4000, 5000, 1e-3


def _design(r):
    return np.column_stack([np.ones(SIMULATE_N), r.standard_normal((SIMULATE_N, 2))])


def _simulate_lm(r):
    # standardized residuals are N(0, 1), under the sigma2 block of LM-C and
    # LM-L and under the sigma block of LM-WI and LM-NI
    X, beta = _design(r), np.array([1.5, -2.0, 0.5])
    p_values = []
    for block, value, sigma in (("sigma2", 3.0, math.sqrt(3.0)), ("sigma", 0.7, 0.7)):
        y = linear.simulate({"beta": beta, block: np.array([value])}, X, r)
        p_values.append(stats.kstest((y - X @ beta) / sigma, stats.norm.cdf).pvalue)
    return p_values


def _simulate_lr(r):
    # the frequency of y = 1 on each design row against exp of the model's
    # log-likelihood of y = 1 there, by a binomial z
    rows, beta = np.array([[1.0, -2.0], [1.0, -0.5], [1.0, 0.5], [1.0, 2.0]]), np.array([0.3, -1.2])
    y = logistic.simulate({"beta": beta}, np.repeat(rows, SIMULATE_LR_REPS, axis=0), r)
    freq = y.reshape(len(rows), SIMULATE_LR_REPS).mean(axis=1)
    ones = get_model("LR-N", datagen.Dataset(y=np.ones(len(rows)), X=rows))
    prob = np.exp(ones.log_likelihood_pointwise({"beta": beta}))
    z = (freq - prob) / np.sqrt(prob * (1.0 - prob) / SIMULATE_LR_REPS)
    return 2.0 * stats.norm.sf(np.abs(z))


def _simulate_aft(r):
    # the model's cumulative hazard of each event time is Exp(1)
    X, beta, sigma = _design(r), np.array([0.4, -0.7, 0.2]), 1.6
    t = aft.simulate({"beta": beta, "sigma": np.array([sigma])}, X, r)
    return [stats.kstest(aft._cum_hazard(np.log(t), X @ beta, sigma), stats.expon.cdf).pvalue]


@pytest.mark.parametrize("case", [_simulate_lm, _simulate_lr, _simulate_aft],
                         ids=["LM", "LR", "AFT"])
def test_simulate_agrees_with_density(case):
    assert min(case(rng(SIMULATE_SEED))) > SIMULATE_P_MIN


# ---------------------------------------------------------------------------
# structural consistency


@pytest.mark.parametrize("prior", GRAD_MODELS)
def test_pointwise_sum_and_transform_consistency(prior):
    model = build(prior, seed=8)
    u = model.initial_u() + 0.1 * rng(9).standard_normal(model.dim)
    params, log_jac, _ = model.space.transform(u)
    pointwise = model.log_likelihood_pointwise(params)
    assert pointwise.shape == (model.n,)
    total = model.log_posterior_u(u)
    assert total == pytest.approx(
        float(np.sum(pointwise)) + model.log_prior(params) + log_jac,
        abs=1e-10,
    )


def test_mm_pointwise_identical_components():
    ds = datagen.Dataset(y=np.array([0.0]), truth=datagen.GroundTruth())
    model = get_model("MM", ds, H=2)
    params = {
        "mu": np.zeros(2),
        "sigma2": np.ones(2),
        "v2": np.array([1.0]),
        "p": np.array([0.5, 0.5]),
    }
    pw = model.log_likelihood_pointwise(params)
    assert pw[0] == pytest.approx(stats.norm.logpdf(0.0), abs=1e-12)


def test_mixture_marginal_equals_latent_brute_force():
    ds = gen_mixture(7, 2, seed=10)
    model = get_model("MM", ds, H=2, parameterization="latent")
    params = {
        "mu": np.array([-0.8, 1.4]),
        "sigma2": np.array([0.9, 1.3]),
        "v2": np.array([2.0]),
        "p": np.array([0.35, 0.65]),
    }
    marginal = float(np.sum(model.log_likelihood_pointwise(params)))
    joints = [
        model.log_joint_given_z(params, np.array(z))
        for z in itertools.product(range(2), repeat=ds.n)
    ]
    assert logsumexp(joints) == pytest.approx(marginal, abs=1e-10)


def test_mixture_label_permutation_invariance():
    ds = gen_mixture(25, 2, seed=11)
    model = get_model("MM", ds, H=2)
    params = {
        "mu": np.array([-0.5, 1.2]),
        "sigma2": np.array([1.1, 0.7]),
        "v2": np.array([1.5]),
        "p": np.array([0.4, 0.6]),
    }
    swapped = {
        "mu": params["mu"][::-1].copy(),
        "sigma2": params["sigma2"][::-1].copy(),
        "v2": params["v2"],
        "p": params["p"][::-1].copy(),
    }
    a = model.log_likelihood_pointwise(params)
    b = model.log_likelihood_pointwise(swapped)
    np.testing.assert_allclose(a, b, atol=1e-12)
    assert model.log_prior(params) == pytest.approx(model.log_prior(swapped), abs=1e-12)


def mixture_draws(r, n_draws, H, log_s2):
    """Constrained MM rows (mu, sigma2, v2, p) of random parameter draws."""
    mu = r.normal(0.0, 3.0, (n_draws, H))
    s2 = np.exp(r.uniform(*log_s2, (n_draws, H)))
    v2 = np.exp(r.normal(0.0, 1.0, (n_draws, 1)))
    g = r.gamma(1.0, 1.0, (n_draws, H))
    return np.hstack([mu, s2, v2, g / g.sum(axis=1, keepdims=True)])


@pytest.mark.parametrize("H", [2, 3, 4])
def test_mixture_batched_pointwise_matches_per_draw_rows(H):
    from mcmcbench.models.mixture import DRAW_BLOCK

    ds = gen_mixture(200, 4 if H == 4 else 2, seed=H)
    model = get_model("MM", ds, H=H)
    samples = mixture_draws(rng(H), 2 * DRAW_BLOCK + 5, H, log_s2=(-4.0, 3.0))
    per_draw = np.array(
        [model.log_likelihood_pointwise(model.space.unflatten_constrained(row)) for row in samples]
    )
    batched = model.log_likelihood_draws(samples)
    assert batched.shape == (samples.shape[0], ds.n)
    assert np.array_equal(batched, per_draw)


# ---------------------------------------------------------------------------
# full conditionals


def test_lrn_beta_conditional_generic():
    model = build("LR-N", seed=13)
    beta = np.zeros(3)
    eta = model.X @ beta
    term, prior, slopes = model._beta_terms({"beta": beta})
    logpdf = coordinate_logdens(
        eta, model._XT[0], beta[0], term, prior, slopes[0], np.empty_like(eta)
    )[0]
    assert math.isfinite(logpdf(0.2))


def _lm_c_sigma2():
    ds = gen_linear(40, 3, seed=12)
    model = get_model("LM-C", ds)
    h = HYPER_DEFAULTS["LM-C"]
    beta = np.array([0.3, -1.0, 0.5])
    r = ds.y - ds.X @ beta
    got = model._sigma2_ab(beta, r)
    want_b = (h["eta0"] * h["sigma02"] + math.fsum(r * r) + math.fsum(beta * beta)) / 2.0
    return got, [(h["eta0"] + 40 + 3) / 2.0, want_b]


def _mvgaussian(mean_got, mat_got, mean, mat):
    """(got, want) of a Gaussian's mean and a covariance or precision, the matrix scaled to 1."""
    scale = np.abs(mat).max()
    return (
        np.concatenate([mean_got, mat_got.ravel() / scale]),
        np.concatenate([mean, mat.ravel() / scale]),
    )


def _lm_c_beta():
    # the scan draws beta_hat + sqrt(s2) Lv z, so its covariance is s2 Lv Lv'
    ds = gen_linear(40, 3, seed=25)
    model = get_model("LM-C", ds)
    s2 = 1.7
    V = np.linalg.inv(ds.X.T @ ds.X + np.eye(3))
    got_cov = s2 * model._Lv @ model._Lv.T
    return _mvgaussian(model._beta_hat, got_cov, V @ (ds.X.T @ ds.y), s2 * V)


def _lm_sigma_beta(prior):
    # the scan draws mean + L'^-1 z with the lower factor L of the precision
    ds = gen_linear(40, 3, seed=24)
    model = get_model(prior, ds)
    sig = 1.3
    precision = ds.X.T @ ds.X / sig**2 + np.eye(3) / model.hyper["M"] ** 2
    cA, mean = model._beta_given_sigma(sig)
    L = np.tril(cA[0])
    want_mean = np.linalg.solve(precision, ds.X.T @ ds.y) / sig**2
    return _mvgaussian(mean, L @ L.T, want_mean, precision)


def _mm_state():
    ds = gen_mixture(30, 4, seed=21)
    hyper = {"a0": 2.0, "b0": 0.5, "c0": 3.0, "d0": 1.5}
    model = get_model("MM", ds, H=4, parameterization="latent", hyper=hyper)
    params = {
        "mu": np.array([-1.0, 0.5, 2.0, 3.5]),
        "sigma2": np.array([0.7, 1.3, 2.0, 0.4]),
        "v2": np.array([1.5]),
        "p": np.array([0.2, 0.3, 0.4, 0.1]),
        "z": np.arange(30) % 4,
    }
    counts = np.bincount(params["z"], minlength=4).astype(float)
    return model, params, counts


def _mm_z():
    # enumerate the allocations of one observation
    model, prm, _ = _mm_state()
    got = model._allocation_probs(prm)[:, 2]
    w = prm["p"] * stats.norm.pdf(model.y[2], prm["mu"], np.sqrt(prm["sigma2"]))
    return got, w / w.sum()


def _mm_mu():
    model, prm, counts = _mm_state()
    mean, prec = model._mu_given(prm["z"], counts, prm["sigma2"], float(prm["v2"][0]))
    got, want = [], []
    for k in range(4):
        yk = model.y[prm["z"] == k]
        s = prm["sigma2"][k]
        want_prec = yk.size / s + 1.0 / prm["v2"][0]
        got += [mean[k], prec[k]]
        want += [math.fsum(yk) / s / want_prec, want_prec]
    return got, want


def _mm_sigma2():
    model, prm, counts = _mm_state()
    h = model.hyper
    a, b = model._sigma2_given(prm["z"], counts, prm["mu"])
    got, want = [], []
    for k in range(4):
        yk = model.y[prm["z"] == k]
        got += [a[k], b[k]]
        want += [h["c0"] + yk.size / 2.0, h["d0"] + math.fsum((yk - prm["mu"][k]) ** 2) / 2.0]
    return got, want


def _mm_v2():
    model, prm, _ = _mm_state()
    h = model.hyper
    return model._v2_given(prm["mu"]), [h["a0"] + 2.0, h["b0"] + math.fsum(prm["mu"] ** 2) / 2.0]


def _mm_p():
    model, prm, counts = _mm_state()
    want = [1.0 + np.sum(prm["z"] == k) for k in range(4)]
    return model._p_given(counts), want


def _lm_l_state():
    ds = gen_linear(40, 3, seed=22)
    params = {
        "beta": np.array([0.4, -1.2, 0.0]),
        "sigma2": np.array([1.7]),
        "lambda2": np.array([0.8]),
    }
    return get_model("LM-L", ds, hyper={"nu0": 3.0, "sigma02": 2.5, "lambda0": 0.4}), params


def _lasso_lambda2_differences(model, params):
    """logpdf(l) - logpdf(1) of the lambda2 conditional, and the same from the prior.

    The reference is log prod_j Laplace(beta_j | 0, 1/sqrt(l)) plus
    log Exponential(l | rate lambda0), the l-dependent part of the joint density.
    """
    beta = params["beta"]

    def reference(lam):
        lp = stats.laplace.logpdf(beta, scale=1.0 / math.sqrt(lam)).sum()
        return lp + stats.expon.logpdf(lam, scale=1.0 / model.hyper["lambda0"])

    logpdf = model.lasso.lambda2_logpdf(beta)
    lams = (0.05, 0.5, 3.0, 20.0)
    return (
        [logpdf(lam) - logpdf(1.0) for lam in lams],
        [reference(lam) - reference(1.0) for lam in lams],
    )


def _lm_l_sigma2():
    model, prm = _lm_l_state()
    h = model.hyper
    r = model.y - model.X @ prm["beta"]
    got = model._sigma2_ab(prm["beta"], r)
    want_b = (h["nu0"] * h["sigma02"] + math.fsum(r * r)) / 2.0
    return got, [(h["nu0"] + 40) / 2.0, want_b]


def _lm_l_lambda2():
    return _lasso_lambda2_differences(*_lm_l_state())


def _lr_l_lambda2():
    ds = gen_logistic(40, 3, seed=23)
    params = {"beta": np.array([0.9, 0.0, -0.3]), "lambda2": np.array([2.0])}
    return _lasso_lambda2_differences(get_model("LR-L", ds), params)


CONDITIONAL_CASES = {
    "LM-C-sigma2": _lm_c_sigma2,
    "LM-C-beta": _lm_c_beta,
    "MM-z": _mm_z,
    "MM-mu": _mm_mu,
    "MM-sigma2": _mm_sigma2,
    "MM-v2": _mm_v2,
    "MM-p": _mm_p,
    "LM-L-sigma2": _lm_l_sigma2,
    "LM-L-lambda2": _lm_l_lambda2,
    "LR-L-lambda2": _lr_l_lambda2,
    "LM-WI-beta": lambda: _lm_sigma_beta("LM-WI"),
    "LM-NI-beta": lambda: _lm_sigma_beta("LM-NI"),
}


@pytest.mark.parametrize("case", list(CONDITIONAL_CASES))
def test_conditional_parameters_match_algebra(case):
    # the per-block helpers gibbs_scan draws from, against hand algebra
    got, want = CONDITIONAL_CASES[case]()
    want = np.asarray(want, dtype=float)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def _slice_state(prior, seed):
    """A model with n=100, p=4 and a random state away from the origin."""
    model = build(prior, seed=seed, n=100, p=4)
    r = rng(seed + 1)
    params = {"beta": r.normal(0.0, 0.5, 4)}
    if prior == "LR-L":
        params["lambda2"] = np.array([1.7])
    elif prior.startswith("AFT"):
        params["sigma"] = np.array([0.8])
    return model, params


def _beta_conditional(model, params, j):
    """The density of beta[j] the scan slices on, given the observed data."""
    beta = params["beta"]
    eta = model.X @ beta
    if model.family == "AFT":
        args = (model.logy, model.delta, float(params["sigma"][0]))
    else:
        args = (params,)
    term, prior, slopes = model._beta_terms(*args)
    return coordinate_logdens(
        eta, model._XT[j], beta[j], term, prior, slopes[j], np.empty_like(eta)
    )[0]


def _sigma_conditional(model, beta):
    """The density of sigma the scan slices on, given beta and the observed data."""
    if model.family == "AFT":
        return model._sigma_logdens(model.logy, model.delta, model.X @ beta)
    return model._sigma_logdens(beta)


@pytest.mark.parametrize("prior", ["LR-N", "LR-L", "AFT-NH", "AFT-NI"])
@pytest.mark.parametrize("j", [0, 3])
def test_slice_conditional_matches_posterior_differences(prior, j):
    # the coordinate density Gibbs slices on differs from the joint density
    # by a constant in beta[j]: a wrong y @ x_j, delta @ x_j or sign shows here
    model, params = _slice_state(prior, seed=31 + j)
    u = model.space.unconstrain(params)
    params = model.space.constrain(u)
    logpdf = _beta_conditional(model, params, j)
    k = model.space.u_slice("beta").start + j
    for b1, b2 in [(-1.3, 0.4), (0.9, 2.1), (params["beta"][j], -0.2)]:
        u1, u2 = u.copy(), u.copy()
        u1[k], u2[k] = b1, b2
        lp1, lp2 = model.log_posterior_u(u1), model.log_posterior_u(u2)
        got = logpdf(b1) - logpdf(b2)
        assert abs(got - (lp1 - lp2)) <= 1e-12 * max(abs(lp1), abs(lp2)), (b1, b2)


@pytest.mark.parametrize("prior", ["LM-WI", "LM-NI", "AFT-NH", "AFT-NI"])
def test_sigma_conditional_matches_posterior_differences(prior):
    # the sigma density Gibbs slices on differs from the joint density by a
    # constant in sigma: a wrong event term or hazard sum shows here
    model = build(prior, seed=17, n=40, p=4)
    beta = rng(18).normal(0.0, 0.5, 4)
    logpdf = _sigma_conditional(model, beta)

    def log_post(s):
        params = {"beta": beta, "sigma": np.array([s])}
        return model.log_likelihood_pointwise(params).sum() + model.log_prior(params)

    for s1, s2 in [(0.4, 1.0), (0.8, 2.5), (1.7, 0.95)]:
        lp1, lp2 = log_post(s1), log_post(s2)
        got = logpdf(s1) - logpdf(s2)
        assert abs(got - (lp1 - lp2)) <= 1e-12 * max(abs(lp1), abs(lp2)), (s1, s2)


@pytest.mark.parametrize("prior", ["LM-WI", "LM-NI", "LM-L", "LR-L", "AFT-NH"])
def test_scan_slices_on_conditional_at_current_state(prior):
    # the sigma or lambda2 density one scan slices on is the helper's density
    # at the state after that scan's beta update, not before it
    from mcmcbench.samplers.slice_sampling import slice_step

    model = build(prior, seed=51, n=60, p=4)
    block = "lambda2" if prior in ("LM-L", "LR-L") else "sigma"
    state = {k: np.array(v, dtype=float) for k, v in model.initial_params().items()}
    r = rng(52)
    captured = {}

    def slice_fn(logpdf, x0, name):
        if name == block:
            captured["logpdf"] = logpdf
        return slice_step(logpdf, x0, r, w=1.0, block=name)

    if model.family == "AFT":
        # the completed data the scan's beta updates see
        beta_terms = model._beta_terms

        def spy(logy, delta, sigma):
            captured["data"] = (logy, delta)
            return beta_terms(logy, delta, sigma)

        model._beta_terms = spy
    before = state["beta"].copy()
    model.gibbs_scan(state, r, slice_fn)
    beta = state["beta"]
    assert not np.array_equal(beta, before)
    if model.family == "AFT":
        want = model._sigma_logdens(*captured["data"], model.X @ beta)
    elif block == "sigma":
        want = model._sigma_logdens(beta)
    else:
        want = model.lasso.lambda2_logpdf(beta)
    got = captured["logpdf"]
    for x in (0.3, 1.7, 4.0):
        d_want = want(x) - want(1.0)
        assert got(x) - got(1.0) == pytest.approx(d_want, rel=1e-10, abs=1e-10), x


@pytest.mark.parametrize("prior", ["LR-N", "LR-L", "AFT-NH", "AFT-NI"])
def test_slice_memo_handoff_is_exact(monkeypatch, prior):
    # the sum a coordinate hands to the next must equal the one the next
    # would compute itself, or the draws would depend on the handoff
    from mcmcbench.models import base
    from mcmcbench.samplers.slice_sampling import slice_step

    def scans():
        model, state = _slice_state(prior, seed=41)
        r = rng(42)

        def slice_fn(logpdf, x0, block):
            return slice_step(logpdf, x0, r, w=0.5, block=block)

        out = []
        for _ in range(30):
            model.gibbs_scan(state, r, slice_fn)
            out.append(model.space.flatten_constrained(state))
        return np.array(out)

    seeded = scans()
    handed = []  # (sum handed over, its point, memo of the density built without it)

    def unseeded(eta, xj, bj, term, prior, slope, buf, sum_bj=None):
        logpdf, seen = coordinate_logdens(eta, xj, bj, term, prior, slope, buf)
        if sum_bj is not None:
            handed.append((sum_bj, bj, seen))
        return logpdf, seen

    monkeypatch.setattr(base, "coordinate_logdens", unseeded)
    assert np.array_equal(seeded, scans())
    # slice steps see the density only through comparisons, so check the sums
    # too: each slice step evaluates its start, so the memo holds the recomputed sum
    assert len(handed) > 30 and all(seen[bj] == s for s, bj, seen in handed)


def test_coordinate_sweep_hands_on_and_updates_eta():
    # a fake density and a deterministic slice step that moves coordinates
    # 1 and 2 and leaves 0 and 3: the unchanged ones must hand their start sum
    # on too, and eta must follow beta by the same increments
    from mcmcbench.models.base import coordinate_sweep

    r = rng(61)
    X = r.normal(size=(7, 4))
    beta = r.normal(size=4)
    start = beta.copy()
    eta = X @ beta
    XT = np.ascontiguousarray(X.T)
    slopes = [0.4, -1.3, 2.2, 0.9]
    term_calls = [0]
    seen, first_calls = [], []

    def term(e):
        term_calls[0] += 1
        return np.multiply(e, e, e)

    def prior(b):
        return 0.3 * b * b

    def slice_fn(logpdf, x0, block):
        j = int(block[5:-1])
        seen.append((j, x0, beta[j], eta.copy()))
        before = term_calls[0]
        first = logpdf(x0)
        first_calls.append(term_calls[0] - before)
        assert first == -float((eta * eta).sum()) - 0.3 * x0 * x0, block
        if j in (1, 2):
            new = x0 + 0.5
            d = new - x0
            e = eta + XT[j] * d
            assert logpdf(new) == -float((e * e).sum()) - (0.3 * new * new - d * slopes[j]), block
            return new
        return x0

    coordinate_sweep(beta, eta, XT, slice_fn, term, prior, slopes)
    want_eta = X @ start
    for j in (1, 2):
        want_eta += 0.5 * XT[j]
    moved = start + [0.0, 0.5, 0.5, 0.0]
    # coordinate j's density is built at its current value, with 0 ... j-1 updated
    assert [(j, x0, cur) for j, x0, cur, _ in seen] == [(j, b, b) for j, b in enumerate(start)]
    for j, _, _, eta_j in seen:
        np.testing.assert_allclose(eta_j, X @ np.r_[moved[:j], start[j:]], rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(beta, moved)
    np.testing.assert_array_equal(eta, want_eta)
    # only coordinate 0 computes its start sum; 1 takes it from 0 (unchanged),
    # 2 from 1's accepted move and 3 from 2's
    assert first_calls == [1, 0, 0, 0]


# ---------------------------------------------------------------------------
# LM-C closed form: the model's (X'X + I)^-1 and mean, and the test oracle


def test_closed_form_symmetric_single_obs(lmc_posterior):
    ds = datagen.Dataset(y=np.array([0.0]), X=np.array([[1.0]]),
                         truth=datagen.GroundTruth())
    assert get_model("LM-C", ds)._beta_hat[0] == pytest.approx(0.0, abs=1e-14)
    post = lmc_posterior(ds.X, ds.y, HYPER_DEFAULTS["LM-C"])
    assert post.beta_hat[0] == pytest.approx(0.0, abs=1e-14)


def test_closed_form_empty_data_returns_prior(lmc_posterior):
    ds = datagen.Dataset(y=np.zeros(0), X=np.zeros((0, 2)), truth=datagen.GroundTruth())
    model = get_model("LM-C", ds)
    h = HYPER_DEFAULTS["LM-C"]
    post = lmc_posterior(ds.X, ds.y, h)
    np.testing.assert_allclose(model._V, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(model._beta_hat, 0.0, atol=1e-14)
    assert post.alpha_n == pytest.approx(h["eta0"] / 2.0)
    assert post.beta_n == pytest.approx(h["eta0"] * h["sigma02"] / 2.0)


def test_closed_form_matches_direct_algebra(lmc_posterior):
    ds = gen_linear(50, 3, seed=15)
    model = get_model("LM-C", ds)
    h = HYPER_DEFAULTS["LM-C"]
    post = lmc_posterior(ds.X, ds.y, h)
    Vn = np.linalg.inv(ds.X.T @ ds.X + np.eye(3))
    bh = Vn @ ds.X.T @ ds.y
    np.testing.assert_allclose(model._V, Vn, atol=1e-10)
    np.testing.assert_allclose(model._beta_hat, bh, atol=1e-10)
    assert post.alpha_n == pytest.approx((h["eta0"] + 50) / 2.0)
    quad = ds.y @ ds.y - bh @ (ds.X.T @ ds.X + np.eye(3)) @ bh
    assert post.beta_n == pytest.approx((h["eta0"] * h["sigma02"] + quad) / 2.0, rel=1e-10)


# ---------------------------------------------------------------------------
# mixture predictive density


def test_predictive_density_single_draw():
    from mcmcbench.models.mixture import predictive_density
    from mcmcbench.samplers.common import Chain

    names = ["mu[0]", "mu[1]", "sigma2[0]", "sigma2[1]", "v2", "p[0]", "p[1]"]
    row = np.array([-1.0, 2.0, 1.0, 0.5, 1.0, 0.3, 0.7])
    chain = Chain(
        samples=row[None, :], names=names, backend="gibbs", seed=0,
        n_iter=2, n_burn=0, n_thin=2, t_s=1.0,
    )
    y = np.array([0.0, 1.0])
    expected = 0.3 * stats.norm.pdf(y, -1.0, 1.0) + 0.7 * stats.norm.pdf(y, 2.0, math.sqrt(0.5))
    np.testing.assert_allclose(predictive_density(chain, y, H=2), expected, atol=1e-12)

    # repeating the same draw changes nothing
    chain10 = Chain(
        samples=np.repeat(row[None, :], 10, axis=0), names=names, backend="gibbs",
        seed=0, n_iter=20, n_burn=0, n_thin=2, t_s=1.0,
    )
    np.testing.assert_allclose(predictive_density(chain10, y, H=2), expected, atol=1e-12)


def test_predictive_density_integrates_to_one():
    from mcmcbench.models.mixture import predictive_density
    from mcmcbench.samplers.common import Chain

    r = rng(17)
    n_draws = 50
    cols = {
        "mu[0]": r.normal(-1, 0.2, n_draws),
        "mu[1]": r.normal(2, 0.2, n_draws),
        "sigma2[0]": 0.5 + r.random(n_draws),
        "sigma2[1]": 0.5 + r.random(n_draws),
        "v2": np.ones(n_draws),
    }
    p0 = 0.2 + 0.6 * r.random(n_draws)
    cols["p[0]"], cols["p[1]"] = p0, 1.0 - p0
    names = list(cols)
    chain = Chain(
        samples=np.column_stack([cols[nm] for nm in names]), names=names,
        backend="gibbs", seed=0, n_iter=100, n_burn=0, n_thin=2, t_s=1.0,
    )
    y = np.linspace(-12, 12, 4001)
    q = predictive_density(chain, y, H=2)
    total = np.trapezoid(q, y)
    assert total == pytest.approx(1.0, abs=1e-3)


def test_predictive_density_matches_direct_sum_on_adversarial_draws():
    from mcmcbench.models.mixture import predictive_density
    from mcmcbench.samplers.common import Chain

    H, n_draws = 4, 200
    r = rng(23)
    samples = mixture_draws(r, n_draws, H, log_s2=(math.log(1e-3), math.log(10.0)))
    samples[:, :H] = r.uniform(-8.0, 8.0, (n_draws, H))
    names = [f"mu[{h}]" for h in range(H)] + [f"sigma2[{h}]" for h in range(H)]
    names += ["v2"] + [f"p[{h}]" for h in range(H)]
    chain = Chain(
        samples=samples, names=names, backend="gibbs", seed=0,
        n_iter=2 * n_draws, n_burn=0, n_thin=2, t_s=1.0,
    )
    y = np.linspace(-14.0, 14.0, 4001)
    direct = np.zeros_like(y)
    for row in samples:
        mu, s2, w = row[:H], row[H : 2 * H], row[2 * H + 1 :]
        for h in range(H):
            direct += w[h] * np.exp(-0.5 * (y - mu[h]) ** 2 / s2[h]) / math.sqrt(2 * math.pi * s2[h])
    direct /= n_draws
    q = predictive_density(chain, y, H=H)
    live = direct > 1e-300
    np.testing.assert_allclose(q[live], direct[live], rtol=1e-10, atol=0)


def test_predictive_density_skips_zero_weight_components():
    from mcmcbench.models.mixture import predictive_density
    from mcmcbench.samplers.common import Chain

    names = ["mu[0]", "mu[1]", "sigma2[0]", "sigma2[1]", "v2", "p[0]", "p[1]"]
    row = np.array([-1.0, 2.0, 1.0, 0.5, 1.0, 0.0, 1.0])
    chain = Chain(
        samples=row[None, :], names=names, backend="gibbs", seed=0,
        n_iter=2, n_burn=0, n_thin=2, t_s=1.0,
    )
    y = np.array([0.0, 2.0, -30.0])
    expected = stats.norm.pdf(y, 2.0, math.sqrt(0.5))
    with np.errstate(divide="raise", invalid="raise"):
        q = predictive_density(chain, y, H=2)
    np.testing.assert_allclose(q, expected, rtol=1e-13, atol=0)
