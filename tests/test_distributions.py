"""The elementary densities and draws, checked where the models and the data
generators compute them: against hand values, quadrature and ``scipy.stats``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats
from scipy.integrate import quad

from mcmcbench import datagen
from mcmcbench.models import base, get_model
from mcmcbench.models.aft import gen_aft
from mcmcbench.models.linear import gaussian_loglik, gen_linear

RNG = lambda seed=0: np.random.default_rng(seed)  # noqa: E731


def aft_loglik(t, sigma, lam, delta=1):
    """AFT-NH log-likelihood of one time t, the intercept set so that T ~ Wei(1/sigma, lam)."""
    eta = sigma * math.log(math.log(2.0) / lam)
    ds = datagen.Dataset(y=np.array([t]), X=np.ones((1, 1)), delta=np.array([delta]))
    params = {"beta": np.array([eta]), "sigma": np.array([sigma])}
    return get_model("AFT-NH", ds).log_likelihood_pointwise(params)[0]


def scale_prior(prior, **hyper):
    """The log prior of sigma under ``prior``, as a function of sigma."""
    ds = datagen.Dataset(y=np.ones(1), X=np.ones((1, 1)), delta=np.ones(1, dtype=int))
    model = get_model(prior, ds, hyper=hyper)
    beta_sd = model.hyper["M"] if "M" in model.hyper else math.sqrt(model.hyper["b02"])
    beta_part = stats.norm.logpdf(0.0, scale=beta_sd)
    return lambda sig: model.log_prior({"beta": np.zeros(1), "sigma": np.array([sig])}) - beta_part


def mixture_prior(H):
    """MM with H components, the parameters but p, and their log prior by ``scipy.stats``."""
    model = get_model("MM", datagen.Dataset(y=np.zeros(1)), H=H)
    h = model.hyper
    prm = {"mu": np.linspace(-1.0, 2.0, H), "sigma2": np.linspace(0.5, 2.0, H), "v2": np.array([1.5])}
    rest = (
        stats.norm.logpdf(prm["mu"], scale=math.sqrt(1.5)).sum()
        + stats.invgamma.logpdf(1.5, h["a0"], scale=h["b0"])
        + stats.invgamma.logpdf(prm["sigma2"], h["c0"], scale=h["d0"]).sum()
    )
    return model, prm, rest


def logistic(y, X):
    return get_model("LR-N", datagen.Dataset(y=np.asarray(y, float), X=np.asarray(X, float)))


# ---------------------------------------------------------------------------
# log-density spot checks (hand-evaluated)


def test_gaussian_at_mode():
    want = -0.5 * math.log(2.0 * math.pi)
    assert gaussian_loglik(0.0, 1.0) == pytest.approx(want, abs=1e-12)
    assert base.gaussian_prior(np.zeros(1), 1.0) == pytest.approx(want, abs=1e-12)


def test_dirichlet_flat_constant():
    # the flat Dirichlet on the 2-simplex has density (K-1)! = 2
    model, prm, rest = mixture_prior(3)
    for p in ([0.2, 0.3, 0.5], [0.6, 0.2, 0.2]):
        lp = model.log_prior({**prm, "p": np.array(p)})
        assert lp - rest == pytest.approx(math.log(2.0), abs=1e-12)


def test_dirichlet_norm_matches_gammaln():
    # log (H-1)! of the exact integer is scipy's log Gamma(H) bit for bit
    for H in range(2, 11):
        model, _, _ = mixture_prior(H)
        assert model._log_dirichlet_norm == special.gammaln(H)


# every shape whose log((a-1)!) is scipy's gammaln(a) bit for bit, one by one
EXACT_LGAMMA_SHAPES = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]


def test_ig_norm_exact_shapes_match_gammaln():
    assert list(base.EXACT_LGAMMA_SHAPES) == EXACT_LGAMMA_SHAPES
    for a in EXACT_LGAMMA_SHAPES:
        for b in (5e-5, 1.0, 1.5, 40.0):
            want = a * math.log(b) - special.gammaln(a)
            assert base._ig_norm(float(a), b) == want, (a, b)
            assert base._ig_norm(a, b) == want, (a, b)


def test_ig_norm_other_shapes_call_gammaln(monkeypatch):
    gammaln, calls = special.gammaln, []
    monkeypatch.setattr(special, "gammaln", lambda a: calls.append(a) or gammaln(a))
    ig_norm = base._ig_norm.__wrapped__  # past the cache
    # LM-C's sigma2 prior has shape eta0/2
    lmc = get_model("LM-C", gen_linear(5, 1))
    a, b = lmc._sigma2_prior()
    assert a == lmc.hyper["eta0"] / 2.0
    for shape in (a, 0.5, 14.0, 21.5):
        assert ig_norm(shape, b) == shape * math.log(b) - gammaln(shape)
    assert calls == [a, 0.5, 14.0, 21.5]
    ig_norm(1.0, b)
    ig_norm(13.0, b)
    assert len(calls) == 4


def test_weibull_hand_value():
    # f(1 | alpha=2, lam=1) = 2 * 1 * 1 * exp(-1)
    assert aft_loglik(1.0, 0.5, 1.0) == pytest.approx(math.log(2.0) - 1.0, abs=1e-12)


def test_weibull_survival():
    # a censored time contributes log S(x) = -lam * x^alpha
    assert aft_loglik(1.5, 0.5, 0.7, delta=0) == pytest.approx(-0.7 * 1.5**2, abs=1e-12)


def test_inverse_gamma_hand_value():
    # log IG(1 | 1, 1) = 1 log 1 - log Gamma(1) - 1/1 - 2 log 1 = -1
    assert base.ig_logpdf(1.0, 1.0, 1.0) == -1.0


def test_half_cauchy_hand_value():
    # LM-WI: f(sigma | 0, d0) = (2/pi) d0 / (sigma^2 + d0^2); at sigma=d0: 1/(pi d0)
    b = 1.7
    assert scale_prior("LM-WI", d0=b)(b) == pytest.approx(-math.log(math.pi * b), abs=1e-12)


def test_double_exponential_hand_value():
    # f(x | 0, b) = (1/2b) exp(-|x|/b), here with b = 1/sqrt(l2) = 2 at x = -1
    lp = base.LassoPrior(0.1).log_prior_terms(np.array([-1.0]), 0.25)[0]
    assert lp == pytest.approx(-math.log(4.0) - 0.5, abs=1e-12)


def test_outside_support_is_minus_inf():
    for x in (0.0, -0.5):
        assert base.ig_logpdf(x, 2.0, 1.5) == -math.inf
        assert base.LassoPrior(0.1).lambda2_logpdf(np.ones(2))(x) == -math.inf
        for prior in ("LM-WI", "LM-NI", "AFT-NH", "AFT-NI"):
            assert scale_prior(prior)(x) == -math.inf, prior
    for prior in ("LM-NI", "AFT-NI"):
        assert scale_prior(prior, sigma0=4.0)(4.5) == -math.inf, prior
    model, prm, _ = mixture_prior(2)
    assert model.log_prior({**prm, "v2": np.array([0.0]), "p": np.full(2, 0.5)}) == -math.inf
    for x in (0.0, -0.5):
        sigma2 = np.array([1.0, x])
        assert model.log_prior({**prm, "sigma2": sigma2, "p": np.full(2, 0.5)}) == -math.inf


def test_invalid_parameters_raise():
    ds = gen_linear(5, 2, seed=0)
    with pytest.raises(ValueError):
        get_model("LM-X", ds)
    with pytest.raises(ValueError):
        get_model("AFT-NH", ds)  # no censoring indicators
    with pytest.raises(ValueError):
        get_model("MM", ds)  # no H
    with pytest.raises(ValueError):
        get_model("MM", ds, H=2, parameterization="joint")
    latent = get_model("MM", ds, H=2, parameterization="latent")
    with pytest.raises(ValueError):
        latent.log_posterior_u(latent.initial_u())  # no z


def test_bernoulli_degenerate():
    # at |x'beta| = 800 the logistic likelihood is 0 for the certain outcome
    model = logistic([1.0, 0.0], [[1.0], [1.0]])
    np.testing.assert_array_equal(model.log_likelihood_pointwise({"beta": np.array([800.0])}), [0.0, -800.0])
    np.testing.assert_array_equal(model.log_likelihood_pointwise({"beta": np.array([-800.0])}), [-800.0, 0.0])


def test_weibull_shape1_is_exponential():
    lam = 0.8
    t = np.array([0.01, 0.5, 1.0, 7.0])
    got = [aft_loglik(v, 1.0, lam) for v in t]
    np.testing.assert_allclose(got, stats.expon.logpdf(t, scale=1.0 / lam), rtol=1e-12)


# ---------------------------------------------------------------------------
# normalization: quadrature of the density over the support equals 1


DENSITIES = {
    "Gaussian": lambda x: gaussian_loglik(x - 0.3, 1.7),
    "Uniform": scale_prior("LM-NI", sigma0=4.0),
    "Exponential": scale_prior("AFT-NH", lambda0=0.7),
    "DoubleExponential": lambda x: base.LassoPrior(0.1).log_prior_terms(np.array([x]), 0.6)[0],
    "HalfCauchy": scale_prior("LM-WI", d0=2.5),
    "InverseGamma": lambda x: base.ig_logpdf(x, 0.5, 2.0),
    "Weibull": lambda x: aft_loglik(x, 0.7, 1.5),
}
NORMALIZATION_CASES = [
    ("Gaussian", -50.0, 50.0),
    ("Uniform", 0.0, 4.0),
    ("Exponential", 0.0, np.inf),
    ("DoubleExponential", -np.inf, np.inf),
    ("HalfCauchy", 0.0, np.inf),
    ("InverseGamma", 0.0, np.inf),
    ("Weibull", 0.0, np.inf),
]


@pytest.mark.parametrize(
    "family,lo,hi", NORMALIZATION_CASES, ids=lambda c: c if isinstance(c, str) else type(c).__name__
)
def test_normalization(family, lo, hi):
    logpdf = DENSITIES[family]
    total, _ = quad(lambda x: math.exp(logpdf(x)), lo, hi, limit=200)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_bernoulli_normalization():
    # the logistic likelihoods of y=0 and y=1 at the same x sum to 1
    model = logistic([0.0, 1.0], [[1.0, 0.4], [1.0, 0.4]])
    for beta in ([0.0, 0.0], [1.3, -2.0], [-30.0, 5.0]):
        pw = model.log_likelihood_pointwise({"beta": np.array(beta)})
        assert math.exp(pw[0]) + math.exp(pw[1]) == pytest.approx(1.0, abs=1e-15)
        prob = 1.0 / (1.0 + math.exp(-(beta[0] + 0.4 * beta[1])))
        np.testing.assert_allclose(pw, stats.bernoulli.logpmf([0, 1], prob), rtol=1e-12)


def test_dirichlet_normalization_k2():
    # the K=2 weights' density integrates to 1 over the first weight
    model, prm, rest = mixture_prior(2)
    total, _ = quad(
        lambda t: math.exp(model.log_prior({**prm, "p": np.array([t, 1.0 - t])}) - rest), 0.0, 1.0
    )
    assert total == pytest.approx(1.0, abs=1e-9)


def test_ig_logpdf_matches_scipy():
    # to 1e-14 of the size of the terms the log density sums
    x = np.geomspace(1e-3, 1e3, 61)
    for a, b in [(5e-5, 5e-5), (1.0, 1.0), (3.0, 1.5), (21.5, 40.0)]:
        want = stats.invgamma.logpdf(x, a, scale=b)
        scale = b / x + (a + 1.0) * np.abs(np.log(x)) + abs(base._ig_norm(a, b))
        got = np.array([base.ig_logpdf(float(v), a, b) for v in x])
        assert np.all(np.abs(got - want) <= 1e-14 * scale), (a, b)


# ---------------------------------------------------------------------------
# draws of the data generators and the Gibbs scans


def _ks_gaussian():
    # standardized noise of the linear model
    ds = gen_linear(10_000, 3, seed=7)
    return (ds.y - ds.X @ ds.truth.beta) / math.sqrt(ds.truth.sigma2), stats.norm.cdf


def _aft_rate(ds, k=0.4):
    """Weibull rate of min(T, C): the failure rate lam_T plus the censoring rate lam_T k/(1-k)."""
    sigma = math.sqrt(ds.truth.sigma2)
    return sigma, math.log(2.0) * np.exp(-(ds.X @ ds.truth.beta) / sigma) / (1.0 - k)


def _ks_exponential():
    # the cumulative hazard of each observed time is Exp(1)
    ds = gen_aft(10_000, 3, 0.4, seed=7)
    sigma, lam = _aft_rate(ds)
    return lam * ds.y ** (1.0 / sigma), stats.expon.cdf


def _ks_weibull():
    # with the intercept only, every observed time has the same Weibull law
    ds = gen_aft(10_000, 1, 0.4, seed=7)
    sigma, lam = _aft_rate(ds)
    return ds.y, stats.weibull_min(1.0 / sigma, scale=lam[0] ** -sigma).cdf


def _ks_uniform():
    # regression coefficients are drawn U(-7, 7)
    return gen_linear(1, 10_000, seed=7).truth.beta, stats.uniform(-7.0, 14.0).cdf


@pytest.mark.parametrize(
    "case",
    [_ks_gaussian, _ks_exponential, _ks_weibull, _ks_uniform],
    ids=["gaussian", "exponential", "weibull", "uniform"],
)
def test_sampler_density_agreement_ks(case):
    x, cdf = case()
    stat = stats.kstest(x, cdf).statistic
    # 1% critical value for the one-sample KS statistic
    assert stat < 1.63 / math.sqrt(x.size)


def _separated_mixture():
    """Latent MM whose allocations are certain: counts (1, 2, 3) at means -50, 0, 50."""
    ds = datagen.Dataset(y=np.array([-50.0, 0.0, 0.0, 50.0, 50.0, 50.0]))
    model = get_model("MM", ds, H=3, parameterization="latent")
    state = {"mu": np.array([-50.0, 0.0, 50.0]), "sigma2": np.ones(3), "v2": np.array([1.0]),
             "p": np.full(3, 1.0 / 3.0)}
    return model, state


def test_dirichlet_sample_on_simplex():
    # the weights' Gibbs draw given counts (1, 2, 3) is Dirichlet(2, 3, 4)
    model, state = _separated_mixture()
    r = RNG(4)
    x = np.empty((4000, 3))
    for i in range(4000):
        s = {k: v.copy() for k, v in state.items()}
        model.gibbs_scan(s, r, None)
        np.testing.assert_array_equal(s["z"], [0, 1, 1, 2, 2, 2])
        x[i] = s["p"]
    assert np.all(x > 0)
    np.testing.assert_allclose(x.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(x.mean(axis=0), [2 / 9, 3 / 9, 4 / 9], atol=0.01)  # 5 se


def test_categorical_frequencies():
    # allocations of one repeated observation follow p_h N(y | mu_h, s_h), normalized
    model = get_model("MM", datagen.Dataset(y=np.full(50_000, 0.4)), H=3, parameterization="latent")
    prm = {"mu": np.array([-1.0, 0.0, 1.5]), "sigma2": np.array([1.0, 0.5, 2.0]),
           "v2": np.array([1.0]), "p": np.array([0.2, 0.5, 0.3])}
    w = prm["p"] * stats.norm.pdf(0.4, prm["mu"], np.sqrt(prm["sigma2"]))
    z = model.resample_latent(prm, RNG(5))
    freq = np.bincount(z, minlength=3) / z.size
    np.testing.assert_allclose(freq, w / w.sum(), atol=0.01)


def test_determinism():
    lmc = get_model("LM-C", gen_linear(20, 3, seed=1))
    mm, mm_state = _separated_mixture()
    for model, state in [(lmc, lmc.initial_params()), (mm, mm_state)]:
        runs = []
        for _ in range(2):
            s, r = {k: v.copy() for k, v in state.items()}, RNG(11)
            for _ in range(3):
                model.gibbs_scan(s, r, None)
            runs.append(s)
        for k in runs[0]:
            np.testing.assert_array_equal(runs[0][k], runs[1][k])


# ---------------------------------------------------------------------------
# gradients


def test_gaussian_grad_zero_at_mean():
    # LM-C: beta | s2 is Gaussian with the same mean for every s2
    model = get_model("LM-C", gen_linear(30, 3, seed=5))
    mean = model._beta_hat
    for s2 in (0.5, 2.0):
        u = model.space.unconstrain({"beta": mean, "sigma2": np.array([s2])})
        g = model.logp_and_grad(u)[1][model.space.u_slice("beta")]
        np.testing.assert_allclose(g, 0.0, atol=1e-12 * np.abs(model.Xty).max() / s2)


def test_inverse_gamma_grad_zero_at_mode():
    # LM-C: s2 | beta ~ IG(a, b), so log s2 has its mode at s2 = b/a
    model = get_model("LM-C", gen_linear(30, 3, seed=5))
    beta = np.array([0.3, -1.0, 0.5])
    a, b = model._sigma2_ab(beta, model.y - model.X @ beta)
    u = model.space.unconstrain({"beta": beta, "sigma2": np.array([b / a])})
    g = model.logp_and_grad(u)[1][model.space.u_slice("sigma2")][0]
    assert g == pytest.approx(0.0, abs=1e-12 * a)


def test_half_cauchy_grad_at_b():
    # LM-WI: the half-Cauchy prior's d/dsigma at sigma = d0 is -1/d0
    b = 1.4
    ds = gen_linear(20, 2, seed=6)
    model = get_model("LM-WI", ds, hyper={"d0": b})
    beta = np.array([0.5, -0.2])
    g_u = model.logp_and_grad(model.space.unconstrain({"beta": beta, "sigma": np.array([b])}))[1]
    # u = log sigma: d/du = sigma d/dsigma + 1, the 1 from the log-Jacobian
    g_sigma = (g_u[model.space.u_slice("sigma")][0] - 1.0) / b
    r = ds.y - ds.X @ beta
    g_lik = -ds.n / b + (r @ r) / b**3
    assert g_sigma - g_lik == pytest.approx(-1.0 / b, rel=1e-9)


def test_double_exponential_subgradient_at_kink():
    g_sign, _ = base.LassoPrior(0.1).grads(np.array([0.0, 1.5]), 4.0)
    assert g_sign[0] == 0.0
    assert g_sign[1] == 2.0


@given(st.floats(-5, 5), st.floats(0.1, 5), st.floats(-20, 20))
@settings(max_examples=50, deadline=None)
def test_gaussian_logdensity_formula(mu, s2, x):
    expected = -0.5 * math.log(2 * math.pi * s2) - (x - mu) ** 2 / (2 * s2)
    assert gaussian_loglik(x - mu, s2) == pytest.approx(expected, rel=1e-12)
    assert base.gaussian_prior(np.array([x - mu]), s2) == pytest.approx(expected, rel=1e-12)


@given(st.floats(0.2, 4), st.floats(0.2, 4), st.floats(0.05, 30))
@settings(max_examples=50, deadline=None)
def test_weibull_logdensity_formula(alpha, lam, x):
    expected = math.log(alpha * lam) + (alpha - 1) * math.log(x) - lam * x**alpha
    assert aft_loglik(x, 1.0 / alpha, lam) == pytest.approx(expected, rel=1e-10)
