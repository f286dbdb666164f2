import numpy as np
import pytest

from mcmcbench import datagen
from mcmcbench.models.aft import gen_aft
from mcmcbench.models.linear import gen_linear
from mcmcbench.models.logistic import gen_logistic
from mcmcbench.models.mixture import gen_mixture


def test_linear_shapes_and_intercept():
    ds = gen_linear(50, 4, seed=0)
    assert ds.y.shape == (50,)
    assert ds.X.shape == (50, 4)
    np.testing.assert_array_equal(ds.X[:, 0], 1.0)
    assert ds.truth.beta.shape == (4,)
    assert 2.0 <= ds.truth.sigma2 <= 10.0
    assert np.all(np.abs(ds.truth.beta) <= 7.0)


def test_binary_schedule_p4():
    ds = gen_linear(200_000, 4, covariates="binary", seed=1)
    np.testing.assert_array_equal(ds.X[:, 0], 1.0)
    freqs = ds.X[:, 1:].mean(axis=0)
    np.testing.assert_allclose(freqs, [0.1, 0.5, 0.8], atol=0.01)
    assert set(np.unique(ds.X[:, 1:])) <= {0.0, 1.0}


def test_binary_schedule_p16():
    ds = gen_linear(500_000, 16, covariates="binary", seed=2)
    freqs = ds.X[:, 1:].mean(axis=0)
    expected = datagen.BINARY_SCHEDULES[16]
    assert len(expected) == 15
    np.testing.assert_allclose(freqs, expected, atol=0.01)


def test_binary_schedule_p50_in_range():
    ds = gen_linear(20_000, 50, covariates="binary", seed=3)
    freqs = ds.X[:, 1:].mean(axis=0)
    assert np.all(freqs > 0.02) and np.all(freqs < 0.98)


def test_binary_unsupported_p():
    with pytest.raises(datagen.ConfigurationError):
        gen_linear(10, 7, covariates="binary", seed=0)


def test_zero_pattern_trailing():
    ds = gen_linear(10, 30, zero_pattern=28, seed=4)
    beta = ds.truth.beta
    assert np.count_nonzero(beta == 0.0) == 28
    # intercept and the first non-intercept coefficient survive
    assert beta[0] != 0.0 and beta[1] != 0.0
    np.testing.assert_array_equal(beta[2:], 0.0)


def test_zero_pattern_keeps_beta_when_n_changes():
    a = gen_linear(10, 5, seed=9)
    b = gen_linear(1000, 5, seed=9)
    np.testing.assert_array_equal(a.truth.beta, b.truth.beta)
    assert a.truth.sigma2 == b.truth.sigma2


def test_determinism_and_seed_sensitivity():
    a = gen_linear(20, 4, seed=5)
    b = gen_linear(20, 4, seed=5)
    c = gen_linear(20, 4, seed=6)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.X, b.X)
    assert not np.array_equal(a.y, c.y)


def test_logistic_balanced_when_beta_zero():
    ds = gen_logistic(10_000, 4, zero_pattern=3, seed=7)
    assert set(np.unique(ds.y)) <= {0.0, 1.0}
    # only the intercept is nonzero here; it is U(-7,7) so no balance claim,
    # but shapes and support must hold
    assert ds.X.shape == (10_000, 4)


def test_logistic_zero_pattern_count():
    ds = gen_logistic(10, 100, zero_pattern=98, seed=8)
    assert np.count_nonzero(ds.truth.beta) == 2


def test_mixture_h4_fixed_means():
    ds = gen_mixture(100, 4, seed=0)
    np.testing.assert_array_equal(ds.truth.mixture["means"], [-4.0, 0.0, 2.0, 6.0])
    np.testing.assert_array_equal(ds.truth.mixture["weights"], np.full(4, 0.25))
    np.testing.assert_array_equal(ds.truth.mixture["sds"], np.ones(4))
    assert ds.X is None


def test_mixture_h2_mean_ranges():
    for seed in range(5):
        mix = gen_mixture(10, 2, seed=seed).truth.mixture
        mu = mix["means"]
        assert -2.0 <= mu[0] <= 0.0
        assert 1.0 <= mu[1] <= 3.0


def test_mixture_component_proportions():
    ds = gen_mixture(100_000, 4, seed=1)
    mu = ds.truth.mixture["means"]
    # assign each point to its nearest true mean; proportions near 1/H
    labels = np.argmin(np.abs(ds.y[:, None] - mu[None, :]), axis=1)
    freqs = np.bincount(labels, minlength=4) / ds.y.size
    np.testing.assert_allclose(freqs, 0.25, atol=0.02)


def test_mixture_invalid_h():
    with pytest.raises(datagen.ConfigurationError):
        gen_mixture(10, 3, seed=0)


@pytest.mark.parametrize("k", [0.2, 0.5, 0.8])
def test_censoring_calibration(k):
    ds = gen_aft(10_000, 4, k, seed=11)
    censored = 1.0 - ds.delta.mean()
    assert abs(censored - k) < 0.015


def test_aft_support_and_truth():
    ds = gen_aft(500, 4, 0.3, seed=2)
    assert np.all(ds.y > 0)
    assert set(np.unique(ds.delta)) <= {0, 1}
    assert np.all(np.abs(ds.truth.beta) <= 1.0)


def test_aft_invalid_k():
    with pytest.raises(datagen.ConfigurationError):
        gen_aft(10, 4, 1.5, seed=0)

