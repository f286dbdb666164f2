import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import simpson

from mcmcbench import diagnostics as dg
from mcmcbench.samplers.common import Chain


def rng(seed=0):
    return np.random.default_rng(seed)


def make_chain(samples, names=None, n_thin=2):
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    names = names or [f"x[{j}]" for j in range(samples.shape[1])]
    n_s = samples.shape[0]
    return Chain(
        samples=samples, names=names, backend="gibbs", seed=0,
        n_iter=2 * n_s, n_burn=0, n_thin=n_thin, t_s=1.0,
    )


def ar1(rho, n, seed=0):
    e = rng(seed).standard_normal(n)
    x = np.empty(n)
    x[0] = e[0] / math.sqrt(1 - rho**2)
    for i in range(1, n):
        x[i] = rho * x[i - 1] + e[i]
    return x


# ---------------------------------------------------------------------------
# autocorrelation


def test_autocorrelation_iid():
    x = rng(1).standard_normal(100_000)
    rho = dg.autocorrelation(x, 10)
    assert rho[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(rho[1]) < 0.01


def test_autocorrelation_ar1():
    x = ar1(0.9, 100_000, seed=2)
    rho = dg.autocorrelation(x, 5)
    assert abs(rho[1] - 0.9) < 0.01


def test_autocorrelation_alternating():
    n = 1000
    x = np.tile([1.0, -1.0], n // 2)
    rho = dg.autocorrelation(x, 4)
    # biased estimator: rho_1 = -(n-1)/n
    assert rho[1] == pytest.approx(-(n - 1) / n, abs=1e-10)


def test_autocorrelation_constant_raises():
    with pytest.raises(dg.DegenerateSeriesError):
        dg.autocorrelation(np.ones(100), 10)


def test_autocorrelation_too_short_raises():
    with pytest.raises(ValueError):
        dg.autocorrelation(np.arange(10.0), 8)


def test_autocorrelation_matches_direct_computation():
    x = ar1(0.5, 500, seed=3)
    rho_fft = dg.autocorrelation(x, 6)
    xc = x - x.mean()
    var = np.mean(xc * xc)
    for lag in range(7):
        direct = np.mean(xc[: x.size - lag] * xc[lag:]) * (x.size - lag) / x.size / var
        assert rho_fft[lag] == pytest.approx(direct, abs=1e-10)


# ---------------------------------------------------------------------------
# ESS


def test_ess_iid():
    x = rng(4).standard_normal(5000)
    assert 0.85 * 5000 <= dg.ess(x) <= 1.15 * 5000


def test_ess_iid_over_seeds():
    passes = sum(
        0.85 * 5000 <= dg.ess(rng(s).standard_normal(5000)) <= 1.15 * 5000
        for s in range(20)
    )
    assert passes >= 18


def test_ess_ar1_analytic():
    # ESS of AR(1) is N (1-rho)/(1+rho): N/19 at rho = 0.9
    n = 100_000
    x = ar1(0.9, n, seed=5)
    expected = n / 19.0
    assert abs(dg.ess(x) - expected) / expected < 0.15


def test_ess_alternating_floor():
    x = np.tile([1.0, -1.0], 500)
    val = dg.ess(x)
    assert val > 0
    assert val <= x.size / dg.ESS_DENOM_FLOOR


def test_ess_affine_invariance():
    x = ar1(0.7, 20_000, seed=6)
    a = dg.ess(x)
    b = dg.ess(3.7 * x - 11.0)
    assert abs(a - b) / a < 1e-10


def test_ess_constant_raises():
    with pytest.raises(dg.DegenerateSeriesError):
        dg.ess(np.full(100, 2.0))


# ---------------------------------------------------------------------------
# ess_report


def test_ess_report_iid_columns():
    chain = make_chain(rng(7).standard_normal((4000, 3)), ["beta[0]", "beta[1]", "beta[2]"])
    rep = dg.ess_report(chain, "beta")
    assert rep.names == ["beta[0]", "beta[1]", "beta[2]"]
    assert 0.85 <= rep.mean_E <= 1.0
    assert np.all(rep.per_param_E <= 1.0)
    assert rep.mean_E == pytest.approx(rep.per_param_E.mean())


def test_ess_report_single_column_subset():
    samples = np.column_stack([ar1(0.9, 4000, 8), rng(9).standard_normal(4000)])
    chain = make_chain(samples, ["a", "b"])
    rep = dg.ess_report(chain, "b")
    assert rep.mean_E == rep.per_param_E[0]


def test_ess_report_empty_subset():
    chain = make_chain(rng(10).standard_normal((100, 1)), ["a"])
    with pytest.raises(ValueError):
        dg.ess_report(chain, "beta")


def test_ess_report_warns_off_thinning():
    chain = make_chain(rng(11).standard_normal((600, 1)), ["a"], n_thin=1)
    with pytest.warns(UserWarning):
        dg.ess_report(chain, "a")


def test_ess_report_clamps_and_keeps_raw():
    # strongly antithetic series push the raw estimate above 1; the report clamps it
    x = -np.cumsum(np.tile([1.0, -1.0], 2000)) + rng(12).standard_normal(4000)
    chain = make_chain(x, ["a"])
    rep = dg.ess_report(chain, "a")
    assert dg.ess(x) / x.size > 1.0
    assert rep.per_param_E[0] == 1.0


# ---------------------------------------------------------------------------
# LPML / WAIC


def naive_lpml(ll):
    f = np.exp(ll)
    cpo = 1.0 / np.mean(1.0 / f, axis=0)
    return float(np.sum(np.log(cpo)))


def naive_waic(ll):
    f = np.exp(ll)
    return float(np.sum(np.log(f.mean(axis=0))) - np.sum(np.var(ll, axis=0, ddof=1)))


def test_lpml_single_draw():
    ll = np.array([[-1.2, -0.3, -2.0]])
    assert dg.lpml(ll) == pytest.approx(ll.sum(), abs=1e-12)


def test_lpml_constant_draws():
    ll = np.tile([[-1.2, -0.3]], (5, 1))
    assert dg.lpml(ll) == pytest.approx(-1.5, abs=1e-12)


def test_lpml_hand_example():
    # one observation, two draws with log-liks {0, -2}
    ll = np.array([[0.0], [-2.0]])
    expected = math.log(2.0 / (1.0 + math.exp(2.0)))
    assert dg.lpml(ll) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_lpml_waic_match_naive_oracle(seed):
    ll = -3.0 * rng(seed).random((4, 4))
    assert dg.lpml(ll) == pytest.approx(naive_lpml(ll), abs=1e-12)
    assert dg.waic(ll) == pytest.approx(naive_waic(ll), abs=1e-12)


def test_lpml_stable_at_extreme_values():
    ll = np.array([[-1000.0, -2.0], [-1001.0, -3.0]])
    assert math.isfinite(dg.lpml(ll))


def test_lpml_all_minus_inf_column():
    ll = np.array([[-math.inf, -1.0], [-math.inf, -2.0]])
    for criterion in (dg.lpml, dg.waic):
        with pytest.warns(UserWarning):
            assert criterion(ll) == -math.inf


def test_waic_identical_draws_no_penalty():
    ll = np.tile([[-1.2, -0.3]], (6, 1))
    assert dg.waic(ll) == pytest.approx(-1.5, abs=1e-12)


def test_waic_hand_example():
    ll = np.array([[0.0], [-2.0]])
    expected = math.log((1.0 + math.exp(-2.0)) / 2.0) - 2.0  # Var({0,-2}) = 2
    assert dg.waic(ll) == pytest.approx(expected, abs=1e-12)


def test_waic_needs_two_draws():
    with pytest.raises(ValueError):
        dg.waic(np.array([[-1.0, -2.0]]))


def test_waic_not_above_first_sum_and_lpml_below_it():
    ll = -2.0 * rng(13).random((50, 20))
    m = ll.max(axis=0)
    first_sum = float(np.sum(m + np.log(np.mean(np.exp(ll - m), axis=0))))
    assert dg.waic(ll) <= first_sum + 1e-12
    assert dg.lpml(ll) <= first_sum + 1e-12  # harmonic mean <= arithmetic mean


def test_lpml_waic_do_not_depend_on_column_blocks(monkeypatch):
    ll = -3.0 * rng(16).random((300, 700))
    results = []
    for block_bytes, n_blocks in [(1, 5), (1 << 30, 1)]:  # 128-column blocks, then one
        monkeypatch.setattr(dg, "FIT_BLOCK_BYTES", block_bytes)
        assert len(dg._column_blocks(ll)) == n_blocks
        results.append((dg.lpml(ll), dg.waic(ll)))
    assert results[0] == results[1]


@pytest.mark.parametrize("block_bytes", [1, 1 << 30])
def test_lpml_minus_inf_column_in_any_block(monkeypatch, block_bytes):
    # the last column is in the last block however the columns are split
    monkeypatch.setattr(dg, "FIT_BLOCK_BYTES", block_bytes)
    ll = -3.0 * rng(17).random((300, 700))
    ll[:, -1] = -math.inf
    for criterion in (dg.lpml, dg.waic):
        with pytest.warns(UserWarning, match="zero likelihood"):
            assert criterion(ll) == -math.inf


def _strict(criterion, ll):
    """``criterion(ll)`` with numpy's RuntimeWarnings raised, and the other warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        value = criterion(ll)
    return value, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("criterion", [dg.lpml, dg.waic])
def test_fit_criteria_reject_nan(criterion):
    # a NaN log-likelihood is a failed model evaluation, not a bad fit
    ll = -2.0 * rng(19).random((50, 4))
    ll[7, 2] = math.nan
    with pytest.raises(ValueError, match="NaN"):
        _strict(criterion, ll)


@pytest.mark.parametrize("criterion", [dg.lpml, dg.waic])
def test_fit_criteria_one_zero_likelihood_draw(criterion):
    # one draw of zero likelihood makes the harmonic mean and the variance
    # of the log-likelihoods infinite, though the other draws are finite
    ll = -2.0 * rng(20).random((50, 4))
    ll[7, 2] = -math.inf
    value, caught = _strict(criterion, ll)
    assert value == -math.inf
    assert len(caught) == 1 and caught[0][0] is UserWarning
    assert "zero likelihood under some draw" in caught[0][1]


@pytest.mark.parametrize("block_bytes", [1, 1 << 30])
@pytest.mark.parametrize("criterion", [dg.lpml, dg.waic])
def test_fit_criteria_nan_after_a_zero_likelihood_block(monkeypatch, criterion, block_bytes):
    # the -inf is in the first column block and the NaN in the last: a NaN
    # fails the call however the columns are split
    monkeypatch.setattr(dg, "FIT_BLOCK_BYTES", block_bytes)
    ll = -3.0 * rng(21).random((300, 700))
    ll[5, 0] = -math.inf
    ll[9, -1] = math.nan
    with pytest.raises(ValueError, match="NaN"):
        _strict(criterion, ll)


@pytest.mark.parametrize("block_bytes", [1, 1 << 30])
def test_waic_rejects_plus_inf(monkeypatch, block_bytes):
    # a +inf log-likelihood makes the first term +inf and the variance
    # undefined; it is not a zero likelihood, even after a block that has one
    monkeypatch.setattr(dg, "FIT_BLOCK_BYTES", block_bytes)
    ll = -3.0 * rng(22).random((300, 700))
    ll[5, 0] = -math.inf
    ll[9, -1] = math.inf
    with pytest.raises(ValueError, match=r"\+inf"):
        _strict(dg.waic, ll)
    ll[5, 0] = -1.0
    with pytest.raises(ValueError, match=r"\+inf"):
        _strict(dg.waic, ll)


def test_lpml_waic_transient_memory_is_bounded():
    # a (2000, 2000) matrix is 32 MB; the fit criteria may add one column block
    # of it at a time, not whole copies
    ll = -3.0 * rng(18).random((2000, 2000))
    tracemalloc.start()
    try:
        dg.lpml(ll)
        dg.waic(ll)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# ---------------------------------------------------------------------------
# KL divergence


def norm_pdf(mu, s2):
    return lambda y: np.exp(-0.5 * (y - mu) ** 2 / s2) / math.sqrt(2 * math.pi * s2)


def test_kl_identity():
    y = np.linspace(-8.0, 8.0, 2001)
    p = norm_pdf(0.0, 1.0)(y)
    assert dg.kl_divergence(p, p, y) == pytest.approx(0.0, abs=1e-8)


def test_kl_gaussian_shift_in_bits():
    # KL(N(0,1) || N(1,1)) = 1/2 nat = 0.5/ln2 bits
    y = np.linspace(-9.0, 10.0, 2001)
    val = dg.kl_divergence(norm_pdf(0.0, 1.0)(y), norm_pdf(1.0, 1.0)(y), y)
    assert val == pytest.approx(0.5 / math.log(2.0), abs=1e-3)


def test_kl_nonnegative():
    y = np.linspace(-10.0, 10.0, 2001)
    val = dg.kl_divergence(norm_pdf(0.3, 2.0)(y), norm_pdf(-0.2, 1.5)(y), y)
    assert val >= 0.0


def test_kl_vanishing_q_is_inf():
    y = np.linspace(-8.0, 8.0, 2001)
    q = np.where(y > 0, norm_pdf(0, 1)(y), 0.0)
    with pytest.warns(UserWarning):
        assert dg.kl_divergence(norm_pdf(0.0, 1.0)(y), q, y) == math.inf


def test_kl_warns_on_bad_grid_coverage():
    y = np.linspace(-0.5, 0.5, 201)
    with pytest.warns(UserWarning):
        dg.kl_divergence(norm_pdf(0.0, 1.0)(y), norm_pdf(0.0, 1.0)(y), y)


def test_kl_rejects_even_points():
    y = np.linspace(-8.0, 8.0, 2000)
    with pytest.raises(ValueError, match="odd"):
        dg.kl_divergence(norm_pdf(0.0, 1.0)(y), norm_pdf(0.0, 1.0)(y), y)


def test_simpson_matches_scipy_bit_for_bit():
    # the uniform grids of the KL tests above, then three random odd grids
    grids = [np.linspace(*g) for g in [(-8, 8, 2001), (-9, 10, 2001), (-10, 10, 2001), (-0.5, 0.5, 201)]]
    grids += [np.sort(rng(seed).uniform(-6.0, 6.0, n)) for seed, n in [(1, 3), (2, 51), (3, 1001)]]
    for y in grids:
        p, q = norm_pdf(0.3, 2.0)(y), norm_pdf(-0.2, 1.5)(y)
        for f in (p, p * np.log2(p / q)):
            assert dg._simpson(f, y) == simpson(f, x=y)


# ---------------------------------------------------------------------------
# beta error, credible intervals, hard shrinkage


def test_beta_error_zero_and_hand_value():
    assert dg.beta_error([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert dg.beta_error([1.0, 0.0], [0.0, 1.0]) == 2.0


def test_beta_error_length_mismatch():
    with pytest.raises(ValueError):
        dg.beta_error([1.0], [1.0, 2.0])


def test_credible_interval_order_statistics_oracle():
    lo, hi = dg.credible_interval(np.arange(1.0, 101.0))
    assert lo == pytest.approx(3.475, abs=1e-12)
    assert hi == pytest.approx(97.525, abs=1e-12)


def test_credible_interval_constant_series():
    assert dg.credible_interval(np.full(10, 3.0)) == (3.0, 3.0)


def test_credible_interval_symmetric():
    x = np.concatenate([np.linspace(-2, 2, 101)])
    lo, hi = dg.credible_interval(x)
    assert lo == pytest.approx(-hi, abs=1e-12)


def test_hard_shrinkage_selection():
    n = 2000
    g = rng(14)
    samples = np.column_stack([
        0.5 + 0.05 * g.standard_normal(n),  # clearly positive
        g.standard_normal(n),               # straddles zero
        -2.0 + 0.1 * g.standard_normal(n),  # clearly negative
    ])
    chain = make_chain(samples, ["beta[0]", "beta[1]", "beta[2]"])
    assert dg.hard_shrinkage_select(chain) == {0, 2}


def test_hard_shrinkage_missing_block():
    chain = make_chain(rng(15).standard_normal((50, 1)), ["mu[0]"])
    with pytest.raises(ValueError):
        dg.hard_shrinkage_select(chain, block="beta")
