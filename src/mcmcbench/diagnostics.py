"""Chain-quality and model-fit diagnostics.

Everything here is a pure function over finished chains (or raw arrays),
so it is safe to call concurrently from the harness.

LPML and WAIC read an (N_s, n) pointwise log-likelihood matrix in column
blocks of about ``FIT_BLOCK_BYTES`` (at least 128 columns, or the whole
matrix if it is narrower), so their temporaries are one block in size
however long the chain.  Every reduction runs over the draws (axis 0), which
numpy adds row after row for any block two or more columns wide, and the
per-observation vector is summed once over all n; the results are therefore
bit-identical to reducing the whole matrix at once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

ESS_DENOM_FLOOR = 1e-6
ESS_MIN_DRAWS = 4  # shortest series ess() takes: its max lag n // 2 - 1 must be >= 1
# Target size of one column block of a log-likelihood matrix in LPML/WAIC.
FIT_BLOCK_BYTES = 1 << 20


class DegenerateSeriesError(ValueError):
    """Raised when a diagnostic needs variation but the series is constant."""


# ----------------------------------------------------------------------------
# autocorrelation / ESS


def autocorrelation(series, max_lag):
    """Empirical autocorrelations rho_0..rho_max_lag.

    Biased estimator: autocovariances divide by N (not N-lag), mean taken
    over the whole series.  Computed with an FFT so long chains are cheap.
    """
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < 2 * max_lag:
        raise ValueError(f"series length {n} < 2*max_lag = {2 * max_lag}")
    x = x - x.mean()
    var = np.mean(x * x)
    if var == 0.0 or not np.isfinite(var):
        raise DegenerateSeriesError("constant (or non-finite) series")
    nfft = int(2 ** np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[: max_lag + 1] / n
    return acov / acov[0]


def ess(series):
    """Effective sample size, N / (1 + 2 sum rho_l).

    The sum over lags is truncated by Geyer's initial-positive-sequence
    rule: accumulate pairwise sums Gamma_k = rho_{2k} + rho_{2k+1} while
    they stay positive, stop at the first nonpositive one.  The resulting
    denominator is floored at a small positive value so strongly antithetic
    chains never produce a negative or absurd ESS.
    """
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < ESS_MIN_DRAWS:
        raise ValueError(f"series too short for ESS: {n} draws, need {ESS_MIN_DRAWS}")
    max_lag = n // 2 - 1
    rho = autocorrelation(x, max_lag)
    # Geyer: tau = -1 + 2 * sum_k Gamma_k, Gamma_k = rho_{2k} + rho_{2k+1}
    tau = -1.0
    for k in range(0, (max_lag + 1) // 2):
        gamma = rho[2 * k] + rho[2 * k + 1]
        if gamma <= 0.0:
            break
        tau += 2.0 * gamma
    tau = max(tau, ESS_DENOM_FLOOR)
    return n / tau


@dataclass
class EssReport:
    """Per-parameter sampling efficiency for one chain."""

    names: list
    per_param_E: np.ndarray
    mean_E: float
    n_samples: int


def ess_report(chain, prefix):
    """Efficiency E_j = ess_j / N_s for the columns ``chain.cols_with_prefix(prefix)``.

    Values are clamped to 1.0 (estimator noise can exceed it slightly on
    thinned chains).
    """
    if chain.n_thin != 2:
        warnings.warn(
            f"chain thinned by {chain.n_thin}, not 2; efficiencies may "
            "exceed 1 due to antithetic autocorrelation",
            stacklevel=2,
        )
    names = chain.cols_with_prefix(prefix)
    if not names:
        raise ValueError(f"no columns named {prefix!r} or {prefix}[...]")
    raw = np.array([ess(chain.col(nm)) / chain.n_samples for nm in names])
    clamped = np.minimum(raw, 1.0)
    return EssReport(
        names=names,
        per_param_E=clamped,
        mean_E=float(clamped.mean()),
        n_samples=chain.n_samples,
    )


# ----------------------------------------------------------------------------
# predictive fit criteria


def _column_blocks(ll):
    """Column slices that split ``ll`` into blocks of about ``FIT_BLOCK_BYTES``.

    Blocks are at least 128 columns wide, as each reduction over the draws
    costs one numpy inner loop per row, and never one column wide, where
    numpy would sum over the draws pairwise rather than row after row; the
    width is spread evenly.
    """
    ns, n = ll.shape
    width = max(128, FIT_BLOCK_BYTES // (ll.itemsize * max(ns, 1)))
    k = max(1, n // width)
    edges = [n * i // k for i in range(k + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _reject_nan(m, criterion):
    """Raise ``ValueError`` if ``m``, a column block's max, is NaN anywhere.

    max propagates NaN, so a NaN anywhere in the block shows in ``m``.
    """
    if np.isnan(m).any():
        raise ValueError(f"the log-likelihood matrix holds NaN; {criterion} is undefined")


def _zero_likelihood(criterion):
    """-inf, with a warning that some observation has zero likelihood under some draw."""
    msg = f"some observation has zero likelihood under some draw; {criterion} is -inf"
    warnings.warn(msg, stacklevel=3)
    return float("-inf")


def lpml(loglik):
    """Log pseudo-marginal likelihood from an (N_s, n) pointwise log-lik matrix.

    CPO_i is the harmonic mean of the per-draw likelihoods over posterior
    draws; evaluated in log space (log-sum-exp of the negated log-liks).
    The negation, shift and exp run in place in one block-sized array per
    column block (see the module docstring), bit-identical to the whole
    matrix at once.  A NaN entry raises ``ValueError``; otherwise an
    observation with zero likelihood under some draw makes it -inf, with a
    warning.  Once a block holds such a draw, the blocks after it are only
    screened for NaN.
    """
    ll = np.asarray(loglik, dtype=float)
    if ll.ndim != 2:
        raise ValueError("expected an (n_draws, n_obs) matrix")
    log_mean_inv = np.empty(ll.shape[1])
    zero = False
    for cols in _column_blocks(ll):
        neg = np.negative(ll[:, cols])
        m = neg.max(axis=0)
        _reject_nan(m, "LPML")
        zero = zero or not np.isfinite(m).all()
        if zero:
            continue
        neg -= m
        log_mean_inv[cols] = m + np.log(np.mean(np.exp(neg, out=neg), axis=0))
        del neg  # freed before the next block's is made
    if zero:
        return _zero_likelihood("LPML")
    return float(-np.sum(log_mean_inv))


def waic(loglik):
    """Widely applicable information criterion (higher is better here).

    First term: sum_i log mean_j f_ij (log-sum-exp).  Penalty: sum of the
    sample variances (ddof=1) of the pointwise log-likelihoods over draws.
    Both are reduced per column block (see the module docstring): the shift
    and exp run in place in one block-sized array, ``np.var`` takes one
    block at a time, and each sum runs once over all n observations, so the
    result is bit-identical to the whole matrix at once.  A NaN or a +inf
    entry raises ``ValueError``: the first term of a +inf is +inf and its
    variance undefined.  Otherwise an observation with zero likelihood under
    some draw makes it -inf, with a warning, as in ``lpml``.
    """
    ll = np.asarray(loglik, dtype=float)
    if ll.ndim != 2:
        raise ValueError("expected an (n_draws, n_obs) matrix")
    ns, n = ll.shape
    if ns < 2:
        raise ValueError("WAIC needs at least 2 draws for the variance term")
    lppd, penalty = np.empty(n), np.empty(n)
    zero = False
    for cols in _column_blocks(ll):
        block = ll[:, cols]
        m = block.max(axis=0)
        _reject_nan(m, "WAIC")
        if np.isposinf(m).any():
            raise ValueError("the log-likelihood matrix holds +inf; WAIC is undefined")
        if not zero:
            with np.errstate(invalid="ignore"):  # a zero-likelihood draw: -inf - -inf
                var = np.var(block, axis=0, ddof=1)
            # with no NaN or +inf in the block, a NaN variance is a -inf draw
            zero = bool(np.isnan(var).any())
        if zero:
            continue
        penalty[cols] = var
        shifted = np.subtract(block, m)
        lppd[cols] = m + np.log(np.mean(np.exp(shifted, out=shifted), axis=0))
        del shifted  # freed before the next block's is made
    if zero:
        return _zero_likelihood("WAIC")
    return float(np.sum(lppd) - np.sum(penalty))


def _simpson(f, x):
    """Composite Simpson's rule for f sampled at an odd number of points x.

    The spacings need not be equal.  This is ``scipy.integrate.simpson``'s
    formula for odd N, with its operations in the same order, so the two
    agree bit for bit.
    """
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = h0 / h1
    return np.sum(
        hsum / 6.0
        * (
            f[:-2:2] * (2.0 - 1.0 / h0divh1)
            + f[1:-1:2] * (hsum * (hsum / hprod))
            + f[2::2] * (2.0 - h0divh1)
        )
    )


def kl_divergence(p, q, y):
    """KL(p || q) in bits by Simpson quadrature.

    ``p`` and ``q`` are the two densities evaluated on the grid ``y``, whose
    length must be odd, so that it splits into whole Simpson panels.  Points
    where p is (numerically) zero contribute nothing; if q vanishes where p
    carries mass the divergence is +inf.
    """
    y = np.asarray(y, dtype=float)
    if y.size < 3 or y.size % 2 == 0:
        raise ValueError(f"grid length must be odd and >= 3, got {y.size}")
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mass = _simpson(p, y)
    if mass < 1.0 - 1e-4:
        warnings.warn(
            f"grid captures only {mass:.6f} of the true density's mass",
            stacklevel=2,
        )
    tol = 1e-300
    support = p > tol
    if np.any(support & (q <= 0.0)):
        warnings.warn("predictive density vanishes inside the true support", stacklevel=2)
        return float("inf")
    integrand = np.zeros_like(p)
    integrand[support] = p[support] * np.log2(p[support] / q[support])
    return float(_simpson(integrand, y))


def beta_error(posterior_means, truth):
    """Sum of squared deviations of posterior means from the true coefficients."""
    est = np.asarray(posterior_means, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if est.shape != tru.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {tru.shape}")
    return float(np.sum((est - tru) ** 2))


def credible_interval(series, level=0.95):
    """Equal-tailed interval from empirical quantiles.

    Linear interpolation between order statistics (numpy's default
    quantile convention).
    """
    x = np.asarray(series, dtype=float)
    if x.size == 0:
        raise ValueError("empty series")
    a = (1.0 - level) / 2.0
    lo, hi = np.quantile(x, [a, 1.0 - a])
    return float(lo), float(hi)


def hard_shrinkage_select(chain, block="beta", level=0.95):
    """Indices of coefficients whose credible interval excludes zero."""
    names = [nm for nm in chain.names if nm.startswith(block + "[")]
    if not names:
        raise ValueError(f"no columns for block {block!r}")
    kept = set()
    for j, nm in enumerate(names):
        lo, hi = credible_interval(chain.col(nm), level=level)
        if not (lo <= 0.0 <= hi):
            kept.add(j)
    return kept


@dataclass
class FitReport:
    """Predictive-fit summary for one fitted model."""

    lpml: float = None
    waic: float = None
    kl: float = None
    error: float = None
