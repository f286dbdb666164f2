"""Shared pytest plumbing for the suite.

Collects the one-line verdicts emitted by the acceptance tests and prints
them in the terminal summary, where pytest's output capture no longer
swallows them.  The ``lmc_posterior`` fixture is the exact LM-C posterior,
worked out by hand from the data.
"""

from types import SimpleNamespace

import numpy as np
import pytest

acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance verdicts")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def _lmc_posterior(X, y, hyper):
    """Normal-Inverse-Gamma posterior of LM-C from the data and hyperparameters.

    Under beta | s2 ~ N(0, s2 I) and s2 ~ IG(eta0/2, eta0 sigma02/2), the
    posterior is beta | s2, y ~ N(beta_hat, s2 V_n) and s2 | y ~ IG(alpha_n, beta_n)
    with V_n = (X'X + I)^-1, beta_hat = V_n X'y, alpha_n = (eta0 + n)/2 and
    beta_n = (eta0 sigma02 + |y - X beta_hat|^2 + |beta_hat|^2)/2.  Marginally
    beta_j is Student-t with variance V_n[j, j] E[s2 | y].
    """
    n, p = X.shape
    V_n = np.linalg.inv(X.T @ X + np.eye(p))
    beta_hat = V_n @ (X.T @ y)
    r = y - X @ beta_hat
    alpha_n = (hyper["eta0"] + n) / 2.0
    beta_n = (hyper["eta0"] * hyper["sigma02"] + r @ r + beta_hat @ beta_hat) / 2.0
    sigma2_mean = beta_n / (alpha_n - 1.0)
    return SimpleNamespace(V_n=V_n, beta_hat=beta_hat, alpha_n=alpha_n, beta_n=beta_n,
                           sigma2_mean=sigma2_mean, beta_var=np.diag(V_n) * sigma2_mean)


@pytest.fixture
def lmc_posterior():
    """``lmc_posterior(X, y, hyper)``: the exact LM-C posterior."""
    return _lmc_posterior
