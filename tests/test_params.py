import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmcbench.params import (
    Block,
    Identity,
    Log,
    ParamSpace,
    PinnedSoftmax,
    ScaledLogit,
)

finite = st.floats(-30, 30, allow_nan=False)


@given(st.lists(finite, min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_log_round_trip(us):
    t = Log()
    u = np.array(us)
    np.testing.assert_allclose(t.unconstrain(t.forward(u)[0]), u, atol=1e-12)


@given(st.lists(st.floats(-20, 20), min_size=1, max_size=4), st.floats(0.5, 2000))
@settings(max_examples=100, deadline=None)
def test_scaled_logit_round_trip(us, upper):
    t = ScaledLogit(upper)
    u = np.array(us)
    x = t.forward(u)[0]
    assert np.all(x > 0) and np.all(x < upper)
    np.testing.assert_allclose(t.unconstrain(x), u, atol=1e-8)


@given(st.lists(st.floats(-10, 10), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_pinned_softmax_round_trip(us):
    u = np.array(us)
    t = PinnedSoftmax(u.size + 1)
    p = t.forward(u)[0]
    assert p.size == u.size + 1
    assert np.all(p > 0)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(t.unconstrain(p), u, atol=1e-9)


def test_log_jacobian_value():
    # x = e^u so log|dx/du| = u
    t = Log()
    assert t.forward(np.array([1.3, -0.4]))[1] == pytest.approx(0.9, abs=1e-12)


def test_scaled_logit_jacobian_matches_numeric():
    t = ScaledLogit(10.0)
    u = np.array([0.7])
    h = 1e-6
    num = (t.forward(u + h)[0] - t.forward(u - h)[0]) / (2 * h)
    assert t.forward(u)[1] == pytest.approx(math.log(num[0]), rel=1e-6)


def test_pinned_softmax_jacobian_h2():
    # H=2: p0 = sigmoid(u), p1 = 1-p0; |J| = p0 * p1
    t = PinnedSoftmax(2)
    u = np.array([0.8])
    p0 = 1.0 / (1.0 + math.exp(-0.8))
    assert t.forward(u)[1] == pytest.approx(math.log(p0 * (1 - p0)), rel=1e-12)


def test_pinned_softmax_jacobian_numeric_h3():
    t = PinnedSoftmax(3)
    u = np.array([0.4, -1.1])
    h = 1e-6
    J = np.empty((2, 2))
    for j in range(2):
        up, um = u.copy(), u.copy()
        up[j] += h
        um[j] -= h
        J[:, j] = (t.forward(up)[0][:2] - t.forward(um)[0][:2]) / (2 * h)
    assert t.forward(u)[1] == pytest.approx(math.log(abs(np.linalg.det(J))), rel=1e-5)


def _space():
    return ParamSpace(
        [
            Block("beta", 3),
            Block("sigma2", 1, Log()),
            Block("p", 1, PinnedSoftmax(2)),
            Block("tau", 1, ScaledLogit(10.0)),
        ]
    )


def test_space_names_and_dims():
    sp = _space()
    assert sp.dim == 6
    assert sp.constrained_dim == 7
    assert sp.names() == ["beta[0]", "beta[1]", "beta[2]", "sigma2", "p[0]", "p[1]", "tau"]


def test_space_round_trip():
    sp = _space()
    u = np.array([0.5, -1.0, 2.0, 0.3, -0.7, 1.4])
    params = sp.constrain(u)
    np.testing.assert_allclose(sp.unconstrain(params), u, atol=1e-12)
    flat = sp.flatten_constrained(params)
    assert flat.size == 7
    back = sp.unflatten_constrained(flat)
    for key in params:
        np.testing.assert_allclose(back[key], params[key], atol=1e-15)


def test_space_log_jac_is_sum_of_blocks():
    sp = _space()
    u = np.array([0.5, -1.0, 2.0, 0.3, -0.7, 1.4])
    expected = (
        Log().forward(u[3:4])[1]
        + PinnedSoftmax(2).forward(u[4:5])[1]
        + ScaledLogit(10.0).forward(u[5:6])[1]
    )
    assert sp.transform(u)[1] == pytest.approx(expected, abs=1e-12)


def test_grad_chain_rule_matches_finite_differences():
    # potential on the constrained scale: sum of squares of all entries
    sp = _space()
    u0 = np.array([0.2, -0.3, 1.1, 0.5, -0.2, -0.6])

    def potential(u):
        params, log_jac, _ = sp.transform(u)
        val = sum(float(np.sum(np.asarray(v) ** 2)) for v in params.values())
        return val + log_jac

    params0, _, pullback0 = sp.transform(u0)
    grads = {name: 2.0 * np.asarray(x) for name, x in params0.items()}
    g_first = pullback0(grads)
    # a call at another u in between leaves the first call's pullback as it was
    sp.transform(-2.0 * u0 + 0.4)
    g = pullback0(grads)
    np.testing.assert_array_equal(g, g_first)
    h = 1e-6
    for j in range(sp.dim):
        up, um = u0.copy(), u0.copy()
        up[j] += h
        um[j] -= h
        fd = (potential(up) - potential(um)) / (2 * h)
        assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_identity_is_noop():
    t = Identity()
    u = np.array([1.0, -2.0])
    x, log_jac, pullback = t.forward(u)
    np.testing.assert_array_equal(x, u)
    assert log_jac == 0.0
    np.testing.assert_array_equal(pullback(u), u)
