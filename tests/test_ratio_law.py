"""Derived laws share one ratio evaluator: H = H1*H2/Q with Q - 1 additive
under convolution and scaled by powers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from bifreemax import (
    AMHCopula,
    CoupledBDF,
    GridCopula,
    SupportError,
    bdf_from_law,
    bifree_maxconv,
    bifree_power,
    from_exponent_measure,
    uniform_df,
)
from conftest import random_exponent_measure, random_law_bdf


def _counted_uniform(calls):
    m = uniform_df()
    inner = m._eval

    def counted(x):
        calls[0] += 1
        return inner(x)

    m._eval = counted
    return m


def _left_deep_marginal_evals(depth):
    calls = [0]
    base = CoupledBDF(AMHCopula(0.5), _counted_uniform(calls),
                      _counted_uniform(calls))
    H = base
    for _ in range(depth):
        H = bifree_maxconv(H, base)
    calls[0] = 0
    H.eval(0.5, 0.5)
    return calls[0]


def test_lazy_chain_cost_is_linear_in_depth():
    # a quadratic recursion gives about 12x from depth 8 to depth 32
    assert _left_deep_marginal_evals(32) <= 5 * _left_deep_marginal_evals(8)


def _tree(leaves, shape):
    if len(leaves) == 1:
        return leaves[0]
    if shape == "left":
        return bifree_maxconv(_tree(leaves[:-1], shape), leaves[-1])
    if shape == "right":
        return bifree_maxconv(leaves[0], _tree(leaves[1:], shape))
    k = len(leaves) // 2
    return bifree_maxconv(_tree(leaves[:k], shape), _tree(leaves[k:], shape))


def _base(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "coupled":
        return CoupledBDF(AMHCopula(rng.uniform(-1.0, 1.0)),
                          uniform_df(0.0, rng.uniform(0.5, 3.0)),
                          uniform_df(0.0, rng.uniform(0.5, 3.0)))
    if kind == "measure":
        return from_exponent_measure(random_exponent_measure(rng), (0.0, 0.0))
    return random_law_bdf(rng)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["coupled", "measure", "grid"]),
       shape=st.sampled_from(["left", "right", "balanced"]),
       n=st.integers(2, 7), seed=st.integers(0, 2 ** 16))
def test_chain_shapes_match_power(kind, shape, n, seed):
    F = _base(kind, seed)
    chain = _tree([F] * n, shape)
    xs = np.linspace(-0.2, 3.4, 37)
    got = chain.eval(xs[:, None], xs[None, :])
    want = bifree_power(F, n).eval(xs[:, None], xs[None, :])
    assert_allclose(got, want, rtol=0, atol=1e-12)


def _countermonotone_grid_copula(k=11):
    g = np.linspace(0.0, 1.0, k)
    return GridCopula(g, g, np.maximum(g[:, None] + g[None, :] - 1.0, 0.0))


def test_vanishing_copula_power_matches_convolution():
    F = CoupledBDF(_countermonotone_grid_copula(), uniform_df(), uniform_df())
    xs = np.linspace(-0.1, 1.1, 49)
    power = bifree_power(F, 2).eval(xs[:, None], xs[None, :])
    conv = bifree_maxconv(F, F).eval(xs[:, None], xs[None, :])
    assert_allclose(power, conv, rtol=0, atol=1e-12)
    assert np.any(power > 0) and np.any(power == 0)


def test_generic_ratio_is_infinite_where_copula_vanishes():
    C = _countermonotone_grid_copula()
    assert C.f_eval(0.3, 0.4) == np.inf
    assert C.f_eval(0.0, 0.4) == pytest.approx(0.4)
    assert C.f_eval(0.8, 0.9) == pytest.approx(0.72 / 0.7)
    F = CoupledBDF(C, uniform_df(), uniform_df())
    assert F.q_eval(0.8, 0.9) == pytest.approx(0.72 / 0.7)
    with pytest.raises(SupportError):
        F.q_eval(0.3, 0.4)


def test_q_eval_on_a_grid_raises_only_where_f_vanishes():
    F = bdf_from_law(random_exponent_measure(np.random.default_rng(3))
                     .normalized())
    xs, ys = F.xknots, F.yknots
    vals = F.eval(xs[:, None], ys[None, :])
    i, j = np.argwhere(vals > 0)[0]
    q = F.q_eval(xs[i], ys[j])
    assert q == pytest.approx(F.marginal1.eval(xs[i]) * F.marginal2.eval(ys[j])
                              / vals[i, j], rel=1e-15)
    with pytest.raises(SupportError):
        F.q_eval(xs[0] - 1.0, ys[-1])


def test_q_eval_composes_under_convolution_and_power():
    rng = np.random.default_rng(5)
    F = from_exponent_measure(random_exponent_measure(rng), (0.0, 0.0))
    G = CoupledBDF(AMHCopula(0.4), uniform_df(0.0, 2.0), uniform_df(0.0, 2.0))
    xs = np.linspace(0.1, 1.9, 7)
    x1, x2 = xs[:, None], xs[None, :]
    qf, qg = F.q_eval(x1, x2), G.q_eval(x1, x2)
    assert_allclose(bifree_maxconv(F, G).q_eval(x1, x2), qf + qg - 1.0,
                    rtol=0, atol=1e-15)
    assert_allclose(bifree_power(G, 2.5).q_eval(x1, x2), 1.0 + 2.5 * (qg - 1.0),
                    rtol=0, atol=1e-15)
