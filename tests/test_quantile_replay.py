"""``UnivariateDF.quantile_exceed`` replays its bisection: it returns the
float of the step-by-step bisection, kept here as the oracle, in fewer
``eval`` calls."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bifreemax import (
    beta_free_df,
    exponential_free_df,
    free_maxconv,
    free_power,
    pareto_free_df,
    product_df,
    semicircle_df,
    uniform_df,
)
from bifreemax.extremes import free_from_classical, gev_df


def scalar_quantile_exceed(F, c):
    """The bisection one midpoint per ``eval`` call, as it stood before the
    replay."""
    if not 0.0 <= c < 1.0:
        raise ValueError(f"threshold must lie in [0, 1), got {c}")
    lo = F.support_lower
    if not np.isfinite(lo):
        lo = -1.0
        while F.eval(lo) > c:
            lo *= 2.0
            if lo < -1e12:
                raise ValueError("no finite lower bracket for quantile search")
    hi = F.saturation
    if not np.isfinite(hi):
        hi = max(abs(lo), 1.0)
        while F.eval(hi) <= c:
            hi = 2.0 * hi + 1.0
            if hi > 1e12:
                raise ValueError("no finite upper bracket for quantile search")
    if F.eval(lo) > c:
        return lo
    if np.isfinite(lo):
        eps = 1e-12 * max(1.0, abs(lo))
        if F.eval(lo + eps) > c:
            return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if F.eval(mid) > c:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-13 * max(1.0, abs(hi)):
            break
    return hi


def _bases():
    return {
        "pareto-1": pareto_free_df(1.0),
        "pareto-2": pareto_free_df(2.0, scale=0.5),
        "beta": beta_free_df(0.7, upper=1.0, scale=2.0),
        "exponential": exponential_free_df(0.3, 1.7),
        "uniform": uniform_df(-1.0, 2.5),
        "semicircle": semicircle_df(),
        "gev-1": gev_df(xi=1.0, m=1.0, sigma=1.0),
        "gev-0": gev_df(xi=0.0),
        "gev-neg": gev_df(xi=-0.6, m=0.5, sigma=2.0),
    }


def _families():
    bases = _bases()
    fams = dict(bases)
    names = sorted(bases)
    for a, b in zip(names, names[1:] + names[:1]):
        fams[f"maxconv({a},{b})"] = free_maxconv(bases[a], bases[b])
        fams[f"product({a},{b})"] = product_df(bases[a], bases[b])
    for name in ("pareto-2", "exponential", "uniform", "beta", "semicircle"):
        for t in (0.5, 2.5, 16.0):
            fams[f"power({name},{t})"] = free_power(bases[name], t)
    for name in ("gev-1", "gev-0", "gev-neg", "uniform", "pareto-2"):
        fams[f"free({name})"] = free_from_classical(bases[name])
    return fams


FAMILIES = _families()
# a tiny nonzero shape, whose formula must hold its Gumbel limit
FAMILIES["gev-tiny"] = gev_df(xi=1e-12, m=0.5, sigma=2.0)
FAMILIES["free(gev-tiny)"] = free_from_classical(FAMILIES["gev-tiny"])
# 1 - 1/n for the convolution powers the library takes, n up to 1024
LADDER = sorted({1.0 - 1.0 / n for n in
                 list(range(1, 33)) + [2 ** k for k in range(6, 11)]
                 + [3 ** k for k in range(4, 7)] + [1000, 1023, 1024]})


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_ladder_matches_the_scalar_bisection(name):
    F = FAMILIES[name]
    for c in LADDER + [0.5, 0.9, 0.999]:
        assert _outcome(F.quantile_exceed, c) == \
            _outcome(scalar_quantile_exceed, F, c), c


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(FAMILIES)),
       c=st.floats(0.0, 1.0, exclude_max=True))
def test_random_thresholds_match_the_scalar_bisection(name, c):
    F = FAMILIES[name]
    assert _outcome(F.quantile_exceed, c) == \
        _outcome(scalar_quantile_exceed, F, c)


@settings(max_examples=60, deadline=None)
@given(xi=st.floats(-1.0, 2.0), m=st.floats(-2.0, 2.0),
       sigma=st.floats(0.1, 3.0),
       c=st.one_of(st.sampled_from(LADDER), st.floats(0.0, 1.0, exclude_max=True)))
# the lower bracket evaluates far below m, where w**(-1/xi) overflows
@example(xi=-1.9675118200981183e-22, m=0.0, sigma=1.0, c=0.0)
def test_gev_family_matches_the_scalar_bisection(xi, m, sigma, c):
    G = gev_df(xi=xi, m=m, sigma=sigma)
    for F in (G, free_from_classical(G)):
        assert _outcome(F.quantile_exceed, c) == \
            _outcome(scalar_quantile_exceed, F, c)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_a_point_alone_and_inside_a_vector_evaluate_alike(name):
    """The replay rests on ``eval`` giving the same float for a 0-d input
    and for the same input inside a 255-point vector."""
    F = FAMILIES[name]
    lo = F.support_lower if np.isfinite(F.support_lower) else -50.0
    hi = F.saturation if np.isfinite(F.saturation) else lo + 2000.0
    xs = np.sort(np.concatenate([np.linspace(lo, hi, 200),
                                 lo + np.geomspace(1e-12, 10.0, 55)]))
    vec = np.asarray(F.eval(xs))
    assert xs.size == 255
    assert [F.eval(x) for x in xs] == vec.tolist()


def _calls(F, c):
    calls = []
    ev = F.eval

    def counting(x):
        calls.append(np.size(x))
        return ev(x)

    F.eval = counting
    return F.quantile_exceed(c), len(calls)


def test_gev_quantile_takes_few_calls():
    q, n = _calls(gev_df(xi=1.0, m=1.0, sigma=1.0), 1.0 - 1.0 / 1024)
    assert q == scalar_quantile_exceed(gev_df(xi=1.0, m=1.0, sigma=1.0),
                                       1.0 - 1.0 / 1024)
    assert n <= 24


def test_pareto_quantile_takes_few_calls():
    q, n = _calls(pareto_free_df(2.0), 0.999)
    assert q == scalar_quantile_exceed(pareto_free_df(2.0), 0.999)
    assert n <= 20


@pytest.mark.parametrize("free", [False, True])
def test_tree_spanning_more_than_the_largest_float_is_silent(free):
    """A tiny xi puts the support edge m - sigma/xi near -1.35e308, so tree
    nodes the walk never visits span more than the largest float."""
    G = gev_df(xi=1.1125369292536007e-308, m=0.0, sigma=1.5)
    assert -np.inf < G.support_lower < -1e308
    F = free_from_classical(G) if free else G
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(F.quantile_exceed, 0.0)
    assert got == _outcome(scalar_quantile_exceed, F, 0.0)
