"""The marginals of derived laws: their kind, declared support bounds and
values against the closed formulas of the free marginal operations, the
CLI summary that prints them, the ratio copula's division near the
origin, and the refusal of bases whose support is not declared bounded
below."""

import math

import numpy as np
import pytest

from bifreemax import (CoupledBDF, FuncUDF, GridUDF, beta_free_df,
                       exponential_free_df, pareto_free_df, uniform_df)
from bifreemax.cli import main
from bifreemax.convolution import (free_maxconv, free_power,
                                   maxid_from_tail_functional)
from bifreemax.copulas import AMHCopula, BiFreeCopula, pickands_lower
from bifreemax.distributions import product_df
from bifreemax.extremes import free_from_classical, gev_df

NAN = float("nan")


def _probes(m):
    """Points below the support, inside it, at and past saturation, and a
    NaN."""
    lo, sat = m.support_lower, m.saturation
    top = sat if np.isfinite(sat) else lo + 10.0
    inside = np.linspace(lo, top, 13)
    return np.concatenate([[lo - 1.0, np.nextafter(lo, -np.inf)], inside,
                           [top + 0.5, top + 7.0, NAN]])


def _closed(m, formula, x):
    """The DF contract around a formula: 0 below the lower bound, 1 from
    the saturation point on, the formula in between (and at a NaN)."""
    out = np.where(x < m.support_lower, 0.0, formula(x))
    return np.where(x >= m.saturation, 1.0, out)


def _check(m, kind, lower, saturation, formula):
    assert m.kind == kind
    assert m.support_lower == lower
    assert m.saturation == saturation
    x = _probes(m)
    np.testing.assert_array_equal(m.eval(x), _closed(m, formula, x))
    for xi in x:
        got = m.eval(xi)
        assert isinstance(got, float)
        np.testing.assert_array_equal(got, _closed(m, formula, np.float64(xi)))


U2 = uniform_df(0.0, 2.0)
BETA = beta_free_df(2.0, upper=1.5, scale=1.0)
EXPO = exponential_free_df(0.2, 0.5)
STEP = GridUDF([0.0, 0.5, 1.0, 1.5], [0.0, 0.25, 0.6, 1.0])


class TestFreeMaxConv:
    @pytest.mark.parametrize("F,G,lower,sat", [
        (U2, BETA, 0.5, 2.0),
        (uniform_df(0.0, 1.0), EXPO, 0.2, np.inf),
    ])
    def test_marginal(self, F, G, lower, sat):
        _check(free_maxconv(F, G), "free-maxconv", lower, sat,
               lambda x: np.maximum(F.eval(x) + G.eval(x) - 1.0, 0.0))


class TestFreePower:
    @pytest.mark.parametrize("base,t,lower", [
        (U2, 0.5, 0.0),
        (EXPO, 0.5, 0.2),
        (STEP, 0.5, 0.5),
        (U2, 2.5, U2.quantile_exceed(0.6)),
        (EXPO, 2.5, EXPO.quantile_exceed(0.6)),
    ])
    def test_marginal(self, base, t, lower):
        _check(free_power(base, t), "free-power", lower, base.saturation,
               lambda x: np.maximum(t * base.eval(x) + (1.0 - t), 0.0))

    def test_lower_bound_of_large_powers(self):
        assert free_power(U2, 2.5).support_lower == pytest.approx(1.2,
                                                                  rel=1e-12)

    def test_negative_power(self):
        with pytest.raises(ValueError, match="power must be nonnegative"):
            free_power(U2, -0.5)


class TestProduct:
    @pytest.mark.parametrize("F,G,lower,sat", [
        (U2, BETA, 0.5, 2.0),
        (BETA, EXPO, 0.5, np.inf),
    ])
    def test_marginal(self, F, G, lower, sat):
        _check(product_df(F, G), "product", lower, sat,
               lambda x: F.eval(x) * G.eval(x))


class TestExpTail:
    @pytest.mark.parametrize("t", [0.3, 2.0])
    def test_marginals(self, t):
        base = CoupledBDF(AMHCopula(0.5), U2, BETA)
        H = maxid_from_tail_functional(base, t)
        for m, b, lower in ((H.marginal1, U2, 0.0), (H.marginal2, BETA, 0.5)):
            _check(m, "exp-tail", lower, b.saturation,
                   lambda x, b=b: np.exp(-t * (1.0 - b.eval(x))))


@pytest.mark.parametrize("t,summary", [
    ("0.5", "kind=free-power support_lower=0.2 median=0.2 saturation=2.0"),
    ("2.5", "kind=grid support_lower=1.2000000000000002 median=1.8 "
            "saturation=2.0"),
])
def test_power_stdout(t, summary, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["--grid", "11", "build", "coupled", "amh:theta=0.5",
                 "uniform:0,2", "-o", "F.json"]) == 0
    capsys.readouterr()
    assert main(["power", "@F.json", t]) == 0
    assert capsys.readouterr().out == (f"marginal1: {summary}\n"
                                       f"marginal2: {summary}\n")


@pytest.mark.parametrize("u", [1e-17, 3e-17])
def test_ratio_copula_where_f_rounds_to_zero(u):
    # f = -1 + 2u + (2 - 2u) * A(1/2) is 0 in floating point here
    C = BiFreeCopula(pickands_lower())
    assert C.f_eval(u, u) == 0.0
    c = C.eval(u, u)
    assert np.isfinite(c)
    assert 0.0 <= c <= u


FREE_BASES = {
    "gev-weibull": gev_df(xi=-0.5),
    "gev-gumbel": gev_df(xi=0.0, m=0.5, sigma=2.0),
    "gev-frechet": gev_df(xi=1.0, m=1.0, sigma=1.0),
    "pareto": pareto_free_df(2.0),
}


class TestFreeOfClassical:
    @pytest.mark.parametrize("name", sorted(FREE_BASES))
    def test_marginal(self, name):
        G = FREE_BASES[name]

        def formula(x):
            g = np.asarray(G.eval(x))
            pos = g > 0.0
            free = np.clip(1.0 + np.log(np.where(pos, g, 1.0)), 0.0, 1.0)
            return np.where(pos, free, 0.0)

        # G crosses 1/e at the location of a GEV, elsewhere where bisected
        lower = G.params["m"] if G.kind == "gev" \
            else G.quantile_exceed(math.exp(-1.0))
        _check(free_from_classical(G), "free-of-classical", lower,
               G.saturation, formula)

    def test_pareto_lower_bound_is_the_crossing_of_one_over_e(self):
        lower = free_from_classical(FREE_BASES["pareto"]).support_lower
        assert lower == pytest.approx((1.0 - math.exp(-1.0)) ** -0.5,
                                      rel=1e-12)


def _gumbel(x):
    with np.errstate(over="ignore"):
        return np.exp(-np.exp(-x))


def _logistic(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


# support unbounded below, but the values underflow to 0 at a finite point
# (-6.61 and -709.8), which a probe would take for a lower endpoint
UNDERFLOWING = {"gumbel": FuncUDF(_gumbel), "logistic": FuncUDF(_logistic)}


class TestUnboundedBase:
    @pytest.mark.parametrize("name", sorted(UNDERFLOWING))
    def test_fractional_power_is_refused(self, name):
        with pytest.raises(ValueError, match="fractional powers need support "
                                             "bounded from below"):
            free_power(UNDERFLOWING[name], 0.5)

    @pytest.mark.parametrize("name", sorted(UNDERFLOWING))
    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_tail_functional_law_is_refused(self, name, t):
        m = UNDERFLOWING[name]
        with pytest.raises(ValueError, match="base DF must have support "
                                             "bounded below"):
            maxid_from_tail_functional(CoupledBDF(AMHCopula(0.5), m, m), t)

    @pytest.mark.parametrize("name", sorted(UNDERFLOWING))
    def test_powers_above_one_keep_their_quantile_bound(self, name):
        m = UNDERFLOWING[name]
        assert free_power(m, 2.5).support_lower == m.quantile_exceed(0.6)
