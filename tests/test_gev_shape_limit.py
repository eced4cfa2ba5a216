"""The GEV family is one formula, ``exp(-exp(-log1p(xi*z)/xi))``, that tends
to the Gumbel type ``exp(-exp(-z))`` as xi -> 0: a tiny nonzero shape keeps
full accuracy, and so do its normalizers and free image."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bifreemax.extremes import default_normalizers, free_from_classical, gev_df

XS = [-3.0, 0.0, 2.0, 10.0, 30.0]
# exp(-(1 + xi*x/1.5)**(-1/xi)) at XS for sigma = 1.5 and m = 0, computed
# with mpmath at 50 digits from the float xi and rounded to the nearest float
REFERENCE = {
    1e-17: [0.0006179789893310934, 0.36787944117144233, 0.7682829892525026,
            0.99872817565364, 0.9999999979388464],
    1e-9: [0.0006179789801985307, 0.36787944117144233, 0.7682829890724874,
           0.9987281756253952, 0.999999997938846],
}


@pytest.mark.parametrize("xi", sorted(REFERENCE))
def test_tiny_shape_matches_the_reference(xi):
    got = np.asarray(gev_df(xi=xi, sigma=1.5).eval(np.array(XS)))
    assert np.max(np.abs(got - REFERENCE[xi])) <= 1e-15


@settings(max_examples=100, deadline=None)
@given(xi=st.floats(-1e-6, 1e-6), z=st.floats(-3.0, 30.0))
# a subnormal xi*z keeps few digits, and log1p(xi*z)/xi is off by 2.4e-12
@example(xi=2.2250738585e-313, z=1.25)
def test_tiny_shape_is_close_to_the_gumbel_limit(xi, z):
    # s = log1p(xi*z)/xi = z - xi*z**2/2 + ..., and dF/ds <= 1/e
    x = 1.5 * z
    near = gev_df(xi=xi, sigma=1.5).eval(x)
    gumbel = gev_df(xi=0.0, sigma=1.5).eval(x)
    assert abs(near - gumbel) <= abs(xi) * z * z + 1e-15


def test_free_image_of_a_tiny_shape_starts_at_its_location():
    G = gev_df(xi=1e-17, sigma=1.5)
    assert free_from_classical(G).quantile_exceed(0.0) == 0.0


@pytest.mark.parametrize("n", [2, 10, 1024])
def test_tiny_shape_shift_is_the_gumbel_shift(n):
    g = gev_df(xi=1e-17, sigma=1.5)
    an, bn, _, _ = default_normalizers(g, g)(n)
    assert an == 1.0
    assert bn == pytest.approx(1.5 * math.log(n), rel=1e-12)


@pytest.mark.parametrize("xi", [2.0, -0.5])
def test_values_at_and_past_an_endpoint(xi):
    G = gev_df(xi=xi, m=1.0, sigma=2.0)
    edge = 1.0 - 2.0 / xi
    # F = 0 at and below a Frechet lower endpoint, 1 at and above a Weibull
    # upper one
    for x in (edge, edge - np.sign(xi)):
        assert G.eval(x) == float(xi < 0.0)
        assert G._fn(np.array([x]))[0] == float(xi < 0.0)
    assert np.isnan(G.eval(np.nan))


def test_edge_of_a_subnormal_shape_is_silent():
    # (x - m)/sigma overflows at the lower endpoint m - sigma/xi = -1.1e308
    G = gev_df(xi=2.225073858507203e-309, sigma=0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert G.eval(G.support_lower) == 0.0
        assert G.eval(G.quantile_exceed(0.0)) > 0.0
