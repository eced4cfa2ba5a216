"""A NaN query on a ratio law gives NaN, as on the coupled and the grid laws
it is built from; before, the ratio turned it into 0."""

import numpy as np
import pytest

from bifreemax import (
    AMHCopula,
    CoupledBDF,
    DiscreteMeasure,
    bdf_from_law,
    bifree_maxconv,
    bifree_power,
    from_exponent_measure,
    uniform_df,
)
from bifreemax.convolution import ConvolvedBDF, ExpTailBDF

C = CoupledBDF(AMHCopula(0.5), uniform_df(0.0, 2.0), uniform_df(0.0, 1.5))
GRID = bdf_from_law(DiscreteMeasure([[0.0, 0.5], [1.0, 1.0]], [0.5, 0.5]))
TAU = from_exponent_measure(
    DiscreteMeasure([[0.5, 1.0], [1.5, 0.25]], [0.3, 0.4]), (0.0, 0.0))
LAWS = {
    "convolved": ConvolvedBDF(C, C),
    "convolved-grid": ConvolvedBDF(GRID, C),
    "power": bifree_power(C, 3),
    "fractional-power": bifree_power(TAU, 0.5),
    "measure": TAU,
    "measure-power": bifree_power(TAU, 2.5),
    "exp-tail": ExpTailBDF(TAU, 1.5),
    "chain": bifree_maxconv(bifree_maxconv(C, C), C),
}


@pytest.mark.parametrize("name", sorted(LAWS))
def test_scalar_nan_queries(name):
    F = LAWS[name]
    assert np.isnan(F.eval(np.nan, 1.0))
    assert np.isnan(F.eval(1.0, np.nan))
    assert np.isnan(F.eval(np.nan, np.nan))


@pytest.mark.parametrize("name", sorted(LAWS))
def test_nan_only_on_the_nan_rows_and_columns(name):
    F = LAWS[name]
    xs = np.array([-1.0, np.nan, 0.5, 1.0, 2.5])
    ys = np.array([np.nan, 0.0, 0.75, 1.25, 3.0, np.nan])
    out = F.eval(xs[:, None], ys[None, :])
    nan = np.isnan(xs)[:, None] | np.isnan(ys)[None, :]
    assert np.array_equal(np.isnan(out), nan)
    clean = F.eval(np.nan_to_num(xs)[:, None], np.nan_to_num(ys)[None, :])
    assert np.array_equal(out[~nan], clean[~nan])


def test_the_coupled_law_agrees():
    assert np.isnan(C.eval(np.nan, 1.0))
    assert np.isnan(ConvolvedBDF(C, C).eval(np.nan, 1.0))
