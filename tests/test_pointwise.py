"""One query contract for every bivariate, copula, Pickands and measure
evaluator (``distributions._pointwise``): a scalar query gives a Python
float, an array query a writable float64 array of the broadcast shape, and
copula and Pickands arguments are checked against [0, 1].  Compact and
read-only results and queries that do not broadcast are covered in
``test_compact_axes.py``."""

import numpy as np
import pytest

from bifreemax import DiscreteMeasure, pickands_from_measure
from bifreemax import copulas as cp
from bifreemax.convolution import product_ratio, tail_functional
from bifreemax.distributions import _pointwise
from bifreemax.gaussian import density
from test_compact_axes import COPULAS, LAWS

MEASURE = DiscreteMeasure([[0.0, 1.0], [1.5, 0.5], [2.0, 2.0]], [0.2, 0.5, 0.3])
PICKANDS = {
    "one": cp.pickands_one(),
    "lower": cp.pickands_lower(),
    "logistic": cp.logistic_pickands(2.0),
    "spectral": pickands_from_measure(DiscreteMeasure(
        [[0.25, 0.75], [0.75, 0.25]], [1.0, 1.0])),
}


# laws are queried on [2.5, 3], where eval and q_eval are defined for every
# one of them (power-grid-3 is 0 at (2.5, 2.5), and q_eval reads 1 there),
# the others on [0.6, 1]
LAW, UNIT = (2.5, 3.0), (0.6, 1.0)
# the ratio transforms raise where F = 0, and power-grid-3 is 0 at (2.5, 2.5);
# every law is positive on [2.75, 3]
RATIO = (2.75, 3.0)


def _evaluators():
    out = {}
    for name, F in LAWS.items():
        out[f"{name}.eval"] = (F.eval, 2, LAW)
        out[f"{name}.q_eval"] = (F.q_eval, 2, LAW)
        out[f"{name}.product_ratio"] = (
            lambda x1, x2, F=F: product_ratio(F, x1, x2), 2, RATIO)
        out[f"{name}.tail_functional"] = (
            lambda x1, x2, F=F: tail_functional(F, x1, x2), 2, RATIO)
    for name, C in COPULAS.items():
        out[f"{name}.copula_eval"] = (C.eval, 2, UNIT)
        out[f"{name}.f_eval"] = (C.f_eval, 2, UNIT)
    for name, A in PICKANDS.items():
        out[f"pickands-{name}"] = (A.eval, 1, UNIT)
    out["gaussian.density"] = (lambda s, t: density(0.3, s, t), 2, UNIT)
    out["measure.tail"] = (MEASURE.tail, 2, UNIT)
    out["measure.marginal_tail"] = (lambda x: MEASURE.marginal_tail(1, x), 1,
                                    UNIT)
    return out


EVALUATORS = _evaluators()


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_scalar_query_gives_a_float(name):
    fn, arity, (lo, hi) = EVALUATORS[name]
    mid = 0.5 * (lo + hi)
    for q in (mid, np.float64(mid), np.array(mid), int(hi)):
        assert type(fn(*[q] * arity)) is float


@pytest.mark.parametrize("name", sorted(EVALUATORS))
def test_array_query_gives_a_writable_float64_array(name):
    fn, arity, (lo, hi) = EVALUATORS[name]
    axes = [np.linspace(lo, hi, 4)[:, None], np.linspace(lo, hi, 3)[None, :]]
    out = fn(*axes[:arity])
    assert type(out) is np.ndarray
    assert out.dtype == np.float64
    assert out.shape == ((4, 3) if arity == 2 else (4, 1))
    assert out.flags.writeable


@pytest.mark.parametrize("bad", [-1e-6, 1.0 + 1e-6, [0.5, 1.5]])
def test_copula_arguments_outside_the_unit_interval_raise(bad):
    for C in COPULAS.values():
        with pytest.raises(ValueError, match=r"copula arguments must lie in \[0, 1\]"):
            C.eval(bad, 0.5)
        with pytest.raises(ValueError, match=r"copula arguments must lie in \[0, 1\]"):
            C.eval(0.5, bad)


@pytest.mark.parametrize("bad", [-1e-6, 1.0 + 1e-6, [0.5, 1.5]])
def test_pickands_argument_outside_the_unit_interval_raises(bad):
    for A in PICKANDS.values():
        with pytest.raises(ValueError, match=r"Pickands argument must lie in \[0, 1\]"):
            A.eval(bad)


def test_arguments_within_the_tolerance_are_clipped():
    assert cp.AMHCopula(0.5).eval(1.0 + 1e-13, 0.5) == 0.5
    assert cp.pickands_lower().eval(-1e-13) == 1.0


def test_a_full_writable_result_is_returned_as_is():
    res = np.arange(6.0).reshape(3, 2)
    assert _pointwise(lambda a, b: res, np.zeros((3, 1)), np.zeros((1, 2))) is res


def test_compute_sees_the_compact_axes():
    seen = []

    def compute(a, b):
        seen.append((a.shape, b.shape, a.dtype, b.dtype))
        return a + b

    _pointwise(compute, [[1], [2], [3]], [[0, 1]])
    assert seen == [((3, 1), (1, 2), np.float64, np.float64)]
