"""Outer-product queries stay on their axes: ``BivariateDF.eval``,
``q_eval`` and ``Copula.eval``/``f_eval`` give the same bytes, shape and a
writable result whether the queries come as compact axes or already
broadcast, and marginals see nx + ny points, not nx * ny."""

import numpy as np
import pytest

from bifreemax import (
    BivariateDF,
    CoupledBDF,
    SupportError,
    bifree_maxconv,
    bifree_power,
    exponential_free_df,
    from_exponent_measure,
    materialize,
    maxid_from_tail_functional,
    uniform_df,
)
from bifreemax import copulas as cp
from bifreemax import specs
from bifreemax.convolution import ConvolvedBDF, ExpTailBDF, MeasureBDF, PowerBDF
from bifreemax.copulas import CouplingVerdict, CouplingWitness, check_maxid_coupling
from bifreemax.distributions import GridBDF, _worst
from conftest import random_exponent_measure, random_law_bdf

# one valid value per copula parameter name
_PARAMS = {"theta": 0.5, "p": 0.5, "m": 2.0, "phi": 0.25}


def _spec_copulas():
    out = {}
    for name, (ctor, names, _) in specs._COPULAS.items():
        out[name] = ctor(*(_PARAMS[n] for n in names))
    out.update({
        "amh-negative": cp.AMHCopula(-0.7),
        "fgm-negative": cp.FGMCopula(-1.0),
        "lomax-negative": cp.LomaxCopula(0.5, -0.4),
        "ev-pickands": specs.parse_copula("ev-pickands:logistic:m=2"),
        "ev-lower": cp.ev_copula(cp.pickands_lower()),
        "bifree-pickands": specs.parse_copula("bifree-pickands:lower"),
        "survival-of": specs.parse_copula("survival-of:amh:theta=0.5"),
        "power-transform": cp.power_transform(cp.AMHCopula(0.6), 0.5),
        "grid": cp.GridCopula([0.0, 0.5, 1.0], [0.0, 0.25, 1.0],
                              [[0.0, 0.0, 0.0], [0.0, 0.2, 0.5],
                               [0.0, 0.25, 1.0]]),
    })
    return out


COPULAS = _spec_copulas()


def _coupled(C):
    return CoupledBDF(C, exponential_free_df(), uniform_df(0.0, 2.0))


def _laws():
    rng = np.random.default_rng(11)
    base = _coupled(cp.AMHCopula(0.5))
    other = _coupled(cp.LogisticCopula(2.0))
    laws = {f"coupled-{name}": _coupled(C) for name, C in COPULAS.items()}
    laws.update({
        "grid": random_law_bdf(rng),
        "convolved": ConvolvedBDF(base, other),
        "convolved-grid": bifree_maxconv(random_law_bdf(rng), random_law_bdf(rng)),
        "power-0.5": PowerBDF(base, 0.5),
        "power-3": PowerBDF(other, 3.0),
        "power-grid-3": bifree_power(random_law_bdf(rng), 3.0),
        "measure": from_exponent_measure(random_exponent_measure(rng), (0.0, 0.0)),
        "exp-tail": maxid_from_tail_functional(base, 1.5),
    })
    return laws


LAWS = _laws()

# NaN, both infinities, points below, inside and past the supports
XS = np.array([-np.inf, -1.0, 0.0, 0.05, 0.4, 0.9, 1.3, 2.0, 3.5, np.nan, np.inf])
YS = np.array([np.nan, -np.inf, -0.5, 0.0, 0.1, 0.7, 1.0, 1.9, 2.5, 4.0, np.inf])
US = np.array([0.0, 1e-12, 0.05, 0.3, 0.5, 0.77, 0.99, 1.0, np.nan])
VS = np.array([np.nan, 0.0, 0.02, 0.25, 0.5, 0.6, 0.999, 1.0])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SupportError:
        return SupportError


def _assert_same(compact, full, shape):
    if full is SupportError:
        assert compact is SupportError
        return
    assert compact is not SupportError
    assert compact.shape == full.shape == shape
    assert compact.dtype == full.dtype
    assert compact.flags.writeable
    assert np.array_equal(compact, full, equal_nan=True)
    # -0.0 and +0.0 compare equal; a NaN's sign bit carries no value
    num = ~np.isnan(full)
    assert np.array_equal(np.signbit(compact[num]), np.signbit(full[num]))


def test_every_lazy_kind_is_covered():
    kinds = {type(F) for F in LAWS.values()}
    assert {GridBDF, CoupledBDF, ConvolvedBDF, PowerBDF, MeasureBDF,
            ExpTailBDF} <= kinds


@pytest.mark.parametrize("name", sorted(LAWS))
@pytest.mark.parametrize("method", ["eval", "q_eval"])
def test_outer_product_equals_broadcast(name, method):
    fn = getattr(LAWS[name], method)
    x1, x2 = XS[:, None], YS[None, :]
    _assert_same(_outcome(fn, x1, x2),
                 _outcome(fn, *np.broadcast_arrays(x1, x2)),
                 (XS.size, YS.size))


@pytest.mark.parametrize("name", sorted(LAWS))
@pytest.mark.parametrize("method", ["eval", "q_eval"])
def test_scalar_against_vector_equals_broadcast(name, method):
    fn = getattr(LAWS[name], method)
    for x in (0.4, np.nan, np.inf):
        _assert_same(_outcome(fn, x, YS),
                     _outcome(fn, np.full_like(YS, x), YS), YS.shape)
        _assert_same(_outcome(fn, XS[:, None], np.float64(x)),
                     _outcome(fn, XS[:, None], np.full((XS.size, 1), x)),
                     (XS.size, 1))


@pytest.mark.parametrize("name", sorted(COPULAS))
@pytest.mark.parametrize("method", ["eval", "f_eval"])
def test_copula_outer_product_equals_broadcast(name, method):
    fn = getattr(COPULAS[name], method)
    u, v = US[:, None], VS[None, :]
    _assert_same(fn(u, v), fn(*np.broadcast_arrays(u, v)), (US.size, VS.size))
    _assert_same(np.asarray(fn(0.3, VS)), fn(np.full_like(VS, 0.3), VS),
                 VS.shape)


@pytest.mark.parametrize("name", sorted(LAWS))
def test_queries_that_do_not_broadcast_raise(name):
    F = LAWS[name]
    with pytest.raises(ValueError):
        F.eval(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        F.q_eval(np.zeros(3), np.zeros(4))


@pytest.mark.parametrize("name", sorted(COPULAS))
def test_copula_queries_that_do_not_broadcast_raise(name):
    C = COPULAS[name]
    with pytest.raises(ValueError):
        C.eval(np.full(3, 0.5), np.full(4, 0.5))
    with pytest.raises(ValueError):
        C.f_eval(np.full(3, 0.5), np.full(4, 0.5))


def test_result_does_not_alias_a_broadcast_view():
    F = LAWS["coupled-independence"]
    out = F.eval(XS[:, None], YS[None, :])
    out[0, 0] = 7.0
    assert out[0, 1] != 7.0


class _FirstAxisDF(BivariateDF):
    """Returns a result on the first query's axis only."""

    def _eval(self, x1, x2):
        return np.asarray(self.marginal1.eval(x1))

    def _q(self, x1, x2):
        return np.ones(np.shape(x1))


class _ReadOnlyDF(BivariateDF):
    """Returns a read-only broadcast view."""

    def _eval(self, x1, x2):
        return np.broadcast_to(0.5, np.broadcast_shapes(x1.shape, x2.shape))

    _q = _eval


class _ConstantCopula(cp._FFormCopula):
    """f = 1 on the first argument's shape, C = uv."""

    def _f(self, u, v):
        return np.ones(np.shape(u))


@pytest.mark.parametrize("F", [_FirstAxisDF(uniform_df(), uniform_df()),
                               _ReadOnlyDF(uniform_df(), uniform_df())],
                         ids=["compact", "read-only"])
@pytest.mark.parametrize("method", ["eval", "q_eval"])
def test_subclass_results_come_back_full_and_writable(F, method):
    fn = getattr(F, method)
    x1, x2 = XS[4:7, None], YS[None, 4:8]
    out = fn(x1, x2)
    ref = fn(*np.broadcast_arrays(x1, x2))
    _assert_same(out, np.array(ref), (3, 4))
    out[0, 0] = 7.0
    assert np.count_nonzero(out == 7.0) == 1


def test_copula_compact_denominator_comes_back_full_and_writable():
    C = _ConstantCopula()
    f = C.f_eval(US[2:5, None], VS[None, 2:6])
    assert f.shape == (3, 4) and f.flags.writeable and np.all(f == 1.0)
    f[0, 0] = 7.0
    assert np.count_nonzero(f == 7.0) == 1


class _CountingUDF:
    """Wraps a univariate DF and records the size of every query."""

    def __init__(self, base):
        self.base = base
        self.sizes = []
        self.support_lower = base.support_lower
        self.saturation = base.saturation

    def eval(self, x):
        self.sizes.append(np.size(x))
        return self.base.eval(x)


def test_materialize_passes_each_marginal_the_axis_only():
    m1 = _CountingUDF(exponential_free_df())
    m2 = _CountingUDF(uniform_df(0.0, 2.0))
    F = CoupledBDF(cp.LomaxCopula(0.5, 0.8), m1, m2)
    xs = np.linspace(-0.5, 4.0, 301)
    ys = np.linspace(-0.5, 2.5, 301)
    G = materialize(F, xs, ys)
    assert G.values.shape == (301, 301)
    assert m1.sizes and max(m1.sizes) <= 301
    assert m2.sizes and max(m2.sizes) <= 301


def meshgrid_maxid_coupling(C, mode="grid", tol=1e-9, grid_n=101):
    """``check_maxid_coupling`` on full meshgrids, with the witness read off
    the broadcast coordinates of its block, as it stood before the probes
    stayed on their axes."""
    us = np.linspace(0.0, 1.0, grid_n)[1:]
    U, V = np.meshgrid(us, us, indexing="ij")
    f = np.asarray(C.f_eval(U, V))
    boundary = [
        (("boundary", (U[:, -1:], V[:, -1:])), np.abs(f[:, -1:] - 1.0)),
        (("boundary", (U[-1:, :], V[-1:, :])), np.abs(f[-1:, :] - 1.0)),
    ]
    if mode == "grid":
        quantities = [
            (("monotone-difference-u", (U[1:, :], V[1:, :])),
             np.diff(f - U, axis=0)),
            (("monotone-difference-v", (U[:, 1:], V[:, 1:])),
             np.diff(f - V, axis=1)),
            (("volume", (U[:-1, :-1], V[:-1, :-1])),
             f[1:, 1:] - f[:-1, 1:] - f[1:, :-1] + f[:-1, :-1]),
        ]
        threshold = tol
    else:
        h = 1e-5
        ps = np.unique(np.clip(np.linspace(0.0, 1.0, grid_n), 2 * h, 1.0 - h))
        P, Q = np.meshgrid(ps, ps, indexing="ij")
        fe = C.f_eval
        fu = (fe(P + h, Q) - fe(P - h, Q)) / (2 * h)
        fv = (fe(P, Q + h) - fe(P, Q - h)) / (2 * h)
        fuv = (fe(P + h, Q + h) - fe(P + h, Q - h)
               - fe(P - h, Q + h) + fe(P - h, Q - h)) / (4 * h * h)
        quantities = [(("df/du lower", (P, Q)), -fu),
                      (("df/du upper", (P, Q)), fu - 1.0),
                      (("df/dv lower", (P, Q)), -fv),
                      (("df/dv upper", (P, Q)), fv - 1.0),
                      (("mixed partial", (P, Q)), fuv)]
        threshold = max(tol, 1e-7)
    bound_q, bound_tag, bound_at = _worst(boundary)
    worst_q, tag, at = _worst(quantities)
    member = worst_q <= threshold and bound_q <= tol
    witness = None
    if not member:
        _, (q, (name, pts), at), _ = _worst([
            ((worst_q, tag, at), [worst_q - threshold]),
            ((bound_q, bound_tag, bound_at), [bound_q - tol])])
        witness = CouplingWitness(name, tuple(float(c[at]) for c in pts), q)
    return CouplingVerdict(member=member, mode=mode,
                           min_margin=float(threshold - worst_q),
                           witness=witness)


class _TiltedBoundary(cp._FFormCopula):
    """f(u, 1) = 1.05 - 0.05 u, so the boundary check fails."""

    family = "tilted"
    smooth = True

    def _f(self, u, v):
        return 1.0 + 0.05 * (1.0 - u) * v


class _TiltedTop(_TiltedBoundary):
    """f(1, v) = 1.05 - 0.05 v, so the other boundary check fails."""

    def _f(self, u, v):
        return 1.0 + 0.05 * u * (1.0 - v)


@pytest.mark.parametrize("C", [
    cp.AMHCopula(-0.2), cp.AMHCopula(0.5), cp.FGMCopula(0.7),
    cp.FGMCopula(-1.0), cp.ClaytonCopula(0.5), cp.LomaxCopula(0.5, -0.4),
    cp.LomaxCopula(2.0, 0.9), cp.GumbelMixedCopula(0.6),
    cp.MarshallOlkinCopula(0.3, 0.8), cp.power_transform(cp.AMHCopula(-0.5), 0.5),
    cp.ev_copula(cp.logistic_pickands(2.0)), _TiltedBoundary(), _TiltedTop(),
], ids=lambda C: type(C).__name__)
@pytest.mark.parametrize("grid_n", [3, 12, 41])
def test_axis_probes_give_the_meshgrid_verdict(C, grid_n):
    modes = ["grid", "smooth"] if C.smooth else ["grid"]
    for mode in modes:
        assert repr(check_maxid_coupling(C, mode=mode, grid_n=grid_n)) == \
            repr(meshgrid_maxid_coupling(C, mode=mode, grid_n=grid_n))
