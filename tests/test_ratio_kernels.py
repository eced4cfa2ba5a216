"""The in-place ratio kernels against the dense formulas they replaced.

``GridBDF._eval`` reads a zero-bordered table, ``_ratio`` is one division
and one masked copy, and the ratio laws add, scale and divide in place on
the arrays their callees return.  The formulas below are the dense ones:
every evaluation must give the same bit pattern, so the placement of -0.0
and of infinities counts, and NaN sits in the same places.  A NaN query on
a step DF gives NaN; the grid oracle applies that rule on top of the
dense lookup.  Also here: the fresh-array contract (no evaluation changes
its inputs or a second evaluation) and the compound-Poisson ladder, which
evaluates its limit once and agrees with one power per rung to 1e-13.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bifreemax import (
    AMHCopula,
    CoupledBDF,
    DiscreteMeasure,
    EVCopula,
    GridBDF,
    GridUDF,
    GumbelMixedCopula,
    SurvivalCopula,
    bdf_from_law,
    beta_free_df,
    bifree_maxconv,
    compound_poisson_limit,
    exponential_free_df,
    logistic_pickands,
    materialize,
    ones_df,
    sup_distance,
    uniform_df,
)
from bifreemax import copulas as cp
from bifreemax.convolution import (
    ConvolvedBDF,
    ExpTailBDF,
    MeasureBDF,
    PowerBDF,
    RatioBDF,
    bifree_power,
)
from bifreemax.distributions import _pointwise, _ratio

UNIT = "copula arguments must lie in [0, 1]"


# ---------------------------------------------------------------------------
# dense oracles: the formulas the in-place kernels replaced
# ---------------------------------------------------------------------------

def dense_ratio(num, den, live, fill):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(live, num / np.where(live, den, 1.0), fill)


def dense_grid_eval(F, x1, x2):
    i = np.searchsorted(F.xknots, x1, side="right") - 1
    j = np.searchsorted(F.yknots, x2, side="right") - 1
    vals = F.values[np.clip(i, 0, F.xknots.size - 1),
                    np.clip(j, 0, F.yknots.size - 1)]
    vals = np.where((i < 0) | (j < 0), 0.0, vals)
    o1 = (x1 > F.xknots[-1]) & (x1 >= F.marginal1.saturation)
    o2 = (x2 > F.yknots[-1]) & (x2 >= F.marginal2.saturation)
    if np.any(o1):
        vals = np.where(o1, F.marginal2.eval(x2), vals)
    if np.any(o2):
        vals = np.where(o2, F.marginal1.eval(x1), vals)
    if np.any(o1 & o2):
        vals = np.where(o1 & o2, 1.0, vals)
    # the NaN rule of step DFs
    return np.where(np.isnan(x1) | np.isnan(x2), np.nan, vals)


def dense_copula_eval(C, u, v):
    if isinstance(C, cp._FFormCopula):
        f = C._f(u, v)
        prod = u * v
        return np.where(prod > 0.0, dense_ratio(prod, f, f > 0, prod),
                        np.where(np.isnan(prod), np.nan, 0.0))
    return C._eval(u, v)


def dense_copula_f(C, u, v):
    if isinstance(C, cp._FFormCopula):
        return C._f(u, v)
    c = np.asarray(_pointwise(lambda a, b: dense_copula_eval(C, a, b),
                              u, v, unit=UNIT))
    prod = u * v
    return np.where(prod > 0.0, dense_ratio(prod, c, c > 0, np.inf),
                    np.maximum(u, v))


def dense_eval(F, x1, x2):
    if isinstance(F, GridBDF):
        return dense_grid_eval(F, x1, x2)
    if isinstance(F, CoupledBDF):
        return _pointwise(lambda u, v: dense_copula_eval(F.copula, u, v),
                          F.marginal1.eval(x1), F.marginal2.eval(x2),
                          unit=UNIT)
    assert isinstance(F, RatioBDF)
    h = np.asarray(F.marginal1.eval(x1)) * np.asarray(F.marginal2.eval(x2))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = np.asarray(dense_q(F, x1, x2))
        vals = dense_ratio(h, q, (h > 0) & np.isfinite(q), 0.0)
    # a NaN query gives NaN, as on a step DF and a coupled DF
    return np.where(np.isnan(x1) | np.isnan(x2), np.nan, vals)


def dense_q(F, x1, x2):
    if isinstance(F, GridBDF):
        f = np.asarray(dense_eval(F, x1, x2))
        num = np.asarray(F.marginal1.eval(x1)) * np.asarray(F.marginal2.eval(x2))
        return dense_ratio(num, f, f > 0, np.inf)
    if isinstance(F, CoupledBDF):
        return _pointwise(lambda u, v: dense_copula_f(F.copula, u, v),
                          F.marginal1.eval(x1), F.marginal2.eval(x2))
    if isinstance(F, ConvolvedBDF):
        return dense_q(F.F, x1, x2) + dense_q(F.G, x1, x2) - 1.0
    if isinstance(F, PowerBDF):
        return 1.0 + F.t * (dense_q(F.base, x1, x2) - 1.0)
    if isinstance(F, ExpTailBDF):
        return np.exp(F.t * (dense_q(F.base, x1, x2) - 1.0))
    assert isinstance(F, MeasureBDF)
    return 1.0 - np.asarray(F.tau.tail(x1, x2))


def dense_maxconv(F, G):
    """bifree_maxconv of two grid DFs, materialized by the dense formulas."""
    H = ConvolvedBDF(F, G)
    xk = np.union1d(np.union1d(F.xknots, G.xknots),
                    np.union1d(F.marginal1.knots, G.marginal1.knots))
    yk = np.union1d(np.union1d(F.yknots, G.yknots),
                    np.union1d(F.marginal2.knots, G.marginal2.knots))
    vals = _pointwise(lambda a, b: dense_eval(H, a, b), xk[:, None], yk[None, :])
    return GridBDF(H.marginal1, H.marginal2, xk, yk, vals)


def assert_same_bits(got, want):
    """Same type (a float for a scalar query), same shape, same bits
    wherever the oracle is not NaN, and NaN in the same places."""
    assert type(got) is type(want)
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


# ---------------------------------------------------------------------------
# laws: atoms and grid knots on a 0.5-lattice, so queries meet them exactly
# ---------------------------------------------------------------------------

def _lattice_law(rng, k):
    pts = 0.5 * rng.integers(0, 7, size=(k, 2))
    return DiscreteMeasure(pts, rng.dirichlet(np.ones(k)))


def _lattice_tau(rng, k, total):
    pts = 0.5 * rng.integers(1, 7, size=(k, 2))
    masses = rng.uniform(0.1, 1.0, size=k)
    return DiscreteMeasure(pts, masses * total / masses.sum())


_rng = np.random.default_rng(2024)
GRID = bdf_from_law(_lattice_law(_rng, 12))
GRID2 = bdf_from_law(_lattice_law(_rng, 9))
GRID3 = bdf_from_law(_lattice_law(_rng, 7))
# a uniform marginal that saturates inside the probes and a constant-1 one
GRID_ONES = GridBDF(uniform_df(0.0, 2.0), ones_df(), [0.0, 1.0, 2.0],
                    [0.0, 1.0, 2.0, 3.0],
                    [[0.0, 0.0, 0.1, 0.2], [0.1, 0.2, 0.3, 0.5],
                     [0.2, 0.3, 0.5, 1.0]])
# uniform marginals that saturate past the lattice
GRID_UNIFORM = materialize(
    CoupledBDF(AMHCopula(0.4), uniform_df(0.0, 2.0), uniform_df(0.0, 3.0)),
    np.arange(0.0, 1.75, 0.25), np.arange(0.0, 2.75, 0.5))
COUPLED = CoupledBDF(AMHCopula(0.4), exponential_free_df(), uniform_df(0.0, 3.0))
COUPLED_BIFREE = CoupledBDF(GumbelMixedCopula(0.6), uniform_df(0.0, 3.0),
                            beta_free_df(2.0, 3.0, 3.0))
COUPLED_EV = CoupledBDF(EVCopula(logistic_pickands(2.0)), uniform_df(0.0, 3.0),
                        uniform_df(0.5, 2.5))
COUPLED_SURVIVAL = CoupledBDF(SurvivalCopula(AMHCopula(0.5)), uniform_df(0.0, 2.0),
                              uniform_df(0.0, 3.0))
MEASURE = MeasureBDF(_lattice_tau(_rng, 8, 0.8), (0.0, 0.0))

LAWS = {
    "grid": GRID,
    "grid-uniform-ones": GRID_ONES,
    "grid-uniform": GRID_UNIFORM,
    "coupled": COUPLED,
    "coupled-bifree": COUPLED_BIFREE,
    "coupled-ev": COUPLED_EV,
    "coupled-survival": COUPLED_SURVIVAL,
    "measure": MEASURE,
    "measure-power": MEASURE.power(2.5),
    "power-half": PowerBDF(GRID, 0.5),
    "power-three": PowerBDF(GRID, 3.0),
    "power-coupled": PowerBDF(COUPLED_BIFREE, 0.4),
    "exp-tail": ExpTailBDF(MEASURE, 0.7),
    "exp-tail-grid": ExpTailBDF(GRID, 1.3),
    "chain-lazy": bifree_maxconv(bifree_maxconv(COUPLED, MEASURE), GRID),
    "chain-mixed": bifree_maxconv(bifree_maxconv(GRID, COUPLED_EV), GRID_ONES),
    "chain-self": bifree_maxconv(bifree_maxconv(GRID, GRID), MEASURE),
    "chain-power": PowerBDF(bifree_maxconv(bifree_maxconv(MEASURE, GRID2),
                                           COUPLED_BIFREE), 0.5),
    "chain-exp-tail": ExpTailBDF(bifree_maxconv(bifree_maxconv(GRID, MEASURE),
                                                COUPLED), 1.3),
}

EDGES = [-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 6.0]
coord = st.one_of(st.sampled_from(EDGES), st.floats(-1.5, 6.0))
query = st.one_of(coord, st.sampled_from([-np.inf, np.inf, np.nan]))
axis = st.lists(query, min_size=1, max_size=7).map(np.array)


def _check(F, x1, x2):
    assert_same_bits(F.eval(x1, x2), _pointwise(lambda a, b: dense_eval(F, a, b),
                                                x1, x2))
    a1, a2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        got, want = F._q(a1, a2), dense_q(F, a1, a2)
    got, want = np.broadcast_arrays(np.asarray(got), np.asarray(want))
    assert_same_bits(got, want)


@pytest.mark.parametrize("name", sorted(LAWS))
class TestAgainstTheDenseFormulas:
    @settings(max_examples=40, deadline=None)
    @given(xs=axis, ys=axis)
    def test_compact_axes(self, name, xs, ys):
        _check(LAWS[name], xs[:, None], ys[None, :])

    @settings(max_examples=40, deadline=None)
    @given(pts=st.lists(st.tuples(query, query), min_size=1, max_size=12))
    def test_scattered_points(self, name, pts):
        pts = np.array(pts)
        _check(LAWS[name], pts[:, 0], pts[:, 1])

    @settings(max_examples=40, deadline=None)
    @given(x1=query, x2=query)
    def test_scalars_come_back_as_floats(self, name, x1, x2):
        assert type(LAWS[name].eval(x1, x2)) is float
        _check(LAWS[name], x1, x2)

    def test_below_the_lattice_and_past_saturation(self, name):
        xs = np.array([-np.inf, -1.0, 0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 1e300, np.inf])
        _check(LAWS[name], xs[:, None], xs[None, :])


def test_the_probe_reaches_both_saturation_fallbacks():
    """The grid laws above take each branch of the lookup: below the
    lattice, past one saturation point and past both."""
    F = GRID_UNIFORM
    assert F.xknots[-1] < F.marginal1.saturation < 4.0
    assert F.yknots[-1] < F.marginal2.saturation < 4.0
    assert F.eval(-1.0, 1.0) == 0.0
    assert F.eval(4.0, 1.0) == F.marginal2.eval(1.0)
    assert F.eval(1.0, 4.0) == F.marginal1.eval(1.0)
    assert F.eval(4.0, 4.0) == 1.0


@settings(max_examples=200, deadline=None)
@given(shape=st.sampled_from([((3, 1), (1, 4)), ((5,), (5,)), ((2, 3), (1, 3)),
                              ((), ())]),
       data=st.data())
def test_ratio_is_the_masked_division(shape, data):
    special = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 1e300,
                               np.inf, -np.inf, np.nan])
    value = st.one_of(special, st.floats())

    def array(s):
        n = int(np.prod(s))
        return np.array(data.draw(st.lists(value, min_size=n, max_size=n)),
                        dtype=float).reshape(s)

    num, den = array(shape[0]), array(shape[1])
    full = np.broadcast_shapes(num.shape, den.shape)
    live = np.array(data.draw(st.lists(st.booleans(), min_size=int(np.prod(full)),
                                       max_size=int(np.prod(full))))).reshape(full)
    fill = data.draw(st.one_of(special.map(float), st.just(num)))
    with np.errstate(over="ignore"):
        want = dense_ratio(num, den, live, fill)
        got = _ratio(num, den, live, fill)
        assert_same_bits(got, np.asarray(want))
        out = np.empty(full)
        assert _ratio(num, den, live, fill, out=out) is out
    assert_same_bits(out, np.asarray(want))


class TestMaterializedConvolution:
    def test_depth_three_grid_chain(self):
        got = bifree_maxconv(bifree_maxconv(GRID, GRID2), GRID3)
        want = dense_maxconv(dense_maxconv(GRID, GRID2), GRID3)
        assert np.array_equal(got.xknots, want.xknots)
        assert np.array_equal(got.yknots, want.yknots)
        assert_same_bits(got.values, want.values)

    def test_two_300_atom_laws(self):
        rng = np.random.default_rng(300)
        F, G = (bdf_from_law(DiscreteMeasure(rng.uniform(0.0, 3.0, size=(300, 2)),
                                             rng.dirichlet(np.ones(300))))
                for _ in range(2))
        got, want = bifree_maxconv(F, G), dense_maxconv(F, G)
        assert got.values.shape == (600, 600)
        assert_same_bits(got.values, want.values)
        for axis in (1, 2):
            knots = got.xknots if axis == 1 else got.yknots
            assert_same_bits(getattr(got, f"marginal{axis}").eval(knots),
                             getattr(want, f"marginal{axis}").eval(knots))


# ---------------------------------------------------------------------------
# NaN queries on step DFs
# ---------------------------------------------------------------------------

class TestNaNQueriesOnStepDFs:
    def test_grid_udf(self):
        G = GridUDF([0.0, 1.0], [0.5, 1.0])
        assert np.isnan(G.eval(np.nan))
        out = G.eval(np.array([np.nan, -1.0, 0.5, 1.0, 2.0]))
        assert np.isnan(out[0]) and list(out[1:]) == [0.0, 0.5, 1.0, 1.0]

    def test_grid_bdf_at_a_nan_coordinate(self):
        F = bdf_from_law(DiscreteMeasure([[0.0, 0.0], [1.0, 2.0]], [0.5, 0.5]))
        assert np.isnan(F.eval(np.nan, 1.5))
        assert np.isnan(F.eval(0.5, np.nan))
        assert np.isnan(F.eval(np.nan, np.nan))

    @pytest.mark.parametrize("F", [GRID, GRID_ONES, GRID_UNIFORM],
                             ids=["grid", "grid-uniform-ones", "grid-uniform"])
    def test_nan_only_on_the_nan_rows_and_columns(self, F):
        xs = np.array([-1.0, np.nan, 0.5, 1.0, 2.5, 10.0])
        ys = np.array([np.nan, 0.0, 1.5, 3.0, 10.0, np.nan])
        out = F.eval(xs[:, None], ys[None, :])
        nan = np.isnan(xs)[:, None] | np.isnan(ys)[None, :]
        assert np.array_equal(np.isnan(out), nan)
        clean = F.eval(np.nan_to_num(xs)[:, None], np.nan_to_num(ys)[None, :])
        assert np.array_equal(out[~nan], clean[~nan])

    def test_nan_past_the_other_saturation_point(self):
        # past the uniform marginal's saturation the surface is the
        # constant-1 marginal, which is 1 even at a NaN
        assert np.isnan(GRID_ONES.eval(10.0, np.nan))
        assert np.isnan(GRID_ONES.eval(np.nan, 10.0))

    def test_measure_tail_keeps_zero(self):
        m = DiscreteMeasure([[0.0, 0.0], [1.0, 2.0]], [0.5, 0.5])
        assert m.tail(np.nan, 0.5) == 0.0
        assert m.marginal_tail(0, np.nan) == 0.0


# ---------------------------------------------------------------------------
# the fresh-array contract
# ---------------------------------------------------------------------------

def _arrays(obj, seen=None):
    """Every array reachable from a law: knots, values, masses, the tables
    and whatever a marginal's closure holds."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    found = []
    if callable(obj) and getattr(obj, "__closure__", None):
        for cell in obj.__closure__:
            found += _arrays(cell.cell_contents, seen)
    if type(obj).__module__.startswith("bifreemax"):
        for value in vars(obj).values():
            found += _arrays(value, seen)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            found += _arrays(value, seen)
    return found


CHAINS = {
    "grid-coupled-measure": ConvolvedBDF(ConvolvedBDF(GRID, COUPLED), MEASURE),
    "grid-with-itself": ConvolvedBDF(GRID, GRID),
    "materialized-then-lazy": bifree_maxconv(bifree_maxconv(GRID, GRID2), COUPLED),
    "power-of-a-chain": PowerBDF(ConvolvedBDF(MEASURE, GRID), 0.5),
    "exp-tail-of-a-chain": ExpTailBDF(ConvolvedBDF(GRID_ONES, MEASURE), 1.3),
    "measure-with-itself": ConvolvedBDF(MEASURE, ConvolvedBDF(MEASURE, GRID)),
}


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_evaluation_changes_no_input_and_repeats_bit_for_bit(name):
    F = CHAINS[name]
    inputs = _arrays(F)
    assert inputs
    before = [a.copy() for a in inputs]
    xs = np.linspace(-0.5, 4.0, 19)
    probes = [(xs[:, None], xs[None, ::2]), (xs, xs[::-1]),
              (np.array(1.5), np.array(2.0))]
    for x1, x2 in probes:
        kept = (x1.copy(), x2.copy())
        first, second = F.eval(x1, x2), F.eval(x1, x2)
        assert_same_bits(second, first)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            assert_same_bits(np.asarray(F._q(x1, x2)), np.asarray(F._q(x1, x2)))
        assert_same_bits(x1, kept[0])
        assert_same_bits(x2, kept[1])
    for a, b in zip(inputs, before):
        assert_same_bits(a, b)


# ---------------------------------------------------------------------------
# the compound-Poisson ladder
# ---------------------------------------------------------------------------

def _ladder_per_n(lam, nu, p, ns, limit):
    """The ladder as one sup_distance per n, each evaluating the limit and
    the power of the rung's own step DF: the oracle of the ladder that
    ``compound_poisson_limit`` reads in closed form."""
    probe = []
    for a in range(2):
        c = np.unique(np.concatenate([nu.points[:, a], [p[a], limit.lower[a]]]))
        mids = 0.5 * (c[:-1] + c[1:])
        probe.append(np.unique(np.concatenate(
            [c, mids, [c[0] - 0.5, c[-1] + 0.5, c[-1] + 1.5]])))
    dists = []
    for n in ns:
        atoms = np.vstack([np.array([[p[0], p[1]]]), nu.points])
        masses = np.concatenate(([1.0 - lam / n], (lam / n) * nu.masses))
        step = bdf_from_law(DiscreteMeasure(atoms, masses))
        dists.append(sup_distance(bifree_power(step, n), limit, tuple(probe)))
    return tuple(dists)


@pytest.mark.parametrize("lam, ns", [(0.6, [2, 4, 8, 16, 32, 64]),
                                     (2.5, [3, 4, 8, 16, 32, 64])])
def test_ladder_matches_one_sup_distance_per_n(lam, ns, monkeypatch):
    rng = np.random.default_rng(31)
    nu = DiscreteMeasure(rng.uniform(0.0, 3.0, size=(20, 2)),
                         rng.dirichlet(np.ones(20)))
    calls = []
    original = MeasureBDF.eval

    def spy(self, x1, x2):
        calls.append(self)
        return original(self, x1, x2)

    monkeypatch.setattr(MeasureBDF, "eval", spy)
    limit, report = compound_poisson_limit(lam, nu, (0.0, 0.0), ns=ns)
    # the limit's values on the knots are read off the quadrant sums of nu
    assert calls == []
    monkeypatch.undo()
    want = _ladder_per_n(lam, nu, (0.0, 0.0), ns, limit)
    # the gaps are read in closed form, and the oracle rounds within a few n
    # ulps, so the distances agree to rounding, not bit for bit
    assert np.max(np.abs(np.array(report.distances) - np.array(want))) <= 1e-13
    assert report.final == report.distances[-1]
    assert abs(report.final - want[-1]) <= 1e-13

