"""The streamed grid convolution and the axis gathers against the dense
formulas.

``bifree_maxconv`` of two step DFs computes ``H1*H2/(Q_F + Q_G - 1)`` in
blocks of whole lattice rows and writes them into the table its result
takes over; ``GridBDF._eval`` and ``DiscreteMeasure.tail`` read an
outer-product query with two axis gathers.  Every table and every value
must have the bits of the dense formulas in ``test_ratio_kernels.py``, for
any block size, and the convolution must hold one lattice-sized array.
Also here: the grid checks that refuse knot axes no evaluation can use.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bifreemax import (
    AMHCopula,
    CoupledBDF,
    DiscreteMeasure,
    GridBDF,
    GridUDF,
    GumbelMixedCopula,
    bdf_from_law,
    bifree_maxconv,
    exponential_free_df,
    materialize,
    ones_df,
    uniform_df,
)
from bifreemax import convolution
from bifreemax.cli import main
from bifreemax.convolution import ConvolvedBDF
from bifreemax.distributions import _pointwise
from bifreemax.serialize import bdf_from_obj, bdf_to_obj, dump_json, load_json

from test_ratio_kernels import assert_same_bits, dense_eval, dense_maxconv


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------

def _lattice(P, axis):
    """A grid DF's knots on ``axis`` and those of a grid marginal there."""
    knots = [P.xknots if axis == 0 else P.yknots]
    m = P.marginal1 if axis == 0 else P.marginal2
    if isinstance(m, GridUDF):
        knots.append(m.knots)
    return knots


def oracle_maxconv(F, G):
    """``dense_maxconv`` where all four marginals are grids; with a closed
    form marginal, which adds no knots, the same dense evaluation on the
    union of the remaining knots."""
    if all(isinstance(m, GridUDF)
           for P in (F, G) for m in (P.marginal1, P.marginal2)):
        return dense_maxconv(F, G)
    H = ConvolvedBDF(F, G)
    xk, yk = (np.unique(np.concatenate(_lattice(F, a) + _lattice(G, a)))
              for a in (0, 1))
    vals = _pointwise(lambda a, b: dense_eval(H, a, b), xk[:, None], yk[None, :])
    return GridBDF(H.marginal1, H.marginal2, xk, yk, vals)


def assert_same_grid(got, want):
    assert isinstance(got, GridBDF)
    for a, b in ((got.xknots, want.xknots), (got.yknots, want.yknots),
                 (got._table, want._table)):
        assert_same_bits(a, b)


def _convolve_in_blocks(F, G, rows):
    """bifree_maxconv(F, G) with blocks of ``rows`` lattice rows, or the
    default block size for None."""
    if rows is None:
        return bifree_maxconv(F, G)
    ny = np.unique(np.concatenate(_lattice(F, 1) + _lattice(G, 1))).size
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convolution, "_CHUNK", rows * ny)
        return bifree_maxconv(F, G)


# ---------------------------------------------------------------------------
# grid DFs of every kind the convolution meets
# ---------------------------------------------------------------------------

def _law(rng, k, lattice):
    """Atoms on a 0.5-lattice, whose grids share coordinates, or drawn
    uniformly, whose grids share none."""
    pts = 0.5 * rng.integers(0, 7, size=(k, 2)) if lattice \
        else rng.uniform(0.0, 3.0, size=(k, 2))
    return DiscreteMeasure(pts, rng.dirichlet(np.ones(k)))


def _coupled(rng, lattice):
    """A coupled law materialized on a lattice: closed-form marginals, one
    of them saturating inside the lattice."""
    C = AMHCopula(rng.uniform(-0.9, 0.9)) if rng.integers(2) \
        else GumbelMixedCopula(rng.uniform(0.0, 1.0))
    F = CoupledBDF(C, uniform_df(0.0, rng.choice([1.0, 1.5, 2.0])),
                   exponential_free_df(rng.uniform(0.0, 0.5)))
    if lattice:
        xs, ys = np.arange(-0.5, 3.25, 0.5), np.arange(0.0, 4.0, 0.5)
    else:
        xs = np.sort(rng.uniform(-0.5, 3.0, rng.integers(1, 12)))
        ys = np.sort(rng.uniform(0.0, 3.0, rng.integers(1, 12)))
    return materialize(F, np.unique(xs), np.unique(ys))


def _ones(rng):
    """Grid marginals that saturate inside the lattice: a uniform one, and
    the constant 1, which saturates at -inf."""
    vals = np.cumsum(np.cumsum(rng.dirichlet(np.ones(12)).reshape(3, 4), 0), 1)
    return GridBDF(uniform_df(0.0, 1.0), ones_df(), [0.0, 1.0, 2.0],
                   [0.0, 1.0, 2.0, 3.0], np.minimum(vals, 1.0))


def _round_trip(F, tmp):
    path = tmp / "F.json"
    dump_json(bdf_to_obj(F), path)
    return load_json(path)


@st.composite
def grid_dfs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lattice = draw(st.booleans())
    kind = draw(st.sampled_from(["law", "law", "coupled", "ones", "convolved",
                                 "json"]))
    if kind == "law":
        return bdf_from_law(_law(rng, int(rng.integers(1, 15)), lattice))
    if kind == "coupled":
        return _coupled(rng, lattice)
    if kind == "ones":
        return _ones(rng)
    a = bdf_from_law(_law(rng, int(rng.integers(1, 10)), lattice))
    b = _coupled(rng, lattice) if rng.integers(2) else \
        bdf_from_law(_law(rng, int(rng.integers(1, 10)), lattice))
    H = bifree_maxconv(a, b)
    if kind == "convolved":
        return H
    # a JSON round trip: the grid of the artifact, its marginals sampled
    # on the knots
    return bdf_from_obj(json.loads(json.dumps(bdf_to_obj(H))))


# ---------------------------------------------------------------------------
# the convolution
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rows", [1, 2, 3, 7, None])
@settings(max_examples=60, deadline=None)
@given(F=grid_dfs(), G=grid_dfs())
def test_streamed_convolution_is_the_dense_one(rows, F, G):
    assert_same_grid(_convolve_in_blocks(F, G, rows), oracle_maxconv(F, G))


@pytest.mark.parametrize("rows", [1, 2, 3, 7, None])
@settings(max_examples=20, deadline=None)
@given(F=grid_dfs())
def test_self_convolution_is_the_dense_one(rows, F):
    assert_same_grid(_convolve_in_blocks(F, F, rows), oracle_maxconv(F, F))


@pytest.mark.parametrize("rows", [1, 3, None])
def test_a_chain_through_an_artifact(rows, tmp_path):
    rng = np.random.default_rng(23)
    F = bdf_from_law(_law(rng, 40, False))
    G = _coupled(rng, True)
    H = _round_trip(_convolve_in_blocks(F, G, rows), tmp_path)
    assert_same_grid(_convolve_in_blocks(H, F, rows), oracle_maxconv(H, F))
    assert_same_grid(_convolve_in_blocks(G, H, rows), oracle_maxconv(G, H))


def test_the_cases_reach_both_saturation_overwrites():
    """A union lattice past an input's knots and its saturation point, on
    each axis: the rows and columns where the input reads a marginal."""
    F, G = _ones(np.random.default_rng(1)), _coupled(np.random.default_rng(2), True)
    assert G.xknots[-1] > F.xknots[-1] >= F.marginal1.saturation
    assert G.yknots[-1] > F.yknots[-1] >= F.marginal2.saturation
    assert_same_grid(bifree_maxconv(F, G), oracle_maxconv(F, G))


def test_the_convolution_holds_one_lattice():
    rng = np.random.default_rng(300)
    F = bdf_from_law(_law(rng, 300, False))
    G = bdf_from_law(_law(rng, 300, False))
    bifree_maxconv(F, G)
    tracemalloc.start()
    try:
        H = bifree_maxconv(F, G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lattice = 8 * H.values.size
    assert H.values.shape == (600, 600)
    assert peak <= 1.5 * lattice, peak / lattice


def test_bdf_from_law_holds_one_lattice():
    law = _law(np.random.default_rng(301), 300, False)
    tracemalloc.start()
    try:
        F = bdf_from_law(law)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * 8 * F.values.size, peak / (8 * F.values.size)


def test_bdf_from_law_is_its_lattice_sums():
    """The bordered table of the law is the cumulative sum of its masses,
    binned on the distinct coordinates, and the grid takes it over."""
    law = _law(np.random.default_rng(5), 30, True)
    F = bdf_from_law(law)
    xs, ys = np.unique(law.points[:, 0]), np.unique(law.points[:, 1])
    cells = np.zeros((xs.size, ys.size))
    np.add.at(cells, (np.searchsorted(xs, law.points[:, 0]),
                      np.searchsorted(ys, law.points[:, 1])), law.masses)
    assert np.allclose(F.values, cells.cumsum(0).cumsum(1), atol=1e-15)
    assert np.shares_memory(F.values, F._table)
    assert not F._table[0].any() and not F._table[:, 0].any()


# ---------------------------------------------------------------------------
# outer-product queries: two axis gathers, the bits of the fancy index
# ---------------------------------------------------------------------------

EDGES = [-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]
query = st.one_of(st.sampled_from(EDGES), st.floats(-1.5, 4.0),
                  st.sampled_from([-np.inf, np.inf, np.nan]))
axis = st.lists(query, min_size=1, max_size=40).map(np.array)


def _full(xs, ys):
    return np.broadcast_arrays(xs[:, None], ys[None, :])


@settings(max_examples=100, deadline=None)
@given(F=grid_dfs(), xs=axis, ys=axis)
def test_grid_outer_queries_match_full_queries(F, xs, ys):
    assert_same_bits(F.eval(xs[:, None], ys[None, :]), F.eval(*_full(xs, ys)))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(0, 30),
       lattice=st.booleans(), xs=axis, ys=axis)
def test_tail_outer_queries_match_full_queries(seed, k, lattice, xs, ys):
    rng = np.random.default_rng(seed)
    pts = 0.5 * rng.integers(0, 7, size=(k, 2)) if lattice \
        else rng.uniform(0.0, 3.0, size=(k, 2))
    tau = DiscreteMeasure(pts, rng.uniform(0.0, 1.0, k))
    assert_same_bits(tau.tail(xs[:, None], ys[None, :]), tau.tail(*_full(xs, ys)))


@pytest.mark.parametrize("n, m", [(1, 1), (1, 500), (500, 1), (3, 400),
                                  (400, 3), (250, 250), (700, 700)])
def test_both_gather_orders(n, m):
    """Few rows against many columns and the reverse take the two orders
    of the axis gathers; more rows than a block, several blocks."""
    rng = np.random.default_rng(n * 1000 + m)
    F = bdf_from_law(_law(rng, 300, False))
    tau = DiscreteMeasure(rng.uniform(0.0, 3.0, (300, 2)), rng.uniform(0, 1, 300))
    xs, ys = rng.uniform(-0.5, 3.5, n), rng.uniform(-0.5, 3.5, m)
    assert_same_bits(F.eval(xs[:, None], ys[None, :]), F.eval(*_full(xs, ys)))
    assert_same_bits(F.eval(xs[:, None], ys[None, :]),
                     dense_eval(F, xs[:, None], ys[None, :]))
    assert_same_bits(tau.tail(xs[:, None], ys[None, :]), tau.tail(*_full(xs, ys)))


# ---------------------------------------------------------------------------
# knot axes that no evaluation can use
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("xknots, yknots, values, message", [
    ([], [], np.zeros((0, 0)), "grid DF needs at least one knot"),
    ([0.0], [], np.zeros((1, 0)), "grid DF needs at least one knot"),
    ([], [0.0, 1.0], np.zeros((0, 2)), "grid DF needs at least one knot"),
    ([[0.0], [1.0]], [0.5], np.full((2, 1), 0.5), "knots must be 1-D arrays"),
])
def test_unusable_knot_axes_are_refused(xknots, yknots, values, message):
    m = uniform_df()
    with pytest.raises(ValueError) as info:
        GridBDF(m, m, xknots, yknots, values)
    assert str(info.value) == message


@pytest.mark.parametrize("obj", [
    {"kind": "grid2d", "knots": [[], []], "values": []},
    {"kind": "grid2d", "knots": [[0.0], []], "values": [[]]},
    {"kind": "grid2d", "knots": [[0.0], [1.0]], "values": [0.5]},
])
def test_an_unusable_artifact_exits_four(obj, tmp_path, capsys):
    path = tmp_path / "e.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError):
        bdf_from_obj(obj)
    assert main(["check", "maxid", f"@{path}"]) == 4
    assert capsys.readouterr().err.startswith("error:")
