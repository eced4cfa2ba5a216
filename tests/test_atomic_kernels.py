"""The lattice-sum kernels of atomic measures against the dense broadcasts
they replaced: ``DiscreteMeasure.tail``, ``marginal_tail`` and
``bdf_from_law`` agree with them to 1e-12 and stay within a memory bound
that a dense broadcast breaks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from bifreemax import DiscreteMeasure, bdf_from_law, from_exponent_measure, materialize


# ---------------------------------------------------------------------------
# dense oracles: O(atoms x queries) and O(k^3) memory
# ---------------------------------------------------------------------------

def dense_tail(m, x1, x2):
    a1 = np.asarray(x1, dtype=float)[..., None]
    a2 = np.asarray(x2, dtype=float)[..., None]
    inside = (m.points[:, 0] > a1) & (m.points[:, 1] > a2)
    return (inside * m.masses).sum(axis=-1)


def dense_marginal_tail(m, axis, x):
    a = np.asarray(x, dtype=float)[..., None]
    return ((m.points[:, axis] > a) * m.masses).sum(axis=-1)


def dense_bdf_from_law(m):
    xs = np.unique(m.points[:, 0])
    ys = np.unique(m.points[:, 1])
    px = m.points[:, 0][:, None, None]
    py = m.points[:, 1][:, None, None]
    below = (px <= xs[None, :, None]) & (py <= ys[None, None, :])
    vals = (below * m.masses[:, None, None]).sum(axis=0)
    m1 = ((m.points[:, 0][:, None] <= xs[None, :]) * m.masses[:, None]).sum(axis=0)
    m2 = ((m.points[:, 1][:, None] <= ys[None, :]) * m.masses[:, None]).sum(axis=0)
    return xs, ys, vals, m1, m2


# ---------------------------------------------------------------------------
# strategies: coordinates on a coarse lattice, so atoms tie with each other
# and queries land exactly on atom coordinates
# ---------------------------------------------------------------------------

LATTICE = [-1.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0]
coord = st.one_of(st.sampled_from(LATTICE),
                  st.floats(-2.0, 4.0, allow_nan=False))
query = st.one_of(coord, st.sampled_from([np.nan, -np.inf, np.inf]))
mass = st.one_of(st.just(0.0), st.floats(0.0, 1.0))


@st.composite
def measures(draw, max_atoms=40):
    k = draw(st.integers(0, max_atoms))
    pts = draw(st.lists(st.tuples(coord, coord), min_size=k, max_size=k))
    ms = draw(st.lists(mass, min_size=k, max_size=k))
    return DiscreteMeasure(np.array(pts, dtype=float).reshape(k, 2),
                           np.array(ms, dtype=float))


def queries(max_size, min_size=0):
    return st.lists(query, min_size=min_size, max_size=max_size).map(
        lambda v: np.array(v, dtype=float))


def _same(got, want):
    got = np.asarray(got)
    assert got.dtype == np.float64
    assert got.shape == np.shape(want)
    assert_allclose(got, want, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# tail and marginal_tail
# ---------------------------------------------------------------------------

class TestTailOracle:
    # few atoms against many queries cut each axis at the atoms'
    # coordinates, many atoms against few queries at the queries'; the
    # draws cover both
    @settings(max_examples=80, deadline=None)
    @given(measures(), queries(30), queries(30))
    def test_outer_product_queries(self, m, xs, ys):
        _same(m.tail(xs[:, None], ys[None, :]),
              dense_tail(m, xs[:, None], ys[None, :]))

    @settings(max_examples=80, deadline=None)
    @given(measures(), st.data())
    def test_scattered_queries(self, m, data):
        n = data.draw(st.integers(0, 30))
        xs = data.draw(queries(n, n))
        ys = data.draw(queries(n, n))
        _same(m.tail(xs, ys), dense_tail(m, xs, ys))

    @settings(max_examples=60, deadline=None)
    @given(measures(), query, query)
    def test_scalar_queries(self, m, x, y):
        got = m.tail(x, y)
        assert type(got) is float
        assert abs(got - float(dense_tail(m, x, y))) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(measures(), queries(30), st.sampled_from([0, 1]))
    def test_marginal_tail(self, m, xs, axis):
        _same(m.marginal_tail(axis, xs), dense_marginal_tail(m, axis, xs))
        x = float(xs[0]) if xs.size else 0.5
        got = m.marginal_tail(axis, x)
        assert type(got) is float
        assert abs(got - float(dense_marginal_tail(m, axis, x))) <= 1e-12

    def test_both_lattices(self):
        rng = np.random.default_rng(3)
        m = DiscreteMeasure(rng.integers(0, 6, size=(50, 2)).astype(float),
                            rng.uniform(0.0, 1.0, 50))
        # the atoms have 6 distinct coordinates per axis: one query per axis
        # cuts at the queries, a fine product grid at the atoms, and the last
        # case cuts x at the queries (a NaN among them) and y at the atoms
        for xs, ys in [(np.array([2.0]), np.array([3.0])),
                       (np.linspace(-1, 7, 97)[:, None],
                        np.linspace(-1, 7, 89)[None, :]),
                       (np.array([2.0, np.nan, 5.0])[:, None],
                        np.unique(m.points[:, 1])[None, :])]:
            _same(m.tail(xs, ys), dense_tail(m, xs, ys))

    def test_open_quadrant_boundary(self):
        m = DiscreteMeasure([[1.0, 2.0], [1.0, 3.0], [2.0, 2.0]], [0.1, 0.2, 0.3])
        assert m.tail(1.0, 2.0) == 0.0
        assert m.tail(1.0, 1.999) == pytest.approx(0.3)
        assert m.tail(0.999, 2.0) == pytest.approx(0.2)
        assert m.tail(0.999, 1.999) == pytest.approx(0.6)
        assert m.marginal_tail(0, 1.0) == pytest.approx(0.3)
        assert m.marginal_tail(1, 2.0) == pytest.approx(0.2)

    def test_nan_queries_have_no_mass(self):
        m = DiscreteMeasure([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
        got = m.tail(np.array([np.nan, 0.5, -1.0]), np.array([0.5, np.nan, -1.0]))
        assert_allclose(got, [0.0, 0.0, 1.0], rtol=0, atol=0)
        assert m.tail(np.nan, np.nan) == 0.0
        assert m.marginal_tail(0, np.nan) == 0.0

    def test_empty_measure(self):
        m = DiscreteMeasure.from_atoms([])
        got = m.tail(np.linspace(0, 1, 4)[:, None], np.linspace(0, 1, 3)[None, :])
        assert got.dtype == np.float64 and got.shape == (4, 3)
        assert not got.any()
        assert m.tail(0.0, 0.0) == 0.0
        v = m.marginal_tail(1, [0.0, 1.0])
        assert v.dtype == np.float64 and not v.any()

    def test_broadcast_shapes(self):
        m = DiscreteMeasure([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.25])
        x1 = np.zeros((2, 1, 3)) - 1.0
        x2 = np.zeros((4, 1)) + 0.5
        _same(m.tail(x1, x2), dense_tail(m, x1, x2))
        assert m.tail(x1, x2).shape == (2, 4, 3)
        with pytest.raises(ValueError):
            m.tail(np.zeros(3), np.zeros(4))


# ---------------------------------------------------------------------------
# bdf_from_law
# ---------------------------------------------------------------------------

@st.composite
def laws(draw):
    m = draw(measures(max_atoms=30).filter(lambda m: m.total_mass > 0))
    return m.normalized()


class TestBdfFromLawOracle:
    @settings(max_examples=80, deadline=None)
    @given(laws())
    def test_values_and_marginals(self, law):
        xs, ys, vals, m1, m2 = dense_bdf_from_law(law)
        F = bdf_from_law(law)
        assert np.array_equal(F.xknots, xs) and np.array_equal(F.yknots, ys)
        _same(F.values, vals)
        assert np.array_equal(F.marginal1.knots, xs)
        assert np.array_equal(F.marginal2.knots, ys)
        _same(F.marginal1.values, m1)
        _same(F.marginal2.values, m2)

    def test_ties_and_zero_masses(self):
        law = DiscreteMeasure([[0.0, 1.0], [0.0, 1.0], [2.0, 0.0], [1.0, 1.0]],
                              [0.25, 0.25, 0.5, 0.0])
        F = bdf_from_law(law)
        # the zero-mass atom keeps its knot
        assert F.xknots.tolist() == [0.0, 1.0, 2.0]
        assert F.yknots.tolist() == [0.0, 1.0]
        assert_allclose(F.values, [[0.0, 0.5], [0.0, 0.5], [0.5, 1.0]],
                        rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# memory guard: a dense broadcast needs hundreds of MB at these sizes
# ---------------------------------------------------------------------------

LIMIT_MB = 32.0


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_exponent_measure_materialize_memory():
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.05, 3.0, size=(500, 2))
    ms = rng.uniform(0.1, 1.0, 500)
    ms *= 0.9 / ms.sum()
    F = from_exponent_measure(DiscreteMeasure(pts, ms), (0.0, 0.0))
    axis = np.linspace(-0.2, 3.5, 301)
    assert _peak_mb(lambda: materialize(F, axis, axis)) <= LIMIT_MB


def test_bdf_from_law_memory():
    rng = np.random.default_rng(1)
    law = DiscreteMeasure(rng.uniform(0.0, 3.0, size=(300, 2)),
                          rng.dirichlet(np.ones(300)))
    assert _peak_mb(lambda: bdf_from_law(law)) <= LIMIT_MB
