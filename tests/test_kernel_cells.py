"""The chunked Gaussian kernel against the generic tensor rule.

``gaussian._chunked_kernel`` gives ``tensor_cells`` the row sums of the
rank-3 kernel without a block of integrand values: each chunk of x-node
rows is one product of the axis factors, its reciprocal and its y-node
contraction, and a symmetric lattice skips the y-panels below each chunk.
Its cells must lie within a few ulp of ``tensor_cells(_weighted_kernel(c,
scale), ...)``, the generic path kept as its reference (how they round can
depend on the BLAS kernel); it must form about half of a symmetric
lattice's values, and hold far less memory than a block.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bifreemax import gaussian, quadrature
from bifreemax.gaussian import (_chunked_kernel, _phi_edges_from_knots,
                                _rank3_factors, _weighted_kernel, cdf_grid,
                                comparison_integral, maxid_verdict)
from bifreemax.quadrature import tensor_cells

EPS = np.finfo(np.float64).eps
CS = [-0.95, -0.3, 0.4, 0.95]


def sine_knots(n):
    knots = 2.0 * np.sin(np.linspace(-math.pi / 2.0, math.pi / 2.0, n))
    knots[0], knots[-1] = -2.0, 2.0
    return knots


def cdf_scale(c):
    return (1.0 - c * c) / (4.0 * math.pi ** 2)


def chunked(c, scale, xe, ye, order=16, symmetric=False):
    return tensor_cells(_chunked_kernel(c, scale), xe, ye, order=order,
                        symmetric=symmetric)


def assert_near_reference(c, scale, xe, ye, order=16, symmetric=False):
    # cells of a positive kernel: sums without cancellation on either path
    got = chunked(c, scale, xe, ye, order=order, symmetric=symmetric)
    ref = tensor_cells(_weighted_kernel(c, scale), xe, ye, order=order,
                       symmetric=symmetric)
    assert got.shape == ref.shape
    assert np.all(ref >= 0.0)
    assert np.all(np.abs(got - ref) <= 4.0 * EPS * np.abs(ref))
    return got


# ---------------------------------------------------------------------------
# agreement on the lattices the library integrates
# ---------------------------------------------------------------------------

# one block up to 65 knots; 66 knots and more take two blocks or more
KNOTS = list(range(2, 30)) + [33, 41, 61, 64, 65, 66, 81, 101, 120, 161, 201]


@pytest.mark.parametrize("n", KNOTS)
@pytest.mark.parametrize("c", CS)
def test_sine_knot_lattices(c, n):
    pa = _phi_edges_from_knots(sine_knots(n))
    cells = assert_near_reference(c, cdf_scale(c), pa, pa, symmetric=True)
    assert np.array_equal(cells, cells.T)


@pytest.mark.parametrize("n", [2, 7, 61, 101])
@pytest.mark.parametrize("c", CS)
def test_sine_knot_lattices_taken_as_not_symmetric(c, n):
    pa = _phi_edges_from_knots(sine_knots(n))
    assert_near_reference(c, cdf_scale(c), pa, pa, symmetric=False)


@pytest.mark.parametrize("depth, points", [(1e-4, 33), (1e-6, 49)])
@pytest.mark.parametrize("order", [16, 24, 32])
@pytest.mark.parametrize("c", CS + [0.99, 0.999])
def test_tail_witness_lattices(c, order, depth, points):
    knots = np.concatenate(([-2.0], -2.0 + np.geomspace(depth, 1.2, points)))
    pa = _phi_edges_from_knots(knots)
    assert_near_reference(c, cdf_scale(c), pa, pa, order=order,
                          symmetric=True)


@pytest.mark.parametrize("x, y", [(-1.5, 0.3), (0.2, 0.2), (1.9, -1.0),
                                  (2.0, 2.0), (-2.0, 1.0)])
@pytest.mark.parametrize("c", CS)
def test_comparison_lattices(c, x, y):
    ps = np.linspace(-math.pi / 2.0, math.asin(x / 2.0), 24)
    pt = np.linspace(-math.pi / 2.0, math.asin(y / 2.0), 24)
    assert_near_reference(c, 1.0, ps, pt, order=24)


# edges on a grid of 0.01: panels of realistic width, no subnormal ones
edges = st.lists(st.integers(-150, 150), min_size=2, max_size=12,
                 unique=True).map(lambda e: np.sort(e) / 100.0)


@settings(max_examples=150, deadline=None)
@given(edges, edges, st.integers(1, 32), st.booleans(),
       st.floats(-0.95, 0.95), st.integers(1, 4000), st.integers(1, 20000))
def test_small_chunks_and_blocks(xe, ye, order, symmetric, c, chunk, block):
    # chunks of 4 rows up to whole blocks, and blocks of one x-panel up to
    # the whole lattice: chunk and block edges fall everywhere, and an
    # order that 4 does not divide leaves chunks that straddle panels
    ye = xe if symmetric else ye
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gaussian, "_CHUNK", chunk)
        mp.setattr(quadrature, "_BLOCK", block)
        assert_near_reference(c, 0.01, xe, ye, order=order,
                              symmetric=symmetric)


def test_empty_axes():
    e = np.array([-1.0, 0.0, 1.0])
    assert chunked(0.3, 1.0, e, e[:1]).shape == (2, 0)
    assert chunked(0.3, 1.0, e[:1], e).shape == (0, 2)
    assert chunked(0.3, 1.0, e[:1], e[:1], symmetric=True).shape == (0, 0)


def test_factors_are_those_of_the_reference_integrand():
    rng = np.random.default_rng(29)
    phi = rng.uniform(-1.57, 1.57, 40)
    psi = rng.uniform(-1.57, 1.57, 30)
    left, right = _rank3_factors(-0.6, 0.02, phi, psi)
    assert left.shape == (40, 3) and right.shape == (3, 30)
    got = _weighted_kernel(-0.6, 0.02)(phi[:, None], psi[None, :])
    assert np.array_equal(got, 1.0 / (left @ right))


@pytest.mark.parametrize("run", [lambda: cdf_grid(0.3, 41),
                                 lambda: comparison_integral(-0.5, 0.3, 0.2)],
                         ids=["cdf_grid", "comparison"])
def test_cells_come_from_tensor_cells(run, monkeypatch):
    # the block loop lives in quadrature alone; the kernel brings its rows
    kernels = []

    def traced(f, *args, **kwargs):
        kernels.append(f)
        return tensor_cells(f, *args, **kwargs)

    monkeypatch.setattr(gaussian, "tensor_cells", traced)
    run()
    assert len(kernels) == 1 and callable(kernels[0].block_rows)


# ---------------------------------------------------------------------------
# work and memory
# ---------------------------------------------------------------------------

class _CountingNumpy:
    """numpy for the gaussian module, counting the values it reciprocates:
    each integrand value is formed by one reciprocal."""

    def __init__(self):
        self.formed = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def reciprocal(self, x, out=None):
        self.formed += x.size
        return np.reciprocal(x, out=out)


def _formed(c, xe, ye, order=16, symmetric=False):
    counter = _CountingNumpy()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gaussian, "np", counter)
        chunked(c, 1.0, xe, ye, order=order, symmetric=symmetric)
    return counter.formed


# the 61-knot lattice of every c < 0 verdict fits one block, in which the
# generic rule forms every value even when told the lattice is symmetric
@pytest.mark.parametrize("c, n", [(0.3, 41), (0.3, 61), (-0.5, 61), (0.3, 65),
                                  (0.3, 66), (0.3, 101), (0.3, 161),
                                  (0.3, 201)])
def test_symmetric_lattice_forms_about_half(c, n):
    # a chunk skips only the y-panels below its first x-panel; below about
    # 40 knots a chunk spans several panels and forms more than half
    pa = _phi_edges_from_knots(sine_knots(n))
    full = ((n - 1) * 16) ** 2
    assert _formed(c, pa, pa) == full
    assert _formed(c, pa, pa, symmetric=True) <= 0.55 * full


def _traced_peak(run):
    run()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# a block of integrand values alone is 8 MB: the generic rule peaked at
# 9.1, 8.0 and 2.6 MB on these calls
@pytest.mark.parametrize("run, bound", [
    (lambda: cdf_grid(0.3, 161), 2.5e6),
    (lambda: cdf_grid(-0.5, 201), 2.5e6),
    (lambda: maxid_verdict(-0.5), 2.0e6),
    (lambda: maxid_verdict(0.5), 1.5e6),
    (lambda: comparison_integral(-0.5, 0.3, 0.2), 1.0e6),
], ids=["cdf_grid-161", "cdf_grid-201", "verdict-neg", "verdict-pos",
        "comparison"])
def test_traced_peak(run, bound):
    peak = _traced_peak(run)
    assert peak < bound, peak / 1e6
