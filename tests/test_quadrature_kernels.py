"""The quadrature kernels against the code they replace.

``tensor_cells`` contracts each block with two BLAS products on the reference
Gauss-Legendre weights and scales by the panel half-widths once; the einsum
over the scaled weights it replaces is kept here as an oracle and must agree
within 4 ulp of each cell's magnitude.  ``gaussian._weighted_kernel`` forms
and reciprocates its block in row chunks, with the bits of one product over
the whole block.  ``adaptive_panels`` integrates both halves of a split by
one integrand call, with the bits of the two-call loop it replaces.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bifreemax import gaussian, quadrature
from bifreemax.gaussian import (_phi_edges_from_knots, _weight,
                                _weighted_kernel, kernel_denominator)
from bifreemax.quadrature import adaptive_panels, panel_nodes, tensor_cells

EPS = np.finfo(np.float64).eps


# ---------------------------------------------------------------------------
# oracles: the einsum contraction and the two-call adaptive loop
# ---------------------------------------------------------------------------

def einsum_tensor_cells(f, xedges, yedges, order=16, symmetric=False):
    """The blocked rule with the scaled panel weights and one einsum per
    block, on the same blocks and integrand calls."""
    nx, wx = panel_nodes(xedges, order)
    ny, wy = panel_nodes(yedges, order)
    step = max(1, quadrature._BLOCK // max(order * ny.size, 1))
    cells = np.empty((nx.shape[0], ny.shape[0]))
    for lo in range(0, nx.shape[0], step):
        block = slice(lo, lo + step)
        cols = slice(lo if symmetric else 0, None)
        vals = f(nx[block, :, None, None], ny[None, None, cols, :])
        cells[block, cols] = np.einsum("ab,cd,abcd->ac", wx[block], wy[cols],
                                       vals, optimize=True)
    if symmetric:
        below = np.tril_indices(nx.shape[0], -1)
        cells[below] = cells.T[below]
    return cells


def two_call_adaptive_panels(f, a, b, tol=1e-8, calls=None):
    """Adaptive bisection with one integrand call per panel estimate."""

    def estimate(lo, hi):
        if calls is not None:
            calls.append((lo, hi))
        x, w = panel_nodes([lo, hi], 32)
        value = float(np.sum(w * f(x)))
        if not math.isfinite(value):
            raise ValueError(f"integrand is not finite on [{lo!r}, {hi!r}]")
        return value

    total = 0.0
    stack = [(float(a), float(b), estimate(a, b), 0)]
    while stack:
        lo, hi, whole, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = estimate(lo, mid)
        right = estimate(mid, hi)
        refined = left + right
        if abs(refined - whole) < tol * (hi - lo) / (b - a) or depth >= 28:
            total += refined
        else:
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))
    return total


def one_shot_kernel(c, scale):
    """The rank-3 integrand as one product over the block and one
    reciprocal."""
    k0, k1, k2 = (1.0 - c * c) ** 2, c * (1.0 + c * c), c * c

    def integrand(phi, psi):
        shape = np.broadcast_shapes(phi.shape, psi.shape)
        phi, psi = phi.ravel(), psi.ravel()
        s = 2.0 * np.sin(phi)
        t = 2.0 * np.sin(psi)
        left = np.stack([k0 + k2 * s * s, np.ones_like(s), -k1 * s], axis=1)
        left /= (scale * _weight(phi))[:, None]
        right = np.stack([np.ones_like(t), k2 * t * t, t]) / _weight(psi)
        return np.reciprocal(left @ right).reshape(shape)

    return integrand


# ---------------------------------------------------------------------------
# tensor_cells: two BLAS products on the reference weights
# ---------------------------------------------------------------------------

def _exp_sine(x, y):
    return np.exp(np.sin(3.0 * x) * np.sin(3.0 * y)) + x * y + 3.0


# edges on a grid of 0.01: panels of realistic width, no subnormal ones
edges = st.lists(st.integers(-150, 150), min_size=2, max_size=9,
                 unique=True).map(lambda e: np.sort(e) / 100.0)


@settings(max_examples=200, deadline=None)
@given(edges, edges, st.integers(1, 24), st.booleans(),
       st.floats(-0.95, 0.95), st.booleans(), st.integers(1, 2000))
def test_cells_within_4_ulp_of_the_einsum(xe, ye, order, symmetric, c,
                                          gaussian_f, block):
    ye = xe if symmetric else ye
    # positive integrands: each cell is a sum without cancellation
    f = _weighted_kernel(c, 0.01) if gaussian_f else _exp_sine
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_BLOCK", block)
        got = tensor_cells(f, xe, ye, order=order, symmetric=symmetric)
        ref = einsum_tensor_cells(f, xe, ye, order=order, symmetric=symmetric)
    assert got.shape == ref.shape
    assert np.all(ref > 0.0)
    assert np.all(np.abs(got - ref) <= 4.0 * EPS * np.abs(ref))
    if symmetric:
        assert np.array_equal(got, got.T)


@pytest.mark.parametrize("order", [1, 2, 5, 16, 24])
@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("n", [61, 161])
def test_cdf_lattice_cells_within_4_ulp(order, symmetric, n):
    knots = 2.0 * np.sin(np.linspace(-math.pi / 2.0, math.pi / 2.0, n))
    knots[0], knots[-1] = -2.0, 2.0
    pa = _phi_edges_from_knots(knots)
    f = _weighted_kernel(0.4, (1.0 - 0.16) / (4.0 * math.pi ** 2))
    got = tensor_cells(f, pa, pa, order=order, symmetric=symmetric)
    ref = einsum_tensor_cells(f, pa, pa, order=order, symmetric=symmetric)
    assert np.all(np.abs(got - ref) <= 4.0 * EPS * np.abs(ref))


def test_cells_call_the_integrand_once_per_block():
    xe = np.linspace(-1.0, 1.0, 12)
    ye = np.linspace(-0.5, 1.5, 7)
    shapes = []

    def counted(x, y):
        shapes.append((x.shape, y.shape))
        return _exp_sine(x, y)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_BLOCK", 4 * 4 * 6 * 3)
        tensor_cells(counted, xe, ye, order=4)
    assert shapes == [((3, 4, 1, 1), (1, 1, 6, 4))] * 3 + \
        [((2, 4, 1, 1), (1, 1, 6, 4))]


def test_one_block_live_at_a_time():
    # 7 blocks of 25 x-panels; holding the last block while f made the
    # next one peaked at two blocks
    pa = np.linspace(-1.5, 1.5, 161)
    f = _weighted_kernel(0.3, 1.0)
    tensor_cells(f, pa, pa)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tensor_cells(f, pa, pa)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * quadrature._BLOCK, peak / (8 * quadrature._BLOCK)


# ---------------------------------------------------------------------------
# the Gaussian integrand: row chunks, the bits of one product
# ---------------------------------------------------------------------------

# (x-panels, order) and (y-panels, order): a chunk holds
# max(2, _CHUNK // (y-panels * order)) rows of the block, the last chunk
# also takes a single row left over
SHAPES = [
    ((50, 16), (30, 16)),     # 68 rows a chunk, 800 rows
    ((7, 16), (161, 16)),     # 12 rows a chunk, 112 rows
    ((33, 24), (23, 24)),     # 59 rows a chunk, 792 rows
    ((4, 3), (3000, 23)),     # rows longer than a chunk: two rows each
    ((5, 3), (2000, 23)),     # the same, and one row left over
    ((1, 24), (23, 24)),      # one chunk
    ((1, 1), (4000, 23)),     # one row: a matrix-vector product
]


@pytest.mark.parametrize("c", [-0.95, -0.3, -1e-8, 1e-8, 0.4, 0.95])
@pytest.mark.parametrize("xs, ys", SHAPES)
def test_chunked_integrand_is_the_one_shot_product(c, xs, ys):
    rng = np.random.default_rng(21)
    phi = rng.uniform(-1.57, 1.57, xs + (1, 1))
    psi = rng.uniform(-1.57, 1.57, (1, 1) + ys)
    scale = (1.0 - c * c) / (4.0 * math.pi ** 2)
    got = _weighted_kernel(c, scale)(phi, psi)
    assert got.shape == xs + ys
    assert np.array_equal(got, one_shot_kernel(c, scale)(phi, psi))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 3000),
       st.floats(-0.95, 0.95))
def test_small_chunks_match_one_chunk(nx, ny, chunk, c):
    rng = np.random.default_rng(nx * 41 + ny)
    phi = rng.uniform(-1.57, 1.57, (nx, 4, 1, 1))
    psi = rng.uniform(-1.57, 1.57, (1, 1, ny, 4))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gaussian, "_CHUNK", chunk)
        got = _weighted_kernel(c, 1.0)(phi, psi)
    assert np.array_equal(got, one_shot_kernel(c, 1.0)(phi, psi))


def test_empty_block():
    got = _weighted_kernel(0.3, 1.0)(np.zeros((2, 4, 1, 1)),
                                     np.zeros((1, 1, 0, 4)))
    assert got.shape == (2, 4, 0, 4)


# ---------------------------------------------------------------------------
# adaptive_panels: one integrand call per split, the bits of two
# ---------------------------------------------------------------------------

def _calls_and_value(f, a, b, tol):
    calls = []

    def counted(x):
        calls.append(x.shape)
        return f(x)

    return calls, adaptive_panels(counted, a, b, tol=tol)


def _check_against_two_calls(f, a, b, tol):
    panels = []
    ref = two_call_adaptive_panels(f, a, b, tol=tol, calls=panels)
    calls, got = _calls_and_value(f, a, b, tol)
    assert repr(got) == repr(ref)
    # the oracle estimates the whole interval, then two halves per split
    splits = (len(panels) - 1) // 2
    assert len(calls) == 1 + splits
    assert calls == [(1, 32)] + [(2, 32)] * splits
    return splits


def _identity_integrand(c, x):
    def integrand(psi):
        return _weight(psi) / kernel_denominator(c, x, 2.0 * np.sin(psi))

    return integrand


@settings(max_examples=100, deadline=None)
@given(st.floats(-0.9, 0.9), st.floats(-2.0, 2.0))
def test_identity_integrand_matches_two_calls(c, x):
    _check_against_two_calls(_identity_integrand(c, x), -math.pi / 2.0,
                             math.pi / 2.0, 1e-9)


def test_identity_check_is_the_two_call_value():
    for c, x in [(-0.9, 2.0), (-0.5, 0.3), (0.0, 0.0), (0.7, -1.9)]:
        ref = two_call_adaptive_panels(_identity_integrand(c, x),
                                       -math.pi / 2.0, math.pi / 2.0, 1e-9)
        assert repr(gaussian.identity_check(c, x).value) == repr(ref)


def test_sine_matches_two_calls():
    assert _check_against_two_calls(np.sin, 0.0, math.pi, 1e-10) > 0


def test_peak_matches_two_calls():
    # a narrow peak at 0 takes many splits
    assert _check_against_two_calls(lambda x: 1.0 / (1e-4 + x * x),
                                    -1, 1, 1e-9) > 10


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_refusal_names_the_half_that_is_not_finite(value):
    # finite on the whole interval's nodes and on the left half's, not on
    # one node of the right half's
    bad = panel_nodes([0.5, 1.0], 32)[0][0, 7]

    def f(x):
        return np.where(x == bad, value, np.cos(x))

    for integrate in (adaptive_panels, two_call_adaptive_panels):
        with pytest.raises(ValueError) as info:
            integrate(f, 0.0, 1.0)
        assert str(info.value) == "integrand is not finite on [0.5, 1.0]"
