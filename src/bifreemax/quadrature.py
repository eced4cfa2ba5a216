"""Gauss-Legendre panel quadrature with adaptive splitting.

The Gaussian-family integrands carry square-root edge factors on [-2, 2];
substituting x = 2 sin(phi) removes them, after which fixed-order panels
converge at spectral rate.  The helpers here work in the substituted
variable: callers pass smooth integrands on phi-intervals.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "panel_nodes",
    "adaptive_panels",
    "tensor_cells",
]

# integrand values tensor_cells holds at once (8 MB of float64), or the row
# sums of as many values for an integrand that contracts its own y-nodes;
# large enough that comparison_integral's 552^2 lattice, the default ratio
# probe of maxid_verdict (960^2) and a cdf_grid of up to 65 knots (1024^2)
# each run in one block, as each block costs one integrand call and two BLAS
# products (no contraction path is searched per block).  tensor_cells saves
# work on a symmetric lattice only across blocks, so a generic integrand is
# formed on both triangles of a one-block lattice, and on 58% of the
# 161-knot one (7 blocks); the Gaussian kernel's block_rows skips the
# y-panels below each chunk of its rows
_BLOCK = 1 << 20


@functools.cache
def _rule(order):
    return leggauss(order)


def panel_nodes(edges, order=32):
    """Scaled nodes and weights for each panel between consecutive edges.

    Returns arrays of shape (len(edges) - 1, order).
    """
    nodes, weights = _rule(order)
    edges = np.asarray(edges, dtype=np.float64)
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid + half * nodes[None, :], half * weights[None, :]


def adaptive_panels(f, a, b, tol=1e-8):
    """Integrate by bisecting panels until refinement moves less than tol.

    Each panel's order-32 estimate is compared against the sum over its two
    halves; panels are split while the difference exceeds the panel's share
    tol*(panel width)/(b - a).  Splitting stops at depth 28, a panel
    2^-28 of the interval wide, whether or not the panel has converged.
    Both halves of a split are integrated by one call of ``f`` on nodes of
    shape (2, 32), each row summed alone, so a panel's estimate has the
    same bits as from a call on its own nodes.  A non-finite panel estimate
    raises ValueError instead of being split.  An empty interval, a == b,
    integrates to 0.0 without a call of ``f``.
    """
    if a == b:
        return 0.0

    def estimate(edges):
        x, w = panel_nodes(edges, 32)
        values = np.sum(w * f(x), axis=1).tolist()
        for lo, hi, value in zip(edges, edges[1:], values):
            if not math.isfinite(value):
                raise ValueError(f"integrand is not finite on [{lo!r}, {hi!r}]")
        return values

    total = 0.0
    stack = [(float(a), float(b), estimate([a, b])[0], 0)]
    while stack:
        lo, hi, whole, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left, right = estimate([lo, mid, hi])
        refined = left + right
        if abs(refined - whole) < tol * (hi - lo) / (b - a) or depth >= 28:
            total += refined
        else:
            stack.append((lo, mid, left, depth + 1))
            stack.append((mid, hi, right, depth + 1))
    return total


def _formed_rows(f, x, y, w, symmetric):
    """Row sums of one block of a generic integrand: its values on the whole
    block, formed at once and contracted over the y-nodes."""
    vals = f(x[:, :, None, None], y[None, None, :, :])
    return vals.reshape(-1, w.size) @ w


def tensor_cells(f, xedges, yedges, order=16, symmetric=False):
    """Cell integrals of f(x, y) over the panel lattice.

    Returns an array of shape (len(xedges)-1, len(yedges)-1) whose cumulative
    sums give the integral over growing rectangles.  ``f`` is called on one
    block of consecutive x-panels at a time, with x-nodes of shape
    (panels, order, 1, 1) and y-nodes of shape (1, 1, len(yedges)-1, order);
    a block holds at most ``_BLOCK`` (2^20) integrand values, or one x-panel
    when a single panel is larger.  Peak memory is therefore that block, the
    temporaries ``f`` makes of its size, and the output, not
    O(len(xedges) * len(yedges) * order^2).

    A panel's weights are its half-width times the reference Gauss-Legendre
    weights, so each block is contracted with the reference weights by two
    BLAS products, first over the y-nodes and then over the x-nodes, with no
    contraction path to search and no copy of the block, and the cells are
    scaled by the half-widths of their two panels once.

    An integrand may contract its own y-nodes, so that no block of its
    values is formed: if ``f`` has a ``block_rows`` method, each block is
    ``f.block_rows(x, y, w, symmetric)`` instead, with x-nodes of shape
    (panels, order), y-nodes of shape (y-panels, order) and the reference
    weights ``w``, and returns the y-node sums of shape
    (panels * order, y-panels) that the first product would.

    ``symmetric=True`` is for f(x, y) = f(y, x) on equal edges: a block
    starting at x-panel i then integrates only the y-panels from i onward,
    and the cells below the diagonal are copied from those above it.  Row
    sums that fall below the diagonal are only read by the copied-over
    cells, so ``block_rows`` may skip them, leaving any finite value.
    """
    w = _rule(order)[1]
    nx, _ = panel_nodes(xedges, order)
    ny, _ = panel_nodes(yedges, order)
    hx, hy = (0.5 * np.diff(np.asarray(e, dtype=np.float64))
              for e in (xedges, yedges))
    block_rows = getattr(f, "block_rows", None) or functools.partial(
        _formed_rows, f)
    step = max(1, _BLOCK // max(order * ny.size, 1))
    cells = np.empty((nx.shape[0], ny.shape[0]))
    for lo in range(0, nx.shape[0], step):
        block = slice(lo, lo + step)
        cols = slice(lo if symmetric else 0, None)
        x, y = nx[block], ny[cols]
        rows = block_rows(x, y, w, symmetric).reshape(
            x.shape[0], order, y.shape[0])
        cells[block, cols] = (w @ rows) * hx[block, None] * hy[None, cols]
        # drop the row sums before the next block forms its own
        del rows
    if symmetric:
        below = np.tril_indices(nx.shape[0], -1)
        cells[below] = cells.T[below]
    return cells
