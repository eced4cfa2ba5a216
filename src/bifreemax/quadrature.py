"""Gauss-Legendre panel quadrature with adaptive splitting.

The Gaussian-family integrands carry square-root edge factors on [-2, 2];
substituting x = 2 sin(phi) removes them, after which fixed-order panels
converge at spectral rate.  The helpers here work in the substituted
variable: callers pass smooth integrands on phi-intervals.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "panel_nodes",
    "adaptive_panels",
    "tensor_cells",
]

_CACHE = {}


def _rule(order):
    if order not in _CACHE:
        _CACHE[order] = leggauss(order)
    return _CACHE[order]


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
    """

    def estimate(lo, hi):
        x, w = panel_nodes([lo, hi], 32)
        return float(np.sum(w * f(x)))

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


def tensor_cells(f, xedges, yedges, order=16):
    """Cell integrals of f(x, y) over the panel lattice.

    Returns an array of shape (len(xedges)-1, len(yedges)-1) whose cumulative
    sums give the integral over growing rectangles.
    """
    nx, wx = panel_nodes(xedges, order)
    ny, wy = panel_nodes(yedges, order)
    vals = f(nx[:, :, None, None], ny[None, None, :, :])
    return np.einsum("ab,cd,abcd->ac", wx, wy, vals)
