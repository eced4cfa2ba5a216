"""The correlated bi-free Gaussian family on [-2, 2]^2.

For correlation c with |c| < 1 the family has the density

    p_c(s, t) = (1 - c^2)/(4 pi^2) * sqrt(4 - s^2) sqrt(4 - t^2) / D_c(s, t),
    D_c(s, t) = (1 - c^2)^2 - c (1 + c^2) s t + c^2 (s^2 + t^2),

with semicircle marginals.  D_c is bounded away from zero on the square via
its completed-square form.  The semicircle-weighted kernel integrates to a
constant in the first coordinate,

    integral sqrt(4 - t^2) / D_c(x, t) dt = 2 pi / (1 - c^2),

which pins the quadrature and underlies the divisibility analysis: the
family is bi-freely max-infinitely divisible only at c = 0 (independent
marginals) and c = 1 (comonotone support line).  For c < 0 the product
ratio F1*F2/F strictly decreases in each coordinate; for c in (0, 1) the
tail functional increases in x at points near the lower corner (-2, -2).
Both mechanisms are located numerically and reported with explicit
witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolution import product_ratio, tail_functional
from .distributions import (_CHUNK, GridBDF, _as_float_array, _pointwise,
                            _worst, semicircle_df)
from .quadrature import adaptive_panels, panel_nodes, tensor_cells

__all__ = [
    "GaussianCorr",
    "NoDensityError",
    "UnresolvedQuadratureError",
    "density",
    "kernel_denominator",
    "cdf_grid",
    "identity_check",
    "IdentityReport",
    "comparison_integral",
    "maxid_verdict",
    "GaussianVerdict",
    "GaussianWitness",
]


class NoDensityError(ValueError):
    """Raised when a density is requested at |c| = 1 (singular support)."""


class UnresolvedQuadratureError(ValueError):
    """Raised when the panels of a CDF lattice do not resolve the kernel:
    its cells do not sum to the unit mass of the density."""


@dataclass(frozen=True)
class GaussianCorr:
    """Correlation coefficient of the bi-free Gaussian family."""

    c: float

    def __post_init__(self):
        if not -1.0 <= self.c <= 1.0:
            raise ValueError("correlation must lie in [-1, 1]")


def _c_value(c):
    return c.c if isinstance(c, GaussianCorr) else float(c)


def kernel_denominator(c, s, t):
    """D_c(s, t); strictly positive on the square for |c| < 1."""
    c = _c_value(c)
    s = _as_float_array(s)
    t = _as_float_array(t)
    return (1.0 - c * c) ** 2 - c * (1.0 + c * c) * s * t + c * c * (s * s + t * t)


def density(c, s, t):
    """Density p_c(s, t); zero off the square, NaN where s or t is NaN,
    undefined at |c| = 1."""
    cv = _density_c(c)

    def p(sa, ta):
        inside = (np.abs(sa) <= 2.0) & (np.abs(ta) <= 2.0)
        inside |= np.isnan(sa) | np.isnan(ta)
        sc = np.clip(sa, -2.0, 2.0)
        tc = np.clip(ta, -2.0, 2.0)
        num = np.sqrt(4.0 - sc * sc) * np.sqrt(4.0 - tc * tc)
        out = (1.0 - cv * cv) / (4.0 * math.pi ** 2) * num \
            / kernel_denominator(cv, sc, tc)
        return np.where(inside, out, 0.0)

    return _pointwise(p, s, t)


def _density_c(c):
    """``c`` as a float with |c| < 1, else NoDensityError; NaN fails too."""
    cv = _c_value(c)
    if not abs(cv) < 1.0:
        raise NoDensityError("the family has a density only for |c| < 1, "
                             f"got c = {cv!r}")
    return cv


def _square_point(name, v):
    """A finite coordinate in [-2, 2] as a float, else ValueError."""
    v = float(v)
    if not abs(v) <= 2.0:
        raise ValueError(f"{name} must lie in [-2, 2], got {v!r}")
    return v


def _phi_edges_from_knots(knots):
    return np.arcsin(np.clip(np.asarray(knots, dtype=np.float64) / 2.0, -1, 1))


def _weight(phi):
    """sqrt(4 - s^2) times the Jacobian 2 cos(phi) of s = 2 sin(phi)."""
    return 4.0 * np.cos(phi) ** 2


def _rank3_factors(c, scale, phi, psi):
    """The (n, 3) and (3, m) factors whose product is
    D_c(s, t) / (scale * w(s) w(t)) on the flat node arrays ``phi`` and
    ``psi``, with s = 2 sin(phi), t = 2 sin(psi) and w the semicircle
    weight times the Jacobian.

    D_c(s, t) = (k0 + k2 s^2) * 1 + 1 * (k2 t^2) + (-k1 s) * t has rank 3,
    and so has its quotient by scale * w(s) w(t): each factor is divided by
    its own axis weight, and scale goes into the s factors.
    """
    k0, k1, k2 = (1.0 - c * c) ** 2, c * (1.0 + c * c), c * c
    s = 2.0 * np.sin(phi)
    t = 2.0 * np.sin(psi)
    left = np.stack([k0 + k2 * s * s, np.ones_like(s), -k1 * s], axis=1)
    left /= (scale * _weight(phi))[:, None]
    right = np.stack([np.ones_like(t), k2 * t * t, t]) / _weight(psi)
    return left, right


def _weighted_kernel(c, scale):
    """The integrand scale * w(s) w(t) / D_c(s, t) of phi and psi, for the
    node arrays of ``tensor_cells``: phi varies on the leading axes and psi
    on the trailing ones.

    This is the generic path, kept as the reference of ``_chunked_kernel``:
    it forms the whole block as one product of the ``_rank3_factors`` and
    takes its reciprocal in place.
    """

    def integrand(phi, psi):
        shape = np.broadcast_shapes(phi.shape, psi.shape)
        left, right = _rank3_factors(c, scale, phi.ravel(), psi.ravel())
        d = left @ right
        return np.reciprocal(d, out=d).reshape(shape)

    return integrand


def _chunked_kernel(c, scale):
    """``_weighted_kernel(c, scale)`` with the ``block_rows`` method by which
    ``tensor_cells`` contracts it without forming a block of its values.

    A block's ``_rank3_factors`` are formed once.  Each chunk of about
    ``_CHUNK`` values, a multiple of 4 rows of x-nodes, is one product of
    the factors, its reciprocal in place, and its contraction over the
    y-nodes into the block's row sums, all while the chunk is in cache.  On
    a symmetric lattice a chunk also skips the y-panels below its first
    x-panel, so the lattice forms about half of its values even in one
    block; the row sums it skips are zeros.

    Every chunk but the last has a multiple of 4 rows because the y-node
    contraction is a BLAS matrix-vector product, and the bits of its rows
    can depend on how many rows the call has.  With the OpenBLAS kernel of
    one machine, row counts that 4 divides gave the bits of one call over
    the block on every lattice tried, for orders that 4 divides, and chunks
    of 1 or 2 rows did not; another BLAS kernel may round the cells of the
    two paths differently by an ulp or so.
    """
    integrand = _weighted_kernel(c, scale)

    def block_rows(x, y, w, symmetric):
        order = w.size
        left, right = _rank3_factors(c, scale, x.ravel(), y.ravel())
        n, q = left.shape[0], y.shape[0]
        rows = np.zeros((n, q))
        chunk_rows = 4 * max(1, _CHUNK // max(4 * order * q, 1))
        buf = np.empty((chunk_rows + 1) * order * q)
        lo = 0
        while lo < n:
            # no one-row chunk in a larger block: numpy takes a one-row
            # product as a matrix-vector product, whose bits differ
            hi = lo + chunk_rows if n - lo > chunk_rows + 1 else n
            skip = lo // order if symmetric else 0
            width = (q - skip) * order
            chunk = buf[:(hi - lo) * width].reshape(hi - lo, width)
            np.matmul(left[lo:hi], right[:, skip * order:], out=chunk)
            np.reciprocal(chunk, out=chunk)
            rows[lo:hi, skip:] = (chunk.reshape(-1, order) @ w).reshape(
                hi - lo, q - skip)
            lo = hi
        return rows

    integrand.block_rows = block_rows
    return integrand


def _cdf_values(c, xknots, yknots, order=16):
    """CDF values at the knot lattice by phi-substituted panel quadrature.

    With s = 2 sin(phi) on [-pi/2, pi/2], sqrt(4 - s^2) = 2 cos(phi) >= 0,
    so the semicircle weight times the Jacobian ds = 2 cos(phi) dphi is
    exactly 4 cos^2(phi).  Written so, it is one smooth factor per axis,
    computed on that axis alone, and no square root of a rounded 4 - s^2
    is taken near the edges.  The cells are ``tensor_cells`` of
    ``_chunked_kernel``, the rank-3 form of the kernel contracted chunk by
    chunk, so no block of integrand values is formed.  The kernel is
    symmetric, so equal knots on the two axes integrate about one triangle
    of the lattice, even when it fits in one block.

    The density integrates to 1, so on a lattice that spans the square the
    cells must sum to 1: off by more than 1e-9 means the panels did not
    resolve the kernel (near |c| = 1 it peaks sharply on the diagonal), and
    ``UnresolvedQuadratureError`` is raised, not a wrong grid returned.
    A lattice that does not span the square is not checked.
    """
    pa = _phi_edges_from_knots(xknots)
    pb = _phi_edges_from_knots(yknots)
    scale = (1.0 - c * c) / (4.0 * math.pi ** 2)
    cells = tensor_cells(_chunked_kernel(c, scale), pa, pb, order=order,
                         symmetric=np.array_equal(pa, pb))
    half = math.pi / 2.0
    if (pa[0], pa[-1], pb[0], pb[-1]) == (-half, half, -half, half):
        mass = float(cells.sum())
        if not abs(mass - 1.0) <= 1e-9:
            raise UnresolvedQuadratureError(
                f"the quadrature does not resolve the kernel at c = {c!r}, "
                f"resolution {len(xknots)}: the cells hold mass {mass!r}, "
                "not 1")
    vals = np.zeros((len(xknots), len(yknots)))
    vals[1:, 1:] = cells.cumsum(axis=0).cumsum(axis=1)
    return np.clip(vals, 0.0, 1.0)


def cdf_grid(c, resolution=101):
    """Grid DF of the family on [-2, 2]^2 with semicircle marginals.

    Knots are placed at 2*sin(phi) for uniform phi, which concentrates them
    quadratically near the edges where the divisibility analysis looks; the
    cells are integrated with order-16 panels.  ``resolution`` knots per
    axis, at least 2 so that the lattice spans the square.  Raises
    ``UnresolvedQuadratureError`` when the cells miss the unit mass by more
    than 1e-9, as they do near |c| = 1 at a coarse resolution.
    """
    cv = _density_c(c)
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    phis = np.linspace(-math.pi / 2.0, math.pi / 2.0, resolution)
    knots = 2.0 * np.sin(phis)
    knots[0], knots[-1] = -2.0, 2.0
    m = semicircle_df()
    return GridBDF(m, m, knots, knots, _cdf_values(cv, knots, knots))


@dataclass(frozen=True)
class IdentityReport:
    c: float
    x: float
    value: float
    reference: float

    @property
    def error(self):
        return abs(self.value - self.reference)


def identity_check(c, x):
    """Quadrature of the semicircle-weighted kernel slice against its
    closed-form value 2 pi / (1 - c^2), adaptive to within 1e-9.  Needs
    |c| < 1 (else NoDensityError) and a finite x in [-2, 2] (else
    ValueError)."""
    cv = _density_c(c)
    x = _square_point("x", x)

    def integrand(psi):
        return _weight(psi) / kernel_denominator(cv, x, 2.0 * np.sin(psi))

    val = adaptive_panels(integrand, -math.pi / 2.0, math.pi / 2.0, tol=1e-9)
    return IdentityReport(cv, x, val, 2.0 * math.pi / (1.0 - cv * cv))


def comparison_integral(c, x, y):
    """Integral over [-2, x] x [-2, y] of
    sqrt(4-s^2) sqrt(4-t^2) [1/D_c(s, t) - 1/D_c(x, t)], by order-24 panels
    on 23 equal phi-intervals per axis.  Needs |c| < 1 (else
    NoDensityError) and finite x, y in [-2, 2] (else ValueError).

    Its sign decides the monotonicity of the product ratio in x: negative
    for c in (-1, 0) at every interior point, positive for c in (0, 1).
    The second term does not depend on s, so it is the product of two
    one-dimensional sums on the same nodes; only the first goes through
    the tensor rule, of ``_chunked_kernel`` on the full lattice (its axes
    end at x and y, so it is not taken as symmetric even where x = y).
    """
    cv = _density_c(c)
    x = _square_point("x", x)
    y = _square_point("y", y)
    if cv == 0.0:
        return 0.0  # D_0 = 1: the two terms are equal, not just to rounding
    ps = np.linspace(-math.pi / 2.0, math.asin(x / 2.0), 24)
    pt = np.linspace(-math.pi / 2.0, math.asin(y / 2.0), 24)
    first = tensor_cells(_chunked_kernel(cv, 1.0), ps, pt, order=24).sum()
    phi, wphi = panel_nodes(ps, 24)
    psi, wpsi = panel_nodes(pt, 24)
    weight_s = np.sum(wphi * _weight(phi))
    slice_t = np.sum(wpsi * _weight(psi)
                     / kernel_denominator(cv, x, 2.0 * np.sin(psi)))
    return float(first - weight_s * slice_t)


# ---------------------------------------------------------------------------
# divisibility verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianWitness:
    mechanism: str
    x_low: float
    x_high: float
    y: float
    low_value: float
    high_value: float

    @property
    def margin(self):
        return abs(self.high_value - self.low_value)


@dataclass(frozen=True)
class GaussianVerdict:
    c: float
    status: str  # "maxid" | "not-maxid" | "inconclusive"
    mechanism: str
    witness: GaussianWitness | None = None

    def __bool__(self):
        return self.status == "maxid"


def _steepest_step(mechanism, knots, surface, rising):
    """Witness of the largest rise (``rising``) or drop of ``surface`` between
    adjacent x-knots at fixed y, both axes on ``knots``."""
    rise = surface[1:, :] - surface[:-1, :]
    _, _, at = _worst([(mechanism, rise if rising else -rise)])
    if at is None:
        raise ValueError("the probe lattice holds no pair of knots to compare")
    i, j = at
    return GaussianWitness(mechanism, float(knots[i]), float(knots[i + 1]),
                           float(knots[j]),
                           float(surface[i, j]), float(surface[i + 1, j]))


def _ratio_decrease_witness(c, resolution):
    """For c < 0: adjacent x-pair on which F1*F2/F drops, at fixed y."""
    F = cdf_grid(c, resolution=resolution)
    knots = F.xknots[(F.xknots > -1.9) & (F.xknots < 1.9)]
    q = product_ratio(F, knots[:, None], knots[None, :])
    return _steepest_step("ratio-decreasing-in-x", knots, q, rising=False)


def _tail_increase_witness(c, order, depth, points):
    """For c in (0, 1): adjacent x-pair near the lower corner on which the
    tail functional rises, at fixed y, among ``points`` knots placed
    geometrically from ``depth`` to 1.2 above -2."""
    knots = np.concatenate(([-2.0], -2.0 + np.geomspace(depth, 1.2, points)))
    m = semicircle_df()
    F = GridBDF(m, m, knots, knots, _cdf_values(c, knots, knots, order=order))
    t = tail_functional(F, knots[1:, None], knots[None, 1:])
    return _steepest_step("tail-functional-increasing-in-x", knots[1:], t,
                          rising=True)


def maxid_verdict(c, resolution=61):
    """Bi-free max-infinite divisibility of the family member with
    correlation ``c``.

    c = 0 and c = 1 are divisible (independent product, comonotone line);
    c = -1 fails the support-rectangle requirement; for other c a numeric
    witness of the violated monotonicity is located and must clear 1e-8,
    else the verdict degrades to inconclusive.  For c < 0 it is also
    inconclusive, with no witness, when the probe grid's quadrature does
    not resolve the kernel (``UnresolvedQuadratureError``).
    """
    cv = _c_value(c)
    if not -1.0 <= cv <= 1.0:
        raise ValueError("correlation must lie in [-1, 1]")
    if cv == 0.0:
        return GaussianVerdict(cv, "maxid",
                               "independent semicircle marginals with "
                               "support bounded below")
    if cv == 1.0:
        return GaussianVerdict(cv, "maxid",
                               "support on a positively sloped line; "
                               "F = min(F1, F2)")
    if cv == -1.0:
        m = semicircle_df()
        lo = float(m.eval(-1.0) - m.eval(-1.5))
        return GaussianVerdict(
            cv, "not-maxid",
            "support on a negatively sloped line: {F>0} is not the "
            "marginal rectangle",
            GaussianWitness("support-rectangle", -1.0, 1.5, -1.0, lo, 0.0))
    if cv < 0.0:
        try:
            w = _ratio_decrease_witness(cv, resolution)
        except UnresolvedQuadratureError as exc:
            return GaussianVerdict(cv, "inconclusive",
                                   f"unresolved quadrature: {exc}")
        if w.low_value - w.high_value > 1e-8:
            return GaussianVerdict(cv, "not-maxid", w.mechanism, w)
        return GaussianVerdict(cv, "inconclusive",
                               "no ratio decrease above margin", w)
    # a coarse probe first, then a finer one deeper into the corner
    for order, depth, points in ((16, 1e-4, 33), (24, 1e-6, 49)):
        w = _tail_increase_witness(cv, order, depth, points)
        if w.high_value - w.low_value > 1e-8:
            return GaussianVerdict(cv, "not-maxid", w.mechanism, w)
    return GaussianVerdict(cv, "inconclusive",
                           "no tail-functional increase above margin near "
                           "the lower corner", w)
