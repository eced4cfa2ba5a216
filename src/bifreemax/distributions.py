"""Distribution functions on the line and the plane, backed by grids or closed forms.

Conventions used throughout the package:

* Step grids are right-continuous: the value attached to a knot applies on
  ``[knot, next_knot)``; a NaN query on a step grid gives NaN.
* Every univariate distribution function (DF) carries a ``support_lower``
  bound ``L`` (``eval(x) = 0`` for ``x < L``; ``L = -inf`` is legal) and a
  ``saturation`` point beyond which ``eval`` returns exactly 1, so tails can
  be computed without extrapolation error (``saturation = +inf`` means the
  grid or formula is used everywhere).
* Bivariate DFs expose their marginals; evaluation clamps to the grid under
  the step convention, returns 0 below the support rectangle, and falls back
  to the opposite marginal beyond a saturation point.

All objects are immutable after construction and all operations are pure, so
values can be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SupportError",
    "UnivariateDF",
    "GridUDF",
    "FuncUDF",
    "BivariateDF",
    "GridBDF",
    "CoupledBDF",
    "DiscreteMeasure",
    "dirac_df",
    "uniform_df",
    "exponential_free_df",
    "pareto_free_df",
    "beta_free_df",
    "semicircle_df",
    "product_df",
    "ones_df",
    "bdf_from_law",
    "law_from_bdf",
    "eval_bdf",
    "volume",
    "tail_bdf",
    "is_quasi_monotone",
    "sup_distance",
    "sup_distance_1d",
    "grid_probe",
    "materialize",
]


class SupportError(ValueError):
    """Raised when an operation is requested outside the domain {F > 0}."""


def _as_float_array(x):
    return np.asarray(x, dtype=np.float64)


def _pointwise(compute, *queries, unit=None):
    """The query contract of the bivariate, copula, Pickands and measure
    evaluators: ``compute`` runs on the queries as float arrays that must
    broadcast together (ValueError otherwise) but are not broadcast, so an
    outer-product query stays on its axes, ``(nx, 1)`` and ``(1, ny)``, and
    may return any array that broadcasts to the full shape.  The result is a
    float when every query is a scalar, else a writable array of the full
    shape.  With a message ``unit``, every query must lie in [0, 1] within
    1e-12 (ValueError(unit) otherwise) and is clipped to it.
    """
    arrays = [np.asarray(q, dtype=np.float64) for q in queries]
    # np.broadcast checks as np.broadcast_shapes does, in a third the time
    shape = np.broadcast(*arrays).shape
    if unit is not None:
        for i, a in enumerate(arrays):
            if np.any(a < -1e-12) or np.any(a > 1 + 1e-12):
                raise ValueError(unit)
            arrays[i] = np.clip(a, 0.0, 1.0)
    out = compute(*arrays)
    if not shape:
        return float(out)
    out = np.asarray(out)
    if out.shape != shape or not out.flags.writeable:
        out = np.array(np.broadcast_to(out, shape))
    return out


def _require_finite(message, *arrays):
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValueError(message)


def _require_tol(tol):
    """Refuse a check tolerance that is negative or NaN (``nan < 0`` is
    False, so only ``not tol >= 0`` catches both)."""
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")


def _ratio(num, den, live, fill, out=None):
    """num / den where ``live``, ``fill`` elsewhere, as one division over
    every entry written to ``out`` (a fresh array when None) and one copy of
    ``fill`` over the entries masked out, which raise no floating-point
    warning.  The result is an array, 0-d for scalar operands."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(np.divide(num, den, out=out))
    np.copyto(out, fill, where=np.logical_not(live))
    return out


def _nan_queries(vals, *queries):
    """``vals`` with NaN wherever a query is NaN, each NaN found on its own
    query axis, so an outer-product query costs no full-lattice pass."""
    for x in queries:
        # the least entry of an array with a NaN is NaN
        if math.isnan(x.min(initial=0.0)):
            np.copyto(vals, np.nan, where=np.isnan(x))
    return vals


def _cell_volumes(v):
    """Volumes v[i+1, j+1] - v[i, j+1] - v[i+1, j] + v[i, j] of the cells
    between adjacent lattice points."""
    return v[1:, 1:] - v[:-1, 1:] - v[1:, :-1] + v[:-1, :-1]


def _lattice_sums(cells, shape, masses):
    """Cumulative sums of atom masses over a lattice of cells: entry ``b``
    holds the mass of the atoms whose cell is at most ``b`` on every axis.

    ``cells`` gives each atom's cell index per axis.  The masses are binned
    with one ``bincount`` and summed in place, in O(k + prod(shape)) memory
    for k atoms: the lattice and the atoms' flat indices.
    """
    # bincount returns integers when there are no atoms
    sums = np.bincount(np.ravel_multi_index(cells, shape), weights=masses,
                       minlength=math.prod(shape))
    sums = sums.astype(np.float64, copy=False).reshape(shape)
    for axis in range(sums.ndim):
        np.cumsum(sums, axis, out=sums)
    return sums


# values a blocked kernel forms at a time (256 KB of float64), so that each
# block is still in cache when its next operation reads it; 2^16 was as fast
# on Gaussian integrand blocks 1504 to 2560 nodes wide and 20% slower on
# 960-wide ones, and 2^12 to 2^14, 2^16 and one block were slower for the
# grid convolution of 200 to 600 knots an axis
_CHUNK = 1 << 15


def _gather(table, i, j):
    """``table[i, j]`` for index arrays that broadcast together.

    An outer product, ``i`` of shape (n, 1) and ``j`` of shape (1, m), is
    read with two axis takes, in a third of the fancy index's time on a
    600x600 lattice: columns first where that intermediate is the smaller,
    else rows first, in blocks of about ``_CHUNK`` values gathered straight
    into the result, so that the only lattice-sized array is the result.
    Any other query takes the fancy index.
    """
    if not (i.ndim == j.ndim == 2 and i.shape[1] == j.shape[0] == 1):
        return table[i, j]
    i, j = i[:, 0], j[0]
    rows, cols = table.shape
    if i.size * cols > rows * j.size:
        return table.take(j, axis=1).take(i, axis=0)
    step = max(1, _CHUNK // cols)
    if i.size <= step:
        return table.take(i, axis=0).take(j, axis=1)
    out = np.empty((i.size, j.size), table.dtype)
    for lo in range(0, i.size, step):
        # the indices lie in range: "clip" writes to out without a buffer
        block = table.take(i[lo:lo + step], axis=0)
        block.take(j, axis=1, out=out[lo:lo + step], mode="clip")
    return out


# ---------------------------------------------------------------------------
# univariate distribution functions
# ---------------------------------------------------------------------------

# levels of the bisection tree that one ``eval`` call of
# ``UnivariateDF.quantile_exceed`` covers: 2**8 - 1 = 255 midpoints
_LOOKAHEAD = 8
# the spans of a ladder's tree nodes, level by level from the root
_STRIDES = [2 ** k for k in range(_LOOKAHEAD, 0, -1)]
# a safety cap on the halvings of one level: the stopping rule ends a walk
# between finite floats within about 1070 halvings (from a span of 2**1025
# to a width of 1e-13, about 2**-43); only a walk whose midpoint overflowed
# to an infinity reaches the cap
_MAX_HALVINGS = 2200


def _levels(c):
    """The levels of a ``quantile_exceed`` call as a float array of at most
    one dimension; the first level outside [0, 1) raises a ValueError."""
    levels = np.asarray(c, dtype=np.float64)
    if levels.ndim > 1:
        raise ValueError("levels must be a scalar or a 1-D array")
    for level in levels.reshape(-1).tolist():
        if not 0.0 <= level < 1.0:
            raise ValueError(f"threshold must lie in [0, 1), got {level}")
    return levels


class UnivariateDF:
    """A one-dimensional distribution function.

    Subclasses implement ``_eval`` on float arrays; this base class applies
    the support / saturation contract and scalar conversion.
    """

    kind = "abstract"

    def __init__(self, support_lower=-np.inf, saturation=np.inf):
        self.support_lower = float(support_lower)
        self.saturation = float(saturation)

    def _eval(self, x):
        raise NotImplementedError

    def eval(self, x):
        xa = _as_float_array(x)
        out = self._eval(xa)
        if math.isfinite(self.support_lower):
            out = np.where(xa < self.support_lower, 0.0, out)
        if math.isfinite(self.saturation):
            out = np.where(xa >= self.saturation, 1.0, out)
        return float(out) if xa.ndim == 0 else out

    def __call__(self, x):
        return self.eval(x)

    def quantile_exceed(self, c):
        """inf{x : F(x) > c} for a level c in [0, 1), found by bisection; for
        a 1-D array of levels, in any order, the array of these quantiles.

        Exact for grid-backed DFs.  Every level walks one replay, and each
        entry of a vector call is the float of the scalar call:

        * An infinite lower bound is bracketed by doubling from -1, a call a
          step, once, for the smallest level; each level takes the first
          -2**j of that doubling with F <= c, where its own doubling stops.
        * An infinite saturation point is bracketed by the ladder
          h -> 2h + 1 from the lower bracket up to 1e12.  One ``eval`` call
          takes these ladders and both support-edge checks of every level.
        * Each round of the bisection makes one ``eval`` call over the
          midpoints of the next ``_LOOKAHEAD`` levels of the bisection tree
          of every level still walking, each ladder computed as the
          step-by-step bisection computes it.  Each level walks down its own
          tree with its ``> c`` test, support-edge snap and stopping rule.

        A level outside [0, 1), or without a bracket, raises the ValueError
        of the scalar call at that level.
        """
        levels = _levels(c)
        cs = levels.reshape(-1).tolist()
        if not cs:
            return np.empty(0)
        lo = self.support_lower
        if math.isfinite(lo):
            los = [lo] * len(cs)
        else:
            least = min(cs)
            lows = [(-1.0, self.eval(-1.0))]
            while lows[-1][1] > least:
                lo = 2.0 * lows[-1][0]
                if lo < -1e12:
                    raise ValueError("no finite lower bracket for quantile search")
                lows.append((lo, self.eval(lo)))
            los = [next(x for x, v in lows if not v > level) for level in cs]
        # the bracket points of each lower bracket: lo, lo + eps, then the
        # upper ladder
        brackets, pts = {}, []
        for lo in dict.fromkeys(los):
            his = [] if math.isfinite(self.saturation) else [max(abs(lo), 1.0)]
            while his and 2.0 * his[-1] + 1.0 <= 1e12:
                his.append(2.0 * his[-1] + 1.0)
            brackets[lo] = (len(pts), his)
            pts += [lo, lo + 1e-12 * max(1.0, abs(lo)), *his]
        values = np.asarray(self.eval(np.array(pts))).tolist()
        out, walks = [], []
        for i, (level, lo) in enumerate(zip(cs, los)):
            start, his = brackets[lo]
            above = [v > level for v in values[start:start + 2 + len(his)]]
            hi = self.saturation
            if his:
                if not any(above[2:]):
                    raise ValueError("no finite upper bracket for quantile search")
                hi = his[above.index(True, 2) - 2]
            # snap to a support edge when F is positive at or right above it
            out.append(lo)
            if not (above[0] or above[1]):
                walks.append((i, level, lo, hi, 0))
        while walks:
            # the bisection trees as sorted ladders, one column per level:
            # stride by stride, node [pts[i], pts[i + s]] gets its midpoint
            # 0.5 * (a + b) at pts[i + s // 2], the float the step-by-step
            # bisection computes for it; a node the walk never visits may
            # span more than the largest float and its midpoint overflow
            pts = np.empty((2 ** _LOOKAHEAD + 1, len(walks)))
            pts[0] = [lo for _, _, lo, _, _ in walks]
            pts[-1] = [hi for _, _, _, hi, _ in walks]
            with np.errstate(over="ignore"):
                for s in _STRIDES:
                    pts[s // 2::s] = 0.5 * (pts[:-1:s] + pts[s::s])
            values = np.asarray(self.eval(pts[1:-1].ravel()))
            above = (values.reshape(pts.shape[0] - 2, -1)
                     > [level for _, level, _, _, _ in walks]).T.tolist()
            walking = []
            for (i, level, lo, hi, steps), up in zip(walks, above):
                # down the tree from [lo, hi] = [pts[0], pts[-1]], whose
                # midpoints the walk recomputes to the same floats
                a, b = 0, len(up) + 1
                while b - a > 1:
                    m = (a + b) // 2
                    if up[m - 1]:
                        hi, b = 0.5 * (lo + hi), m
                    else:
                        lo, a = 0.5 * (lo + hi), m
                    steps += 1
                    if hi - lo <= 1e-13 * max(1.0, abs(hi)) or steps == _MAX_HALVINGS:
                        out[i] = hi
                        break
                else:
                    walking.append((i, level, lo, hi, steps))
            walks = walking
        return out[0] if levels.ndim == 0 else np.array(out)


class GridUDF(UnivariateDF):
    """Right-continuous step DF on a strictly increasing knot sequence."""

    kind = "grid"

    def __init__(self, knots, values, support_lower=None, saturation=None):
        knots = np.atleast_1d(_as_float_array(knots))
        values = np.atleast_1d(_as_float_array(values))
        if knots.ndim != 1 or knots.shape != values.shape:
            raise ValueError("knots and values must be 1-D arrays of equal length")
        if knots.size == 0:
            raise ValueError("grid DF needs at least one knot")
        # min and max pass a NaN on and keep an infinity, so four
        # reductions test finiteness, and two of them the value range
        lo, hi = values.min(), values.max()
        if not all(map(math.isfinite, (knots.min(), knots.max(), lo, hi))):
            raise ValueError("knots and values must be finite")
        if not (knots[1:] > knots[:-1]).all():
            raise ValueError("knots must be strictly increasing")
        if lo < -1e-12 or hi > 1.0 + 1e-12:
            raise ValueError("values must lie in [0, 1]")
        if (values[1:] - values[:-1]).min(initial=0.0) < -1e-12:
            raise ValueError("values must be nondecreasing along knots")
        self.knots = knots
        # values[i] applies from knots[i]; the table puts a 0 before them,
        # for queries below the first knot
        self._table = np.zeros(knots.size + 1)
        self.values = np.clip(values, 0.0, 1.0, out=self._table[1:])
        # the first knot where the values turn positive, and reach 1
        if support_lower is None:
            i = np.argmax(self.values > 0.0)
            support_lower = knots[i] if self.values[i] > 0.0 else np.inf
        if saturation is None:
            i = np.argmax(self.values >= 1.0)
            saturation = knots[i] if self.values[i] >= 1.0 else np.inf
        super().__init__(support_lower, saturation)

    def _eval(self, x):
        # the count of knots at or below x is its entry of the table; a NaN
        # sorts past every knot and reads NaN
        out = self._table[np.searchsorted(self.knots, x, side="right")]
        return np.where(np.isnan(x), np.nan, out)

    def quantile_exceed(self, c):
        # the first knot whose value exceeds c is the first whose running
        # maximum does; values may dip by up to 1e-12
        levels = _levels(c)
        idx = np.maximum.accumulate(self.values).searchsorted(levels,
                                                              side="right")
        if levels.ndim == 0:
            return float(self.knots[idx]) if idx < self.knots.size \
                else self.saturation
        return np.append(self.knots, self.saturation)[idx]


class FuncUDF(UnivariateDF):
    """DF given by a closed-form vectorized callable, clipped to [0, 1].  The
    derived marginals (free max-convolutions, free powers, products) use the
    clip as the ``(.)_+`` of ``(F + G - 1)_+`` and ``(t*F - (t-1))_+``."""

    kind = "func"

    def __init__(self, fn, support_lower=-np.inf, saturation=np.inf,
                 kind="func", params=None):
        super().__init__(support_lower, saturation)
        self._fn = fn
        self.kind = kind
        self.params = dict(params or {})

    def _eval(self, x):
        return np.clip(self._fn(x), 0.0, 1.0)


def dirac_df(a):
    """DF of the point mass at ``a``."""
    return GridUDF([a], [1.0])


def uniform_df(a=0.0, b=1.0):
    if not b > a:
        raise ValueError("uniform needs b > a")
    return FuncUDF(lambda x: (x - a) / (b - a), support_lower=a, saturation=b,
                   kind="uniform", params={"a": a, "b": b})


def exponential_free_df(loc=0.0, scale=1.0):
    """Freely max-stable Gumbel analogue: (1 - exp(-(x-loc)/scale))_+."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    return FuncUDF(lambda x: 1.0 - np.exp(-(x - loc) / scale),
                   support_lower=loc, kind="exponential",
                   params={"loc": loc, "scale": scale})


def pareto_free_df(alpha, scale=1.0):
    """Freely max-stable Frechet analogue: (1 - (x/scale)^(-alpha))_+."""
    if alpha <= 0 or scale <= 0:
        raise ValueError("alpha and scale must be positive")

    def fn(x):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            v = 1.0 - np.power(np.maximum(x, 1e-300) / scale, -alpha)
        return np.where(x <= scale, 0.0, v)

    return FuncUDF(fn, support_lower=scale, kind="pareto",
                   params={"alpha": alpha, "scale": scale})


def beta_free_df(alpha, upper=0.0, scale=1.0):
    """Freely max-stable Weibull analogue: (1 - ((upper-x)/scale)^alpha)_+ on
    [upper - scale, upper]."""
    if alpha <= 0 or scale <= 0:
        raise ValueError("alpha and scale must be positive")

    def fn(x):
        return 1.0 - np.power(np.clip((upper - x) / scale, 0.0, 1.0), alpha)

    return FuncUDF(fn, support_lower=upper - scale, saturation=upper,
                   kind="beta", params={"alpha": alpha, "upper": upper,
                                        "scale": scale})


def semicircle_df():
    """DF of the standard semicircle law on [-2, 2]."""

    def fn(x):
        xc = np.clip(x, -2.0, 2.0)
        return xc * np.sqrt(4.0 - xc * xc) / (4.0 * np.pi) \
            + np.arcsin(xc / 2.0) / np.pi + 0.5

    return FuncUDF(fn, support_lower=-2.0, saturation=2.0, kind="semicircle")


def product_df(f, g):
    """Pointwise product F*G of two univariate DFs."""
    return FuncUDF(lambda x: f.eval(x) * g.eval(x),
                   max(f.support_lower, g.support_lower),
                   max(f.saturation, g.saturation), kind="product")


def ones_df():
    """The constant-1 function; acts as the identity for max-convolutions.

    Not a probability DF on the line (all mass escapes to -infinity); legal
    wherever an identity element is convenient.
    """
    return FuncUDF(lambda x: np.ones_like(x), support_lower=-np.inf,
                   saturation=-np.inf, kind="ones")


# ---------------------------------------------------------------------------
# bivariate distribution functions
# ---------------------------------------------------------------------------

class BivariateDF:
    """A two-dimensional distribution function with explicit marginals.

    ``eval`` and ``q_eval`` hand their queries to ``_eval(x1, x2)`` and
    ``_q(x1, x2)`` under the contract of :func:`_pointwise`, so marginals
    run on the axes of an outer-product query.

    ``_q`` gives the product-to-joint ratio Q = F1*F2/F: F1*F2/F on {F > 0}
    and +inf on {F = 0}, unless a subclass has a closed form that extends Q
    past {F > 0} (a copula denominator, an exponent-measure tail).  The
    derived laws of :mod:`bifreemax.convolution` are built from it, since
    Q - 1 is additive under bi-free max-convolution.

    Every ``_eval`` and ``_q`` returns a fresh array, or a float, that its
    caller owns: the derived laws add, scale and divide in place on the
    array their callee just returned, so an evaluator never hands back one
    of its queries, a cached array or a view of its own state.  The ``_q``
    of a law that derived laws are built from has the full query shape.
    """

    kind = "abstract"

    def __init__(self, marginal1, marginal2):
        self.marginal1 = marginal1
        self.marginal2 = marginal2

    @property
    def support_lower(self):
        return (self.marginal1.support_lower, self.marginal2.support_lower)

    def _eval(self, x1, x2):
        raise NotImplementedError

    def eval(self, x1, x2):
        return _pointwise(self._eval, x1, x2)

    def __call__(self, x1, x2):
        return self.eval(x1, x2)

    def _q(self, x1, x2):
        f = np.asarray(self._eval(x1, x2))
        num = np.asarray(self.marginal1.eval(x1) * self.marginal2.eval(x2))
        return _ratio(num, f, f > 0, np.inf, out=num)

    def q_eval(self, x1, x2):
        """The product-to-joint ratio F1*F2/F; raises SupportError where it
        is +inf, i.e. where F = 0 and no closed form extends it."""
        def finite_q(a1, a2):
            q = np.asarray(self._q(a1, a2))
            if np.any(np.isposinf(q)):
                raise SupportError("ratio requested at a point where F = 0")
            return q

        return _pointwise(finite_q, x1, x2)


class GridBDF(BivariateDF):
    """Step-grid bivariate DF on a rectilinear knot lattice.

    The values, clipped to [0, 1], sit inside a table with a border of
    zeros before the first row and column; ``values`` is a view of its
    interior, so the lattice is stored once.  A query reads the table at
    the counts of knots at or below it, which is 0 below the lattice and
    the last row or column beyond it; an outer-product query reads it with
    two axis gathers (:func:`_gather`).  Past a marginal's saturation point
    the surface equals the other marginal, and a NaN query gives NaN.
    """

    kind = "grid"

    def __init__(self, marginal1, marginal2, xknots, yknots, values):
        self._build(marginal1, marginal2, xknots, yknots,
                    _as_float_array(values), None)

    @classmethod
    def _adopt(cls, marginal1, marginal2, xknots, yknots, table):
        """The grid DF whose table is ``table``, a fresh zero-bordered float
        lattice the caller hands over: it passes the checks of the
        constructor and is clipped in place, with no copy."""
        self = cls.__new__(cls)
        self._build(marginal1, marginal2, xknots, yknots, table[1:, 1:], table)
        return self

    def _build(self, marginal1, marginal2, xknots, yknots, values, table):
        BivariateDF.__init__(self, marginal1, marginal2)
        self.xknots = np.atleast_1d(_as_float_array(xknots))
        self.yknots = np.atleast_1d(_as_float_array(yknots))
        if values.shape != (self.xknots.size, self.yknots.size):
            raise ValueError("values must have shape (len(xknots), len(yknots))")
        if self.xknots.ndim != 1 or self.yknots.ndim != 1:
            raise ValueError("knots must be 1-D arrays")
        if values.size == 0:
            raise ValueError("grid DF needs at least one knot")
        # a NaN or an infinite value shows in the least or the greatest one;
        # an adopted table is read whole, its zero border the 0 of initial
        whole = values if table is None else table
        lo, hi = whole.min(initial=0.0), whole.max(initial=0.0)
        _require_finite("knots and values must be finite",
                        self.xknots, self.yknots, lo, hi)
        if not all((k[1:] > k[:-1]).all() for k in (self.xknots, self.yknots)):
            raise ValueError("knots must be strictly increasing")
        if lo < -1e-12 or hi > 1 + 1e-12:
            raise ValueError("values must lie in [0, 1]")
        if table is None:
            table = np.zeros((self.xknots.size + 1, self.yknots.size + 1))
            np.clip(values, 0.0, 1.0, out=table[1:, 1:])
        else:
            np.clip(table, 0.0, 1.0, out=table)
        self._table = table
        self.values = table[1:, 1:]

    def _eval(self, x1, x2):
        vals = np.asarray(_gather(
            self._table, np.searchsorted(self.xknots, x1, side="right"),
            np.searchsorted(self.yknots, x2, side="right")))
        # beyond the lattice the last row or column holds, except past a
        # marginal saturation point, where the surface is the other
        # marginal exactly (1 past both, as UnivariateDF.eval is 1 there)
        o1 = (x1 > self.xknots[-1]) & (x1 >= self.marginal1.saturation)
        if np.any(o1):
            np.copyto(vals, self.marginal2.eval(x2), where=o1)
        o2 = (x2 > self.yknots[-1]) & (x2 >= self.marginal2.saturation)
        if np.any(o2):
            np.copyto(vals, self.marginal1.eval(x1), where=o2)
        # a NaN sorts past every knot
        return _nan_queries(vals, x1, x2)

    def validate(self, tol=1e-9):
        """Check DF axioms on the grid; raises ValueError on violation.

        Verifies per-axis monotonicity, quasi-monotonicity of the lattice,
        agreement of the last row/column with the marginals where the
        lattice reaches a marginal's saturation point, and the bound
        F <= min(F1, F2) at every knot.
        """
        if np.any(np.diff(self.values, axis=0) < -tol):
            raise ValueError("values decrease along the x axis")
        if np.any(np.diff(self.values, axis=1) < -tol):
            raise ValueError("values decrease along the y axis")
        drop, _, ij = _worst([("volume", -_cell_volumes(self.values))])
        if not drop <= tol:
            raise ValueError(f"negative cell volume {-drop:.3e} at cell {ij}")
        m1 = np.asarray(self.marginal1.eval(self.xknots))
        m2 = np.asarray(self.marginal2.eval(self.yknots))
        if np.isfinite(self.marginal2.saturation) and \
                self.yknots[-1] >= self.marginal2.saturation:
            err = np.max(np.abs(self.values[:, -1] - m1))
            if err > tol:
                raise ValueError(f"last column deviates from marginal1 by {err:.3e}")
        if np.isfinite(self.marginal1.saturation) and \
                self.xknots[-1] >= self.marginal1.saturation:
            err = np.max(np.abs(self.values[-1, :] - m2))
            if err > tol:
                raise ValueError(f"last row deviates from marginal2 by {err:.3e}")
        excess, _, ij = _worst([("bound", self.values - np.minimum.outer(m1, m2))])
        if not excess <= tol:
            raise ValueError(f"value exceeds min(F1, F2) by {excess:.3e} "
                             f"at knot {ij}")
        return self


class CoupledBDF(BivariateDF):
    """Bivariate DF C(F1(x1), F2(x2)) obtained by coupling two marginals
    through a copula."""

    kind = "coupled"

    def __init__(self, copula, marginal1, marginal2):
        super().__init__(marginal1, marginal2)
        self.copula = copula

    def _eval(self, x1, x2):
        return self.copula.eval(self.marginal1.eval(x1), self.marginal2.eval(x2))

    def _q(self, x1, x2):
        return self.copula.f_eval(self.marginal1.eval(x1),
                                  self.marginal2.eval(x2))


# ---------------------------------------------------------------------------
# discrete planar measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite positive planar measure given by weighted atoms."""

    points: np.ndarray
    masses: np.ndarray
    total_mass: float = field(init=False)

    def __post_init__(self):
        pts = np.atleast_2d(_as_float_array(self.points))
        if pts.size == 0:
            pts = pts.reshape(0, 2)
        ms = np.atleast_1d(_as_float_array(self.masses))
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] != ms.shape[0]:
            raise ValueError("points must be (n, 2) and masses (n,)")
        _require_finite("points and masses must be finite", pts, ms)
        if np.any(ms < 0):
            raise ValueError("masses must be nonnegative")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "masses", ms)
        object.__setattr__(self, "total_mass", float(ms.sum()))

    @classmethod
    def from_atoms(cls, atoms):
        """Build from an iterable of (x, y, mass) triples."""
        atoms = list(atoms)
        if not atoms:
            return cls(np.zeros((0, 2)), np.zeros(0))
        arr = _as_float_array(atoms)
        return cls(arr[:, :2], arr[:, 2])

    def _mass_above(self, axes, queries):
        """Mass of the atoms lying strictly above ``queries`` on each of
        ``axes``, with the shape of the broadcast queries (0 at a NaN).

        Each axis is cut at whichever set is smaller, the atoms' distinct
        coordinates or the queries' (a NaN query is a cut above every atom).
        With atoms placed on the left and queries on the right of the cuts,
        an atom lies above a query exactly when it has at least as many cuts
        below it.  Cells are numbered from the top down, so the sums run
        from the top end and a cell above every atom holds exactly 0.
        """
        coords = [self.points[:, a] for a in axes]
        cuts = []
        for x, q in zip(coords, queries):
            xc, qc = np.unique(x), np.unique(q)
            cuts.append(xc if xc.size <= qc.size else qc)
        sums = _lattice_sums(
            tuple(c.size - np.searchsorted(c, x, side="left")
                  for c, x in zip(cuts, coords)),
            tuple(c.size + 1 for c in cuts), self.masses)
        cells = [c.size - np.searchsorted(c, q, side="right")
                 for c, q in zip(cuts, queries)]
        return sums[cells[0]] if len(cells) == 1 else _gather(sums, *cells)

    def tail(self, x1, x2):
        """Mass of the open upper quadrant (x, inf), exact.

        Memory is O(k + q + min(k, q1) * min(k, q2)) for k atoms and q1, q2
        distinct query coordinates per axis (q query points in all): O(k +
        output) on a product probe grid, never more than O(k * q).
        """
        return _pointwise(lambda *q: self._mass_above((0, 1), q), x1, x2)

    def marginal_tail(self, axis, x):
        """Mass of the open half-plane beyond ``x`` on ``axis``, exact, in
        O(k + q) memory."""
        return _pointwise(lambda *q: self._mass_above((axis,), q), x)

    def scaled(self, t):
        if not t >= 0:
            raise ValueError("scale factor must be nonnegative")
        return DiscreteMeasure(self.points, t * self.masses)

    def normalized(self):
        if self.total_mass <= 0:
            raise ValueError("cannot normalize the zero measure")
        return DiscreteMeasure(self.points, self.masses / self.total_mass)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def eval_bdf(F, x):
    """Evaluate a bivariate DF at the point ``x = (x1, x2)``."""
    return F.eval(x[0], x[1])


def volume(F, lower, upper):
    """F-volume of the rectangle [lower, upper]."""
    l1, l2 = lower
    u1, u2 = upper
    if np.any(_as_float_array(l1) > _as_float_array(u1)) or \
            np.any(_as_float_array(l2) > _as_float_array(u2)):
        raise ValueError("rectangle corners must satisfy lower <= upper")
    return F.eval(u1, u2) - F.eval(l1, u2) - F.eval(u1, l2) + F.eval(l1, l2)


def tail_bdf(F, x):
    """Upper-quadrant mass 1 + F(x) - F1(x1) - F2(x2)."""
    x1, x2 = x
    return 1.0 + F.eval(x1, x2) - F.marginal1.eval(x1) - F.marginal2.eval(x2)


@dataclass(frozen=True)
class QuasiMonotoneResult:
    ok: bool
    worst_volume: float
    worst_cell: tuple | None

    def __bool__(self):
        return self.ok


# knots per axis of the default probe lattice of a non-grid DF
_PROBE_KNOTS = 81


def _span(m, *levels):
    """The default knot range of a marginal: from its lower bound to
    saturation, else past the 0.999 quantile by a quarter of the range (at
    least 0.25), and one unit for a point mass; then the marginal's
    quantiles at ``levels``.  One vector ``quantile_exceed`` call finds
    them all."""
    hi = m.saturation
    bounded = np.isfinite(hi)
    levels = [0.0, *levels] if bounded else [0.0, *levels, 0.999]
    lo, *qs = m.quantile_exceed(levels).tolist()
    if not bounded:
        top = qs.pop()
        hi = top + 0.25 * max(1.0, abs(top - lo))
    if hi <= lo:
        hi = lo + 1.0
    return (lo, hi, *qs)


def _probe_grid(F, grid):
    """The probe lattice of a grid decision: ``grid``, else the knots of a
    grid DF, else ``_PROBE_KNOTS`` knots per axis on each marginal's
    ``_span``: 61 from the lower bound to the 0.9 quantile, spaced
    quadratically to crowd the lower bound, then 20 evenly to the span's end.
    The span and the 0.9 quantile take one ``quantile_exceed`` call per
    axis."""
    if grid is not None:
        return _as_float_array(grid[0]), _as_float_array(grid[1])
    if isinstance(F, GridBDF):
        return F.xknots, F.yknots

    def knots(m):
        lo, hi, mid = _span(m, 0.9)
        if mid <= lo:
            mid = lo + 0.5 * max(hi - lo, 1.0)
        if hi <= mid:
            hi = mid + max(1.0, mid - lo)
        s = np.linspace(0.0, 1.0, _PROBE_KNOTS - _PROBE_KNOTS // 4)
        head = lo + (mid - lo) * s ** 2
        tail = np.linspace(mid, hi, _PROBE_KNOTS // 4 + 1)[1:]
        return np.concatenate([head, tail])

    return knots(F.marginal1), knots(F.marginal2)


def _worst(blocks):
    """``(value, tag, index)`` of the largest entry across ``(tag, array)``
    blocks, or ``(-inf, None, None)`` when all are empty.  A NaN is the
    largest entry, so what a check could not compute never passes it; ties
    go to the first maximum.

    ``blocks`` is any iterable, consumed in order: each block is reduced and
    let go before the next is asked for, so a generator that makes its
    blocks one at a time keeps one of them alive, and a NaN stops it early.
    """
    worst = (-np.inf, None, None)
    for tag, arr in blocks:
        arr = np.asarray(arr)
        if arr.size:
            # argmax points at the first NaN, if there is one
            at = tuple(map(int, np.unravel_index(np.argmax(arr), arr.shape)))
            value = float(arr[at])
            if np.isnan(value):
                return value, tag, at
            if value > worst[0]:
                worst = (value, tag, at)
        del arr
    return worst


def is_quasi_monotone(F, tol=0.0, grid=None):
    """Check all adjacent-cell volumes on a grid are >= -tol: ``grid``, else
    a grid DF's knots, else the default lattice of ``_probe_grid``.

    Returns a :class:`QuasiMonotoneResult`; on failure ``worst_cell`` holds
    the lower-left corner of the most negative cell.
    """
    _require_tol(tol)
    xs, ys = _probe_grid(F, grid)
    vols = _cell_volumes(F.eval(xs[:, None], ys[None, :]))
    drop, _, at = _worst([("volume", -vols)])
    if drop <= tol:
        return QuasiMonotoneResult(True, 0.0 if at is None else -drop, None)
    i, j = at
    return QuasiMonotoneResult(False, -drop, (float(xs[i]), float(ys[j])))


def grid_probe(xs, ys):
    """Product probe grid as a pair of broadcastable arrays."""
    xs = _as_float_array(xs)
    ys = _as_float_array(ys)
    return xs[:, None], ys[None, :]


def sup_distance(F, G, probe):
    """max |F - G| over probe points.

    ``probe`` is either a pair ``(xs, ys)`` of 1-D arrays (interpreted as a
    product grid) or an ``(n, 2)`` array of points.
    """
    if isinstance(probe, tuple):
        x1, x2 = grid_probe(*probe)
    else:
        pts = np.atleast_2d(_as_float_array(probe))
        x1, x2 = pts[:, 0], pts[:, 1]
    return float(np.max(np.abs(F.eval(x1, x2) - G.eval(x1, x2))))


def sup_distance_1d(F, G, xs):
    xs = _as_float_array(xs)
    return float(np.max(np.abs(F.eval(xs) - G.eval(xs))))


def materialize(F, xknots, yknots):
    """Sample an arbitrary bivariate DF onto a step grid."""
    xs = _as_float_array(xknots)
    ys = _as_float_array(yknots)
    values = F.eval(xs[:, None], ys[None, :])
    return GridBDF(F.marginal1, F.marginal2, xs, ys, values)


def bdf_from_law(measure: DiscreteMeasure) -> GridBDF:
    """Step DF of a purely atomic planar probability law, on the atoms'
    distinct coordinates, in O(k + nx * ny) memory for k atoms.  Each
    marginal saturates at its last coordinate, even where the summed masses
    round to just below 1."""
    if abs(measure.total_mass - 1.0) > 1e-9:
        raise ValueError("law must have total mass 1")
    px, py = measure.points[:, 0], measure.points[:, 1]
    xs, ys = np.unique(px), np.unique(py)
    # each atom's cell is its knot's index + 1, the count of knots at or
    # below it, so the sums are the zero-bordered table of the step DF
    table = _lattice_sums((np.searchsorted(xs, px, side="right"),
                           np.searchsorted(ys, py, side="right")),
                          (xs.size + 1, ys.size + 1), measure.masses)
    return GridBDF._adopt(GridUDF(xs, table[1:, -1], saturation=xs[-1]),
                          GridUDF(ys, table[-1, 1:], saturation=ys[-1]),
                          xs, ys, table)


def law_from_bdf(F: GridBDF) -> DiscreteMeasure:
    """Atomic law with the same step DF: one atom per knot, mass = the
    half-open cell volume ending at that knot."""
    masses = _cell_volumes(F._table)
    xs, ys = np.meshgrid(F.xknots, F.yknots, indexing="ij")
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    keep = masses.ravel() > 0
    return DiscreteMeasure(pts[keep], masses.ravel()[keep])
