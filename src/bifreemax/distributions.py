"""Distribution functions on the line and the plane, backed by grids or closed forms.

Conventions used throughout the package:

* Step grids are right-continuous: the value attached to a knot applies on
  ``[knot, next_knot)``.
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


def _scalarize(out, *inputs):
    if all(np.ndim(v) == 0 for v in inputs):
        return float(out)
    return out


def _require_finite(message, *arrays):
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValueError(message)


def _cell_volumes(v):
    """Volumes v[i+1, j+1] - v[i, j+1] - v[i+1, j] + v[i, j] of the cells
    between adjacent lattice points."""
    return v[1:, 1:] - v[:-1, 1:] - v[1:, :-1] + v[:-1, :-1]


# ---------------------------------------------------------------------------
# univariate distribution functions
# ---------------------------------------------------------------------------

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
        if np.isfinite(self.support_lower):
            out = np.where(xa < self.support_lower, 0.0, out)
        if np.isfinite(self.saturation):
            out = np.where(xa >= self.saturation, 1.0, out)
        return _scalarize(out, x)

    def __call__(self, x):
        return self.eval(x)

    def quantile_exceed(self, c, hi_hint=None):
        """inf{x : F(x) > c} for c in [0, 1), found by bisection.

        Exact for grid-backed DFs.  ``hi_hint`` supplies a finite search
        bracket when the saturation point is infinite.
        """
        if not 0.0 <= c < 1.0:
            raise ValueError(f"threshold must lie in [0, 1), got {c}")
        lo = self.support_lower
        if not np.isfinite(lo):
            lo = -1.0
            while self.eval(lo) > c:
                lo *= 2.0
                if lo < -1e12:
                    raise ValueError("no finite lower bracket for quantile search")
        hi = self.saturation
        if not np.isfinite(hi):
            hi = hi_hint if hi_hint is not None else max(abs(lo), 1.0)
            while self.eval(hi) <= c:
                hi = 2.0 * hi + 1.0
                if hi > 1e12:
                    raise ValueError("no finite upper bracket for quantile search")
        if self.eval(lo) > c:
            return lo
        # snap to a declared support edge when F is positive right above it
        if np.isfinite(lo):
            eps = 1e-12 * max(1.0, abs(lo))
            if self.eval(lo + eps) > c:
                return lo
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.eval(mid) > c:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-13 * max(1.0, abs(hi)):
                break
        return hi


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
        _require_finite("knots and values must be finite", knots, values)
        if np.any(np.diff(knots) <= 0):
            raise ValueError("knots must be strictly increasing")
        if np.any(values < -1e-12) or np.any(values > 1.0 + 1e-12):
            raise ValueError("values must lie in [0, 1]")
        if np.any(np.diff(values) < -1e-12):
            raise ValueError("values must be nondecreasing along knots")
        self.knots = knots
        self.values = np.clip(values, 0.0, 1.0)
        if support_lower is None:
            pos = np.nonzero(self.values > 0.0)[0]
            support_lower = knots[pos[0]] if pos.size else np.inf
        if saturation is None:
            sat = np.nonzero(self.values >= 1.0)[0]
            saturation = knots[sat[0]] if sat.size else np.inf
        super().__init__(support_lower, saturation)

    def _eval(self, x):
        idx = np.searchsorted(self.knots, x, side="right") - 1
        out = self.values[np.clip(idx, 0, self.knots.size - 1)]
        return np.where(idx < 0, 0.0, out)

    def quantile_exceed(self, c, hi_hint=None):
        if not 0.0 <= c < 1.0:
            raise ValueError(f"threshold must lie in [0, 1), got {c}")
        pos = np.nonzero(self.values > c)[0]
        if pos.size:
            return float(self.knots[pos[0]])
        return self.saturation


class FuncUDF(UnivariateDF):
    """DF given by a closed-form vectorized callable, clipped to [0, 1]."""

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


class _ProductUDF(UnivariateDF):
    """Pointwise product of two DFs (classical multiplication semigroup)."""

    kind = "product"

    def __init__(self, f, g):
        self.f, self.g = f, g
        super().__init__(max(f.support_lower, g.support_lower),
                         max(f.saturation, g.saturation))

    def _eval(self, x):
        return self.f.eval(x) * self.g.eval(x)


def product_df(f, g):
    """Pointwise product F*G of two univariate DFs."""
    return _ProductUDF(f, g)


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

    ``_q(x1, x2)`` gives the product-to-joint ratio Q = F1*F2/F on
    broadcast float arrays: F1*F2/F on {F > 0} and +inf on {F = 0}, unless
    a subclass has a closed form that extends Q past {F > 0} (a copula
    denominator, an exponent-measure tail).  The derived laws of
    :mod:`bifreemax.convolution` are built from it, since Q - 1 is additive
    under bi-free max-convolution.
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
        a1, a2 = np.broadcast_arrays(_as_float_array(x1), _as_float_array(x2))
        return _scalarize(self._eval(a1, a2), x1, x2)

    def __call__(self, x1, x2):
        return self.eval(x1, x2)

    def _q(self, x1, x2):
        f = np.asarray(self._eval(x1, x2))
        num = np.asarray(self.marginal1.eval(x1)) \
            * np.asarray(self.marginal2.eval(x2))
        pos = f > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(pos, num / np.where(pos, f, 1.0), np.inf)

    def q_eval(self, x1, x2):
        """The product-to-joint ratio F1*F2/F; raises SupportError where it
        is +inf, i.e. where F = 0 and no closed form extends it."""
        a1, a2 = np.broadcast_arrays(_as_float_array(x1), _as_float_array(x2))
        q = np.asarray(self._q(a1, a2))
        if np.any(np.isposinf(q)):
            raise SupportError("ratio requested at a point where F = 0")
        return _scalarize(q, x1, x2)


class GridBDF(BivariateDF):
    """Step-grid bivariate DF on a rectilinear knot lattice."""

    kind = "grid"

    def __init__(self, marginal1, marginal2, xknots, yknots, values,
                 rect_support=False):
        super().__init__(marginal1, marginal2)
        self.xknots = np.atleast_1d(_as_float_array(xknots))
        self.yknots = np.atleast_1d(_as_float_array(yknots))
        self.values = _as_float_array(values)
        if self.values.shape != (self.xknots.size, self.yknots.size):
            raise ValueError("values must have shape (len(xknots), len(yknots))")
        _require_finite("knots and values must be finite",
                        self.xknots, self.yknots, self.values)
        if np.any(np.diff(self.xknots) <= 0) or np.any(np.diff(self.yknots) <= 0):
            raise ValueError("knots must be strictly increasing")
        if np.any(self.values < -1e-12) or np.any(self.values > 1 + 1e-12):
            raise ValueError("values must lie in [0, 1]")
        self.values = np.clip(self.values, 0.0, 1.0)
        self.rect_support = bool(rect_support)

    def _eval(self, x1, x2):
        i = np.searchsorted(self.xknots, x1, side="right") - 1
        j = np.searchsorted(self.yknots, x2, side="right") - 1
        vals = self.values[np.clip(i, 0, self.xknots.size - 1),
                           np.clip(j, 0, self.yknots.size - 1)]
        vals = np.where((i < 0) | (j < 0), 0.0, vals)
        # queries beyond the grid clamp to the last row/column, except past
        # a marginal saturation point, where the surface equals the other
        # marginal exactly
        o1 = (x1 > self.xknots[-1]) & (x1 >= self.marginal1.saturation)
        o2 = (x2 > self.yknots[-1]) & (x2 >= self.marginal2.saturation)
        if np.any(o1):
            vals = np.where(o1, self.marginal2.eval(x2), vals)
        if np.any(o2):
            vals = np.where(o2, self.marginal1.eval(x1), vals)
        if np.any(o1 & o2):
            vals = np.where(o1 & o2, 1.0, vals)
        return vals

    def cell_volumes(self):
        return _cell_volumes(self.values)

    def validate(self, tol=1e-9, marginal_tol=None):
        """Check DF axioms on the grid; raises ValueError on violation.

        Verifies per-axis monotonicity, quasi-monotonicity of the lattice,
        agreement of the last row/column with the marginals, and, when
        ``rect_support`` is set, that {F>0} is the product of the marginal
        positivity sets.
        """
        if marginal_tol is None:
            marginal_tol = tol
        if np.any(np.diff(self.values, axis=0) < -tol):
            raise ValueError("values decrease along the x axis")
        if np.any(np.diff(self.values, axis=1) < -tol):
            raise ValueError("values decrease along the y axis")
        drop, _, ij = _worst([("volume", -self.cell_volumes())])
        if not drop <= tol:
            raise ValueError(f"negative cell volume {-drop:.3e} at cell {ij}")
        m1 = self.marginal1.eval(self.xknots)
        m2 = self.marginal2.eval(self.yknots)
        if np.isfinite(self.marginal2.saturation) and \
                self.yknots[-1] >= self.marginal2.saturation:
            err = np.max(np.abs(self.values[:, -1] - m1))
            if err > marginal_tol:
                raise ValueError(f"last column deviates from marginal1 by {err:.3e}")
        if np.isfinite(self.marginal1.saturation) and \
                self.xknots[-1] >= self.marginal1.saturation:
            err = np.max(np.abs(self.values[-1, :] - m2))
            if err > marginal_tol:
                raise ValueError(f"last row deviates from marginal2 by {err:.3e}")
        if self.rect_support:
            pos = self.values > 0.0
            rect = (m1[:, None] > 0.0) & (m2[None, :] > 0.0)
            if np.any(pos != rect):
                ij = np.argwhere(pos != rect)[0]
                raise ValueError(
                    f"support is not the marginal rectangle at knot index {tuple(ij)}")
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

    def tail(self, x1, x2):
        """Mass of the open upper quadrant (x, inf), exact."""
        a1 = _as_float_array(x1)[..., None]
        a2 = _as_float_array(x2)[..., None]
        inside = (self.points[:, 0] > a1) & (self.points[:, 1] > a2)
        out = (inside * self.masses).sum(axis=-1)
        return _scalarize(out, x1, x2)

    def marginal_tail(self, axis, x):
        a = _as_float_array(x)[..., None]
        out = ((self.points[:, axis] > a) * self.masses).sum(axis=-1)
        return _scalarize(out, x)

    def scaled(self, t):
        if t < 0:
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


def _probe_grid(F, grid, resolution=None):
    """The probe lattice of a grid decision: ``grid``, else the knots of a
    grid DF, else ``resolution`` knots per axis placed where the mass sits."""
    if grid is not None:
        return _as_float_array(grid[0]), _as_float_array(grid[1])
    if isinstance(F, GridBDF):
        return F.xknots, F.yknots
    if resolution is None:
        raise ValueError("a probe grid (xknots, yknots) is required for non-grid DFs")
    # dense up to the 0.9 quantile, then a sparse tail out to saturation or
    # past the 0.999 quantile
    knots = []
    for m in (F.marginal1, F.marginal2):
        lo = m.quantile_exceed(0.0)
        mid = m.quantile_exceed(0.9)
        hi = m.saturation
        if not np.isfinite(hi):
            hi = m.quantile_exceed(0.999)
            hi += 0.5 * max(1.0, abs(hi - lo))
        if mid <= lo:
            mid = lo + 0.5 * max(hi - lo, 1.0)
        if hi <= mid:
            hi = mid + max(1.0, mid - lo)
        head = np.linspace(lo, mid, resolution - resolution // 4)
        tail = np.linspace(mid, hi, resolution // 4 + 1)[1:]
        knots.append(np.concatenate([head, tail]))
    return knots[0], knots[1]


def _worst(blocks):
    """``(value, tag, index)`` of the largest entry across ``(tag, array)``
    blocks, or ``(-inf, None, None)`` when all are empty.  A NaN is the
    largest entry, so what a check could not compute never passes it; ties
    go to the first maximum."""
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
    return worst


def is_quasi_monotone(F, tol=0.0, grid=None):
    """Check all adjacent-cell volumes on a grid are >= -tol.

    Returns a :class:`QuasiMonotoneResult`; on failure ``worst_cell`` holds
    the lower-left corner of the most negative cell.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
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


def materialize(F, xknots, yknots, rect_support=False):
    """Sample an arbitrary bivariate DF onto a step grid."""
    xs = _as_float_array(xknots)
    ys = _as_float_array(yknots)
    values = F.eval(xs[:, None], ys[None, :])
    return GridBDF(F.marginal1, F.marginal2, xs, ys, values,
                   rect_support=rect_support)


def bdf_from_law(measure: DiscreteMeasure) -> GridBDF:
    """Step DF of a purely atomic planar probability law."""
    if abs(measure.total_mass - 1.0) > 1e-9:
        raise ValueError("law must have total mass 1")
    xs = np.unique(measure.points[:, 0])
    ys = np.unique(measure.points[:, 1])
    px = measure.points[:, 0][:, None, None]
    py = measure.points[:, 1][:, None, None]
    below = (px <= xs[None, :, None]) & (py <= ys[None, None, :])
    vals = (below * measure.masses[:, None, None]).sum(axis=0)
    m1 = GridUDF(xs, ((measure.points[:, 0][:, None] <= xs[None, :])
                      * measure.masses[:, None]).sum(axis=0))
    m2 = GridUDF(ys, ((measure.points[:, 1][:, None] <= ys[None, :])
                      * measure.masses[:, None]).sum(axis=0))
    return GridBDF(m1, m2, xs, ys, vals)


def law_from_bdf(F: GridBDF) -> DiscreteMeasure:
    """Atomic law with the same step DF: one atom per knot, mass = the
    half-open cell volume ending at that knot."""
    padded = np.zeros((F.xknots.size + 1, F.yknots.size + 1))
    padded[1:, 1:] = F.values
    masses = np.diff(np.diff(padded, axis=0), axis=1)
    xs, ys = np.meshgrid(F.xknots, F.yknots, indexing="ij")
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    keep = masses.ravel() > 0
    return DiscreteMeasure(pts[keep], masses.ravel()[keep])
