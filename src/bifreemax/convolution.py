"""Free and bi-free max-convolutions, convolution powers, the linearizing
transforms, the max-infinite-divisibility decision, and exponent measures.

The univariate free max-convolution is ``(F + G - 1)_+``.  Its bivariate
extension is determined by the marginal rule ``H_j = (F_j + G_j - 1)_+``
together with the identity ``H1*H2/H = F1*F2/F + G1*G2/G - 1`` on the set
where all of F, G, H1, H2 are positive, and ``H = 0`` elsewhere.  The ratio
``Q = F1*F2/F`` therefore linearizes the operation: ``Q_H - 1`` is additive,
and real convolution powers scale it, ``Q_{F^(t)} - 1 = t*(Q_F - 1)``.

A DF is bi-freely max-infinitely divisible (max-i.d.) exactly when, on its
positive rectangle, ``-Q`` is quasi-monotone and the increments of ``Q`` are
sandwiched between 0 and the marginal increments.  Equivalently, its tail
functional ``T = Q - F1 - F2 + 1`` is generated by an exponent measure:
``F = F1*F2 / (1 - tau((x, inf)))`` for a finite positive measure ``tau``
reproducing the marginal tails.

Every derived law here (convolution, power, exponent measure, ``exp(-tT)``)
is one object: its marginals plus a ratio ``_q`` with ``Q = F1*F2/F`` on
``{F > 0}`` and ``+inf`` on ``{F = 0}`` (extended by a closed form where
one exists).  ``RatioBDF`` evaluates all of them as ``H1*H2/Q`` where
``H1*H2 > 0`` and ``Q`` is finite, and as 0 elsewhere; the ratios compose
without evaluating any joint DF, so a lazy chain costs time linear in its
depth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .copulas import IndependenceCopula
from .distributions import (
    BivariateDF,
    CoupledBDF,
    DiscreteMeasure,
    FuncUDF,
    GridBDF,
    GridUDF,
    SupportError,
    UnivariateDF,
    _CHUNK,
    _cell_volumes,
    _lattice_sums,
    _nan_queries,
    _probe_grid,
    _pointwise,
    _ratio,
    _require_tol,
    _worst,
    bdf_from_law,
    law_from_bdf,
    ones_df,
)

__all__ = [
    "free_maxconv",
    "free_power",
    "bifree_maxconv",
    "bifree_power",
    "product_ratio",
    "tail_functional",
    "is_bifree_maxid",
    "MaxIdVerdict",
    "from_exponent_measure",
    "MeasureBDF",
    "compound_poisson_limit",
    "CompoundPoissonReport",
    "classical_maxid_check",
    "maxid_from_tail_functional",
    "eventually_decreasing",
]


# ---------------------------------------------------------------------------
# univariate operations
# ---------------------------------------------------------------------------

def free_maxconv(F: UnivariateDF, G: UnivariateDF) -> UnivariateDF:
    """Free max-convolution (F + G - 1)_+.

    Grid inputs produce an exact step DF on the merged knot set; other
    inputs produce a lazily evaluated closed form.
    """
    # FuncUDF's clip to [0, 1] is the (.)_+
    H = FuncUDF(lambda x: F.eval(x) + G.eval(x) - 1.0,
                max(F.support_lower, G.support_lower),
                max(F.saturation, G.saturation), kind="free-maxconv")
    if isinstance(F, GridUDF) and isinstance(G, GridUDF):
        return _on_knots(H, np.union1d(F.knots, G.knots))
    return H


def _on_knots(H: FuncUDF, knots) -> GridUDF:
    """The step DF of the closed form ``H`` on ``knots``."""
    sat = H.saturation
    return GridUDF(knots, H.eval(knots),
                   saturation=sat if np.isfinite(sat) else None)


def _declared_lower(F: UnivariateDF, refusal):
    """inf{F > 0} where F declares a finite lower bound, else
    ValueError(refusal): as in is_bifree_maxid, probing cannot tell a lower
    endpoint from an underflowing tail."""
    lower = F.quantile_exceed(0.0) if np.isfinite(F.support_lower) else np.inf
    if not np.isfinite(lower):
        raise ValueError(refusal)
    return lower


def free_power(F: UnivariateDF, t) -> UnivariateDF:
    """t-fold free max-convolution power (t*F - (t-1))_+, 0 below a finite
    lower bound L; for t < 1 the canonical representative on [L, inf).  For
    t > 1 the power starts at L = inf{F > 1 - 1/t}, one ``quantile_exceed``
    call, and a grid input gives the step DF of that form on its knots."""
    t = float(t)
    if not t >= 0:
        raise ValueError("power must be nonnegative")
    if t == 0.0:
        return ones_df()
    if t == 1.0:
        return F
    if t > 1.0:
        lower = F.quantile_exceed(1.0 - 1.0 / t)
    else:
        lower = _declared_lower(
            F, "fractional powers need support bounded from below")
    return _free_power_above(F, t, lower)


def _free_power_above(F: UnivariateDF, t, lower) -> UnivariateDF:
    """free_power(F, t) for t > 0, t != 1, whose lower bound ``lower`` is
    found already."""
    # FuncUDF's clip to [0, 1] is the (.)_+
    H = FuncUDF(lambda x: t * F.eval(x) + (1.0 - t), lower, F.saturation,
                kind="free-power")
    if isinstance(F, GridUDF) and t > 1.0:
        return _on_knots(H, F.knots)
    return H


# ---------------------------------------------------------------------------
# bi-free max-convolution
# ---------------------------------------------------------------------------

class RatioBDF(BivariateDF):
    """A law given by its marginals and its ratio: H = H1*H2/Q where
    H1*H2 > 0 and Q is finite, NaN at a NaN query, and H = 0 elsewhere.
    Subclasses define ``_q``.

    Under the fresh-array contract of :class:`BivariateDF` each ``_q``
    works in place on the ratio its base returns (``q += g; q -= 1.0`` is
    ``q + g - 1.0`` to the bit), and ``_eval`` divides in place into the
    marginal product it builds.
    """

    def _q(self, x1, x2):
        raise NotImplementedError

    def _eval(self, x1, x2):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            q = self._q(x1, x2)
        # made after Q, so that it is not held while Q is computed
        h = np.asarray(self.marginal1.eval(x1) * self.marginal2.eval(x2))
        live = np.isfinite(q)
        live &= h > 0
        with np.errstate(over="ignore"):
            out = _ratio(h, q, live, 0.0, out=h)
        return _nan_queries(out, x1, x2)


class ConvolvedBDF(RatioBDF):
    """Lazy bi-free max-convolution of two bivariate DFs: Q_F + Q_G - 1."""

    kind = "bifree-maxconv"

    def __init__(self, F, G):
        self.F, self.G = F, G
        super().__init__(free_maxconv(F.marginal1, G.marginal1),
                         free_maxconv(F.marginal2, G.marginal2))

    def _q(self, x1, x2):
        q = self.F._q(x1, x2)
        q += self.G._q(x1, x2)
        q -= 1.0
        return q


def _grid_reads(P: GridBDF, xk, yk):
    """What the ratio of the step DF ``P`` needs on the lattice ``xk`` x
    ``yk``, found once per convolution: P's table, the counts of P's knots
    at or below each lattice coordinate, P's marginals on the lattice axes,
    and the first row and column past the lattice of P and a marginal's
    saturation point, from which on ``GridBDF._eval`` reads the other
    marginal."""
    return (P._table, np.searchsorted(P.xknots, xk, side="right"),
            np.searchsorted(P.yknots, yk, side="right"),
            P.marginal1.eval(xk), P.marginal2.eval(yk),
            max(xk.searchsorted(P.xknots[-1], side="right"),
                xk.searchsorted(P.marginal1.saturation)),
            max(yk.searchsorted(P.yknots[-1], side="right"),
                yk.searchsorted(P.marginal2.saturation)))


def _grid_q(reads, lo, hi):
    """The ratio Q = P1*P2/P of a step DF on the lattice rows ``lo:hi``, to
    the bit what ``P._q`` gives there: the surface is gathered with two
    axis takes, and its saturated rows, then columns, are overwritten."""
    table, ix, iy, m1, m2, i, j = reads
    f = table.take(ix[lo:hi], axis=0).take(iy, axis=1)
    if i < hi:
        f[max(i - lo, 0):] = m2
    if j < m2.size:
        f[:, j:] = m1[lo:hi, None]
    num = np.multiply(m1[lo:hi, None], m2)
    return _ratio(num, f, f > 0, np.inf, out=num)


def bifree_maxconv(F: BivariateDF, G: BivariateDF) -> BivariateDF:
    """Bi-free max-convolution of two bivariate DFs.

    For two grid-backed inputs the result is exact on the union of the knot
    sets (the defining identities are pointwise, so no resampling occurs):
    ``H1*H2/(Q_F + Q_G - 1)`` with the bits of ``ConvolvedBDF``, computed in
    blocks of about ``_CHUNK`` values, a run of whole lattice rows each.
    Each block is written into the result's zero-bordered table, which the
    ``GridBDF`` takes over: that table is the one lattice-sized array of the
    call, and every other buffer is the size of a block.  Otherwise a lazy
    closed form is returned.
    """
    if isinstance(F, GridBDF) and isinstance(G, GridBDF):
        xk = np.union1d(F.xknots, G.xknots)
        yk = np.union1d(F.yknots, G.yknots)
        # marginals may carry knots outside the surface lattices
        for m in (F.marginal1, G.marginal1):
            if isinstance(m, GridUDF):
                xk = np.union1d(xk, m.knots)
        for m in (F.marginal2, G.marginal2):
            if isinstance(m, GridUDF):
                yk = np.union1d(yk, m.knots)
        H1 = free_maxconv(F.marginal1, G.marginal1)
        H2 = free_maxconv(F.marginal2, G.marginal2)
        reads = [_grid_reads(P, xk, yk) for P in (F, G)]
        h1, h2 = H1.eval(xk)[:, None], H2.eval(yk)
        table = np.zeros((xk.size + 1, yk.size + 1))
        step = max(1, _CHUNK // yk.size)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for lo in range(0, xk.size, step):
                hi = lo + step
                # ConvolvedBDF._q and RatioBDF._eval, in their order
                q = _grid_q(reads[0], lo, hi)
                q += _grid_q(reads[1], lo, hi)
                q -= 1.0
                h = np.multiply(h1[lo:hi], h2, out=table[1 + lo:1 + hi, 1:])
                live = np.isfinite(q)
                live &= h > 0
                _ratio(h, q, live, 0.0, out=h)
        return GridBDF._adopt(H1, H2, xk, yk, table)
    return ConvolvedBDF(F, G)


class PowerBDF(RatioBDF):
    """Real convolution power via the scaling Q_{F^(t)} - 1 = t*(Q_F - 1).

    The marginals are the free powers of the base's marginals; when the base
    has one marginal object on both axes, so has the power, and its free
    power is built once.  For t < 1 the canonical representative is
    returned: marginals keep the support [L, inf) of the base and gain an
    atom of mass (1-t) at L.  Where the base ratio is +inf (the base
    vanishes and has no closed-form ratio) the power vanishes too.

    ``_lowers``, for t > 1 only, holds the marginal lower bounds
    inf{F_j > 1 - 1/t} where :func:`_power_ladder` has found them already.
    """

    kind = "bifree-power"

    def __init__(self, base, t, *, _lowers=None):
        t = float(t)
        self.base = base
        self.t = t
        axes = (base.marginal1,) if base.marginal2 is base.marginal1 else \
            (base.marginal1, base.marginal2)
        if _lowers is None:
            powers = [free_power(m, t) for m in axes]
        else:
            powers = [_free_power_above(m, t, lower)
                      for m, lower in zip(axes, _lowers)]
        super().__init__(powers[0], powers[-1])

    def _q(self, x1, x2):
        q = self.base._q(x1, x2)
        q -= 1.0
        q *= self.t
        q += 1.0
        return q


def bifree_power(F: BivariateDF, t) -> BivariateDF:
    """t-fold bi-free max-convolution power.

    ``t = 0`` yields the convolution identity (the constant-1 function);
    integer t equals the t-fold self-convolution for any DF; non-integer t
    produces the canonical semigroup representative and is meaningful for
    max-i.d. inputs.  Exponent-measure backed DFs are powered exactly by
    scaling their measure.
    """
    return next(_power_ladder(F, [t]))


def _power_ladder(F: BivariateDF, ts):
    """``bifree_power(F, t)`` for each t of ``ts``, the one constructor of
    bivariate powers; a negative or NaN t is refused before any is built.

    A power t > 1 starts at the marginal quantiles inf{F_j > 1 - 1/t}.  The
    ladder finds them for every t with one vector ``quantile_exceed`` call
    per marginal, one in all when both axes carry one marginal object; each
    is the float of the scalar call.  A power t < 1 keeps the base's lower
    corner."""
    ts = [float(t) for t in ts]
    if not all(t >= 0 for t in ts):
        raise ValueError("power must be nonnegative")
    levels = [1.0 - 1.0 / t for t in ts if t > 1.0]
    m1, m2 = F.marginal1, F.marginal2
    lows1 = m1.quantile_exceed(levels).tolist()
    lows2 = lows1 if m2 is m1 else m2.quantile_exceed(levels).tolist()
    corners = zip(lows1, lows2)
    for t in ts:
        corner = next(corners) if t > 1.0 else None
        if t == 0.0:
            yield CoupledBDF(IndependenceCopula(), ones_df(), ones_df())
        elif t == 1.0:
            yield F
        elif isinstance(F, MeasureBDF):
            yield MeasureBDF(F.tau.scaled(t), corner or F.lower)
        else:
            yield PowerBDF(F, t, _lowers=corner)


# ---------------------------------------------------------------------------
# linearizing transforms
# ---------------------------------------------------------------------------

def _ratio_parts(F: BivariateDF, x1, x2):
    """Q = F1*F2/F from the law's ratio, F1 and F2 at the queries; raises
    SupportError where F = 0, that is where F1*F2 = 0 or Q = +inf."""
    m1 = np.asarray(F.marginal1.eval(x1))
    m2 = np.asarray(F.marginal2.eval(x2))
    if np.any(m1 * m2 <= 0.0):
        raise SupportError("ratio transform requested where F = 0")
    return np.asarray(F.q_eval(x1, x2)), m1, m2


def product_ratio(F: BivariateDF, x1, x2):
    """Q(x) = F1(x1) * F2(x2) / F(x), read from the law's ratio (exact for a
    closed form); requires F > 0 at every request."""
    return _pointwise(lambda a, b: _ratio_parts(F, a, b)[0], x1, x2)


def tail_functional(F: BivariateDF, x1, x2):
    """T(x) = F1*F2/F - F1 - F2 + 1 on {F > 0}; nonnegative there.

    For max-i.d. DFs this equals lambda*(1 - H) for the normalized jump law
    H, and exp(-t*T) is a classical max-i.d. DF for every t > 0.
    """
    def tail(a, b):
        q, m1, m2 = _ratio_parts(F, a, b)
        return q - m1 - m2 + 1.0

    return _pointwise(tail, x1, x2)


# ---------------------------------------------------------------------------
# the divisibility decision
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaxIdWitness:
    check: str
    lower: tuple
    upper: tuple
    quantity: float


@dataclass(frozen=True)
class MaxIdVerdict:
    status: str  # "yes" | "no" | "inconclusive"
    reason: str
    witness: MaxIdWitness | None = None
    margin: float | None = 0.0

    def __bool__(self):
        return self.status == "yes"


def _ratio_blocks(q, m1, m2):
    """The blocks of ``is_bifree_maxid`` on the ratio lattice ``q`` and the
    marginal columns ``m1``, ``m2``, one at a time, as ``_worst`` streams
    them; tags: (check name, index step from the lower to the upper corner).
    On a one-row or one-column lattice the blocks across it are empty."""
    for axis, m, step in ((0, m1, (1, 0)), (1, m2, (0, 1))):
        name = "xy"[axis]
        d = np.diff(q, axis=axis)
        yield (f"ratio-increasing-{name}", step), -d
        d -= np.diff(m, axis=axis)
        yield (f"ratio-increment-bound-{name}", step), d
    yield ("ratio-volume", (1, 1)), _cell_volumes(q)


def is_bifree_maxid(F: BivariateDF, tol=1e-9, grid=None):
    """Decide bi-free max-infinite divisibility on ``grid``, else a grid
    DF's knots, else ``_probe_grid``'s lattice dense at the lower bounds.

    The decision reads Q = F1*F2/F once on the positive rectangle:

    * adjacent increments of Q must be nonnegative and bounded by the
      marginal increments (within ``tol``), and
    * every Q-cell volume must be <= ``tol`` (-Q quasi-monotone).

    Unbounded-below support is an immediate "no".  If {F > 0} fails to be
    the product of the marginal positivity sets on the grid, the structure
    is not grid-verifiable and the verdict is "inconclusive", as it is when
    a single positive probe point leaves nothing to compare, unless the
    probes are a step DF's own knots (a point mass, "yes" with no margin).
    Continuity from above is supplied by the step-grid convention.
    """
    _require_tol(tol)
    for m, name in ((F.marginal1, "x"), (F.marginal2, "y")):
        # trust the declared bound: probing cannot tell a true lower
        # endpoint from floating-point underflow of an unbounded tail
        if not np.isfinite(m.support_lower):
            return MaxIdVerdict("no",
                                f"marginal {name} has support unbounded below")
    xs, ys = _probe_grid(F, grid)

    m1 = np.asarray(F.marginal1.eval(xs))
    m2 = np.asarray(F.marginal2.eval(ys))
    p1, p2 = m1 > 0.0, m2 > 0.0
    if not (p1.any() and p2.any()):
        return MaxIdVerdict("inconclusive", "no positive probe points")
    vals = np.asarray(F.eval(xs[:, None], ys[None, :]))
    rect = p1[:, None] & p2[None, :]
    mismatch = (vals > 0.0) != rect
    if np.any(mismatch):
        i, j = np.argwhere(mismatch)[0]
        return MaxIdVerdict(
            "inconclusive",
            "{F>0} is not the marginal rectangle on the grid",
            MaxIdWitness("support-rectangle",
                         (float(xs[i]), float(ys[j])),
                         (float(xs[i]), float(ys[j])), float(vals[i, j])))
    # the blocks below need the ratio lattice alone
    del vals, rect, mismatch

    xs, ys, m1, m2 = xs[p1], ys[p2], m1[p1][:, None], m2[p2][None, :]
    q = np.asarray(F.q_eval(xs[:, None], ys[None, :]))

    worst, tag, at = _worst(_ratio_blocks(q, m1, m2))
    # one positive probe point leaves no pair to compare and no margin; only
    # on the knots of a step DF is it a point mass, which is max-i.d.
    if tag is None and not (grid is None and isinstance(F, GridBDF)):
        return MaxIdVerdict("inconclusive", "one positive probe point",
                            margin=None)
    margin = None if tag is None else float(tol - worst)
    if worst <= tol:
        return MaxIdVerdict("yes", "ratio checks pass", margin=margin)
    (name, (di, dj)), (i, j) = tag, at
    witness = MaxIdWitness(name, (float(xs[i]), float(ys[j])),
                           (float(xs[i + di]), float(ys[j + dj])), worst)
    return MaxIdVerdict("no", f"{name} violated by {worst:.3e}", witness,
                        margin=margin)


# ---------------------------------------------------------------------------
# exponent measures
# ---------------------------------------------------------------------------

def _marginal_from_tau(tau: DiscreteMeasure, axis, lower):
    coords = np.unique(tau.points[tau.masses > 0, axis])
    coords = coords[coords > lower]
    knots = np.concatenate(([lower], coords))
    values = 1.0 - np.asarray(tau.marginal_tail(axis, knots))
    if values[0] < -1e-12:
        raise ValueError(
            f"marginal tail exceeds 1 above the lower bound (axis {axis}): "
            f"{1.0 - values[0]!r}")
    sat = coords[-1] if coords.size else lower
    return GridUDF(knots, np.clip(values, 0.0, 1.0), saturation=sat)


class MeasureBDF(RatioBDF):
    """The DF F1*F2/(1 - tau((x, inf))) of an exponent measure above the
    corner ``lower``, 0 elsewhere, with marginal tails tau_j((x, inf)); a
    ValueError where one exceeds 1 above ``lower``.  Always bi-freely
    max-i.d., and powered exactly by scaling the measure."""

    kind = "exponent-measure"

    def __init__(self, tau: DiscreteMeasure, lower):
        self.tau = tau
        self.lower = (float(lower[0]), float(lower[1]))
        super().__init__(_marginal_from_tau(tau, 0, self.lower[0]),
                         _marginal_from_tau(tau, 1, self.lower[1]))

    def _q(self, x1, x2):
        tail = np.asarray(self.tau.tail(x1, x2))
        return np.subtract(1.0, tail, out=tail)

    def power(self, t):
        """The :func:`bifree_power` of a positive t: the measure t*tau above
        ``lower`` for t <= 1, and for t > 1 above L_j = inf{F_j > 1 - 1/t},
        which is at least ``lower_j``."""
        t = float(t)
        if not t > 0:
            raise ValueError("power must be positive")
        return bifree_power(self, t)


from_exponent_measure = MeasureBDF


# ---------------------------------------------------------------------------
# compound Poisson limit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompoundPoissonReport:
    ns: tuple
    distances: tuple
    final: float

    def eventually_decreasing(self):
        return eventually_decreasing(self.distances)


def eventually_decreasing(values):
    """True when the sequence is nonincreasing (within 1e-12) from some
    index onward, with at least the final half of the ladder covered."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        return True
    rising = np.nonzero(np.diff(v) > 1e-12)[0]
    if rising.size == 0:
        return True
    return bool(rising[-1] + 1 <= (v.size - 1) // 2)


def compound_poisson_limit(lam, nu, p, ns=None):
    """Convolution powers of (1 - lam/n)*delta_p + (lam/n)*nu against their
    exponent-measure limit.

    ``nu`` is a planar probability law given as a :class:`DiscreteMeasure`
    (or a grid DF, converted to its atomic law).  Returns the limit DF
    ``MeasureBDF(nu.scaled(lam), L)``, built once, with lower corner ``L_j =
    max(p_j, inf{F_nu_j > 1 - 1/lam})`` for lam > 1 and ``L = p`` otherwise
    (the law of ``MeasureBDF(nu, p).power(lam)``), and a report of
    sup-distances along the ``ns`` ladder, a strictly increasing sequence
    of integers n >= lam.

    Rung n, with s = lam/n, and the limit are step DFs on the knot lattice,
    per axis the atoms' coordinates and p, so their greatest gap sits on its
    knots.  Every rung is read off one set of quadrant sums of nu there,
    each a sum of atom masses, never taken as 1 - F: the tails a_j =
    nu(X_j > x_j), b = nu(X1 > x1, X2 > x2), c1 = nu(X1 <= x1, X2 > x2) and
    c2 = nu(X1 > x1, X2 <= x2).  On x >= p the rung's marginals and the
    limit's are ``H_j = (1 - lam*a_j)_+`` (the rule of :func:`free_power`),
    the limit is ``H1*H2/D`` with ``D = 1 - lam*b``, and the ratio of the
    rung, by the scaling of :class:`PowerBDF`, exceeds D by
    ``e/(1 - s*b_R)`` with ``e = lam*s*c1*c2`` and ``b_R = b + c1 + c2``.
    So the gap is, with no cancellation,

        H1*H2*e / (D*(D*(1 - s*b_R) + e)),

    a few ulps from exact at every n but for the one rounding of lam*a_j in
    a small H_j, and ``n*gap -> lam**2*H1*H2*c1*c2/D**2``.  Off x >= p the
    limit is 0, and so is rung n >= lam + 1.  The one rung with n < lam + 1
    may be positive there: its value is :func:`bifree_power` of the rung's
    own step DF, ``bdf_from_law`` of ``(1 - s)*delta_p + s*nu``, on the same
    knots.  No other rung builds a step DF or a power, and the limit is not
    evaluated.
    """
    if not lam > 0:
        raise ValueError("rate must be positive")
    if isinstance(nu, GridBDF):
        nu = law_from_bdf(nu)
    if abs(nu.total_mass - 1.0) > 1e-9:
        raise ValueError("jump law must have total mass 1")
    p = (float(p[0]), float(p[1]))
    if ns is None:
        ns = [2 ** k for k in range(1, 11)]
    if not all(float(n).is_integer() for n in ns):
        raise ValueError("every n must be an integer")
    ns = [int(n) for n in ns]
    if not ns:
        raise ValueError("ns must hold at least one n")
    if any(n < lam for n in ns):
        raise ValueError("every n must satisfy n >= lam")
    if any(a >= b for a, b in zip(ns, ns[1:])):
        raise ValueError("ns must be strictly increasing")

    knots = [np.unique(np.append(nu.points[:, a], v)) for a, v in enumerate(p)]
    # each atom's knot index per axis, and p's
    cell = [k.searchsorted(nu.points[:, a]) for a, k in enumerate(knots)]
    i1, i2 = (int(k.searchsorted(v)) for k, v in zip(knots, p))

    def mass(*quadrant):
        """nu of the quadrant at each knot, ``(axis, above)`` per axis: the
        atoms strictly above the knot on an axis marked above, else those
        at or below it.  An above axis numbers its cells from the top, as
        ``DiscreteMeasure._mass_above`` does, so its sums run from there and
        knot i reads the cell below it, which holds no atom of its own."""
        cells, shape, read = [], [], []
        for axis, above in quadrant:
            m = knots[axis].size
            cells.append(m - cell[axis] if above else cell[axis])
            shape.append(m + 1 if above else m)
            read.append(slice(m - 1, None, -1) if above else slice(None))
        return _lattice_sums(tuple(cells), tuple(shape), nu.masses)[tuple(read)]

    a1, a2 = mass((0, True)), mass((1, True))
    # inf{F_nu_j > 1 - 1/lam}, the float of MeasureBDF(nu, p).power(lam):
    # 1 - a_j is nondecreasing and reaches 1 at the last knot
    corner = p if lam <= 1.0 else tuple(
        max(v, float(k[np.searchsorted(1.0 - a, 1.0 - 1.0 / lam, "right")]))
        for v, k, a in zip(p, knots, (a1, a2)))
    limit = MeasureBDF(nu.scaled(lam), corner)

    # the closed form on the knots x >= p where H1*H2 > 0
    b = mass((0, True), (1, True))[i1:, i2:]
    c1 = mass((0, False), (1, True))[i1:, i2:]
    c2 = mass((0, True), (1, False))[i1:, i2:]
    h = np.multiply.outer(np.maximum(1.0 - lam * a1[i1:], 0.0),
                          np.maximum(1.0 - lam * a2[i2:], 0.0))
    d = 1.0 - lam * b
    # D >= H_j > 0 where the total mass is 1; in floats it may not be
    live = h > 0
    live &= d > 0
    d = d[live]
    target = h[live] / d
    b_r = b[live] + c1[live] + c2[live]
    c12 = c1[live] * c2[live]
    dists = []
    for n in ns:
        s = lam / n
        e = c12 * (lam * s)
        den = b_r * s
        np.subtract(1.0, den, out=den)
        den *= d
        den += e
        e *= target
        # den >= e > 0 where e > 0; at s = 1 a rounded b_R may make den 0
        np.divide(e, den, out=e, where=den > 0)
        dist = e.max(initial=0.0)
        if n < lam + 1 and (i1 or i2):
            rung = DiscreteMeasure(np.vstack([nu.points, p]),
                                   np.append(s * nu.masses, 1.0 - s))
            g = bifree_power(bdf_from_law(rung), n).eval(
                knots[0][:, None], knots[1][None, :])
            dist = max(dist, g[:i1].max(initial=0.0),
                       g[:, :i2].max(initial=0.0))
        dists.append(float(dist))
    report = CompoundPoissonReport(tuple(ns), tuple(dists), dists[-1])
    return limit, report


# ---------------------------------------------------------------------------
# classical bridge
# ---------------------------------------------------------------------------

def classical_maxid_check(F: BivariateDF, ns=(2, 3, 10), tol=1e-12, grid=None):
    """Verify the n-th roots F^(1/n) are quasi-monotone on a grid.

    Bi-freely max-i.d. DFs pass for every n (they are classically max-i.d.);
    a failing cell is returned as a witness.
    """
    ns = tuple(ns)
    if not ns or not all(n > 0 for n in ns):
        raise ValueError(f"ns must hold positive root orders, got {ns}")
    _require_tol(tol)
    xs, ys = _probe_grid(F, grid)
    vals = np.asarray(F.eval(xs[:, None], ys[None, :]))
    for n in ns:
        vol = _cell_volumes(np.power(vals, 1.0 / float(n)))
        drop, _, at = _worst([("root-volume", -vol)])
        if not drop <= tol:
            i, j = at
            return MaxIdVerdict(
                "no", f"root 1/{n} has a negative cell volume",
                MaxIdWitness("root-volume", (float(xs[i]), float(ys[j])),
                             (float(xs[i + 1]), float(ys[j + 1])), -drop))
    return MaxIdVerdict("yes", f"roots quasi-monotone for n in {ns}")


class ExpTailBDF(RatioBDF):
    """Classically max-i.d. DF exp(-t * T_F) on the support rectangle of a
    max-i.d. base DF with finite lower bounds, 0 elsewhere: its marginals
    are exp(-t*(1 - F_j)) and its ratio exp(t*(Q_F - 1)); t must be > 0."""

    kind = "exp-tail"

    def __init__(self, base, t):
        if not t > 0:
            raise ValueError("t must be positive")
        self.base = base
        self.t = float(t)

        def marginal(m):
            lower = _declared_lower(m, "base DF must have support bounded below")
            # positive at F_j = 0, so the finite lower bound cuts it to 0
            return FuncUDF(lambda x: np.exp(-self.t * (1.0 - m.eval(x))),
                           lower, m.saturation, kind="exp-tail")

        super().__init__(marginal(base.marginal1), marginal(base.marginal2))

    def _q(self, x1, x2):
        q = np.asarray(self.base._q(x1, x2))
        q -= 1.0
        q *= self.t
        return np.exp(q, out=q)


maxid_from_tail_functional = ExpTailBDF
