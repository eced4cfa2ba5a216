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
    GridBDF,
    GridUDF,
    SupportError,
    UnivariateDF,
    _cell_volumes,
    _probe_grid,
    _scalarize,
    _worst,
    bdf_from_law,
    law_from_bdf,
    ones_df,
    sup_distance,
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

class _FreeMaxConvUDF(UnivariateDF):
    kind = "free-maxconv"

    def __init__(self, f, g):
        self.f, self.g = f, g
        sats = (f.saturation, g.saturation)
        super().__init__(max(f.support_lower, g.support_lower), max(sats))

    def _eval(self, x):
        return np.maximum(self.f.eval(x) + self.g.eval(x) - 1.0, 0.0)


class _FreePowerUDF(UnivariateDF):
    """Marginal of a convolution power: (t*F - (t-1))_+ for t >= 1, and the
    canonical representative t*F + (1-t) on [L, inf) for t < 1."""

    kind = "free-power"

    def __init__(self, base, t):
        self.base = base
        self.t = float(t)
        if self.t > 1.0:
            lower = base.quantile_exceed(1.0 - 1.0 / self.t)
        else:
            lower = base.quantile_exceed(0.0)
            if not np.isfinite(lower):
                raise ValueError(
                    "fractional powers need support bounded from below")
        super().__init__(lower, base.saturation)

    def _eval(self, x):
        t = self.t
        v = t * self.base.eval(x) + (1.0 - t)
        if t >= 1.0:
            return np.maximum(v, 0.0)
        return np.where(x < self.support_lower, 0.0, v)


def free_maxconv(F: UnivariateDF, G: UnivariateDF) -> UnivariateDF:
    """Free max-convolution (F + G - 1)_+.

    Grid inputs produce an exact step DF on the merged knot set; other
    inputs produce a lazily evaluated closed form.
    """
    if isinstance(F, GridUDF) and isinstance(G, GridUDF):
        knots = np.union1d(F.knots, G.knots)
        vals = np.maximum(F.eval(knots) + G.eval(knots) - 1.0, 0.0)
        sat = max(F.saturation, G.saturation)
        return GridUDF(knots, vals,
                       saturation=sat if np.isfinite(sat) else None)
    return _FreeMaxConvUDF(F, G)


def free_power(F: UnivariateDF, t) -> UnivariateDF:
    """t-fold free max-convolution power of a univariate DF."""
    t = float(t)
    if t < 0:
        raise ValueError("power must be nonnegative")
    if t == 0.0:
        return ones_df()
    if t == 1.0:
        return F
    if isinstance(F, GridUDF) and t >= 1.0:
        vals = np.maximum(t * F.values - (t - 1.0), 0.0)
        sat = F.saturation
        return GridUDF(F.knots, np.clip(vals, 0.0, 1.0),
                       saturation=sat if np.isfinite(sat) else None)
    return _FreePowerUDF(F, t)


# ---------------------------------------------------------------------------
# bi-free max-convolution
# ---------------------------------------------------------------------------

class RatioBDF(BivariateDF):
    """A law given by its marginals and its ratio: H = H1*H2/Q where
    H1*H2 > 0 and Q is finite, and H = 0 elsewhere.  Subclasses define
    ``_q``."""

    def _q(self, x1, x2):
        raise NotImplementedError

    def _eval(self, x1, x2):
        h = np.asarray(self.marginal1.eval(x1)) \
            * np.asarray(self.marginal2.eval(x2))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            q = np.asarray(self._q(x1, x2))
            live = (h > 0) & np.isfinite(q)
            return np.where(live, h / np.where(live, q, 1.0), 0.0)


class ConvolvedBDF(RatioBDF):
    """Lazy bi-free max-convolution of two bivariate DFs: Q_F + Q_G - 1."""

    kind = "bifree-maxconv"

    def __init__(self, F, G):
        self.F, self.G = F, G
        super().__init__(free_maxconv(F.marginal1, G.marginal1),
                         free_maxconv(F.marginal2, G.marginal2))

    def _q(self, x1, x2):
        return self.F._q(x1, x2) + self.G._q(x1, x2) - 1.0


def bifree_maxconv(F: BivariateDF, G: BivariateDF) -> BivariateDF:
    """Bi-free max-convolution of two bivariate DFs.

    For two grid-backed inputs the result is materialized exactly on the
    union of the knot sets (the defining identities are pointwise, so no
    resampling occurs); otherwise a lazy closed form is returned.
    """
    if isinstance(F, GridBDF) and isinstance(G, GridBDF):
        lazy = ConvolvedBDF(F, G)
        xk = np.union1d(F.xknots, G.xknots)
        yk = np.union1d(F.yknots, G.yknots)
        # marginals may carry knots outside the surface lattices
        for m in (F.marginal1, G.marginal1):
            if isinstance(m, GridUDF):
                xk = np.union1d(xk, m.knots)
        for m in (F.marginal2, G.marginal2):
            if isinstance(m, GridUDF):
                yk = np.union1d(yk, m.knots)
        vals = lazy._eval(xk[:, None], yk[None, :])
        return GridBDF(lazy.marginal1, lazy.marginal2, xk, yk, vals)
    return ConvolvedBDF(F, G)


class PowerBDF(RatioBDF):
    """Real convolution power via the scaling Q_{F^(t)} - 1 = t*(Q_F - 1).

    For t < 1 the canonical representative is returned: marginals keep the
    support [L, inf) of the base and gain an atom of mass (1-t) at L.  Where
    the base ratio is +inf (the base vanishes and has no closed-form ratio)
    the power vanishes too.
    """

    kind = "bifree-power"

    def __init__(self, base, t):
        t = float(t)
        if t < 0:
            raise ValueError("power must be nonnegative")
        self.base = base
        self.t = t
        super().__init__(free_power(base.marginal1, t),
                         free_power(base.marginal2, t))

    def _q(self, x1, x2):
        return 1.0 + self.t * (self.base._q(x1, x2) - 1.0)


def bifree_power(F: BivariateDF, t) -> BivariateDF:
    """t-fold bi-free max-convolution power.

    ``t = 0`` yields the convolution identity (the constant-1 function);
    integer t equals the t-fold self-convolution for any DF; non-integer t
    produces the canonical semigroup representative and is meaningful for
    max-i.d. inputs.  Exponent-measure backed DFs are powered exactly by
    scaling their measure.
    """
    t = float(t)
    if t < 0:
        raise ValueError("power must be nonnegative")
    if t == 0.0:
        return CoupledBDF(IndependenceCopula(), ones_df(), ones_df())
    if t == 1.0:
        return F
    if isinstance(F, MeasureBDF):
        return F.power(t)
    return PowerBDF(F, t)


# ---------------------------------------------------------------------------
# linearizing transforms
# ---------------------------------------------------------------------------

def product_ratio(F: BivariateDF, x1, x2):
    """Q(x) = F1(x1) * F2(x2) / F(x); requires F > 0 at every request."""
    f = np.asarray(F.eval(x1, x2))
    if np.any(f <= 0.0):
        raise SupportError("ratio transform requested where F = 0")
    out = np.asarray(F.marginal1.eval(x1)) * np.asarray(F.marginal2.eval(x2)) / f
    return _scalarize(out, x1, x2)


def tail_functional(F: BivariateDF, x1, x2):
    """T(x) = F1*F2/F - F1 - F2 + 1 on {F > 0}; nonnegative there.

    For max-i.d. DFs this equals lambda*(1 - H) for the normalized jump law
    H, and exp(-t*T) is a classical max-i.d. DF for every t > 0.
    """
    q = np.asarray(product_ratio(F, x1, x2))
    out = q - np.asarray(F.marginal1.eval(x1)) \
        - np.asarray(F.marginal2.eval(x2)) + 1.0
    return _scalarize(out, x1, x2)


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


def is_bifree_maxid(F: BivariateDF, tol=1e-9, grid=None, resolution=81):
    """Decide bi-free max-infinite divisibility on a verification grid.

    The decision uses the ratio Q = F1*F2/F on the positive rectangle:

    * adjacent increments of Q must be nonnegative and bounded by the
      marginal increments (within ``tol``), and
    * every Q-cell volume must be <= ``tol`` (-Q quasi-monotone).

    Unbounded-below support is an immediate "no".  If {F > 0} fails to be
    the product of the marginal positivity sets on the grid, the structure
    is not grid-verifiable and the verdict is "inconclusive".  Continuity
    from above is supplied by the step-grid convention.
    """
    for m, name in ((F.marginal1, "x"), (F.marginal2, "y")):
        # trust the declared bound: probing cannot tell a true lower
        # endpoint from floating-point underflow of an unbounded tail
        if not np.isfinite(m.support_lower):
            return MaxIdVerdict("no",
                                f"marginal {name} has support unbounded below")
    xs, ys = _probe_grid(F, grid, resolution)

    m1 = np.asarray(F.marginal1.eval(xs))
    m2 = np.asarray(F.marginal2.eval(ys))
    p1 = m1 > 0.0
    p2 = m2 > 0.0
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

    xi = np.nonzero(p1)[0]
    yi = np.nonzero(p2)[0]
    xs, ys = xs[xi], ys[yi]
    m1, m2 = m1[xi], m2[yi]
    q = m1[:, None] * m2[None, :] / vals[np.ix_(xi, yi)]

    # tags: (check name, index step from the lower to the upper corner)
    checks = []
    d1 = np.diff(m1)
    d2 = np.diff(m2)
    if q.shape[0] > 1:
        dqx = np.diff(q, axis=0)
        checks.append((("ratio-increasing-x", (1, 0)), -dqx))
        checks.append((("ratio-increment-bound-x", (1, 0)), dqx - d1[:, None]))
    if q.shape[1] > 1:
        dqy = np.diff(q, axis=1)
        checks.append((("ratio-increasing-y", (0, 1)), -dqy))
        checks.append((("ratio-increment-bound-y", (0, 1)), dqy - d2[None, :]))
    if q.shape[0] > 1 and q.shape[1] > 1:
        checks.append((("ratio-volume", (1, 1)), _cell_volumes(q)))

    worst, tag, at = _worst(checks)
    # one positive probe point leaves no pair to compare and no margin; on
    # the knots of a step DF it is a point mass, which is max-i.d.
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
    """DF generated by an exponent measure: F = F1*F2/(1 - tau((x, inf)))
    above the lower corner, 0 elsewhere.  Always bi-freely max-i.d., and
    powered exactly by scaling the measure."""

    kind = "exponent-measure"

    def __init__(self, tau: DiscreteMeasure, lower):
        self.tau = tau
        self.lower = (float(lower[0]), float(lower[1]))
        super().__init__(_marginal_from_tau(tau, 0, self.lower[0]),
                         _marginal_from_tau(tau, 1, self.lower[1]))

    def _q(self, x1, x2):
        return 1.0 - np.asarray(self.tau.tail(x1, x2))

    def power(self, t):
        t = float(t)
        if t <= 0:
            raise ValueError("power must be positive")
        scaled = self.tau.scaled(t)
        if t <= 1.0:
            return MeasureBDF(scaled, self.lower)
        c = 1.0 - 1.0 / t
        lower = (self.marginal1.quantile_exceed(c),
                 self.marginal2.quantile_exceed(c))
        return MeasureBDF(scaled, lower)


def from_exponent_measure(tau: DiscreteMeasure, lower) -> MeasureBDF:
    """Unique DF with marginal tails tau_j((x, inf)) and joint values
    F1*F2/(1 - tau-tail) above ``lower``.

    Raises ValueError when a marginal tail exceeds 1 above ``lower``.
    """
    return MeasureBDF(tau, lower)


# ---------------------------------------------------------------------------
# compound Poisson limit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompoundPoissonReport:
    ns: tuple
    distances: tuple
    final: float

    def eventually_decreasing(self, slack=1e-12):
        return eventually_decreasing(self.distances, slack)


def eventually_decreasing(values, slack=1e-12):
    """True when the sequence is nonincreasing (within slack) from some
    index onward, with at least the final half of the ladder covered."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        return True
    rising = np.nonzero(np.diff(v) > slack)[0]
    if rising.size == 0:
        return True
    return rising[-1] + 1 <= (v.size - 1) // 2


def compound_poisson_limit(lam, nu, p, ns=None, probe=None):
    """Convolution powers of (1 - lam/n)*delta_p + (lam/n)*nu against their
    exponent-measure limit.

    ``nu`` is a planar probability law given as a :class:`DiscreteMeasure`
    (or a grid DF, converted to its atomic law).  Returns the limit DF built
    from ``tau = lam * nu`` with lower corner
    ``L_j = max(p_j, inf{F_nu_j > 1 - 1/lam})`` and a report of
    sup-distances along the ``ns`` ladder.
    """
    if lam <= 0:
        raise ValueError("rate must be positive")
    if isinstance(nu, GridBDF):
        nu = law_from_bdf(nu)
    if abs(nu.total_mass - 1.0) > 1e-9:
        raise ValueError("jump law must have total mass 1")
    p = (float(p[0]), float(p[1]))
    if ns is None:
        ns = [2 ** k for k in range(1, 11)]
    ns = [int(n) for n in ns]
    if any(n < lam for n in ns):
        raise ValueError("every n must satisfy n >= lam")

    lower = []
    for axis in range(2):
        lj = p[axis]
        if lam > 1.0:
            coords = np.unique(nu.points[:, axis])
            mvals = 1.0 - np.asarray(nu.marginal_tail(axis, coords))
            exceed = coords[mvals > 1.0 - 1.0 / lam]
            lj = max(lj, float(exceed[0]) if exceed.size else coords[-1])
        lower.append(lj)
    limit = MeasureBDF(nu.scaled(lam), tuple(lower))

    if probe is None:
        cs = [np.unique(np.concatenate([nu.points[:, a], [p[a], lower[a]]]))
              for a in range(2)]
        probe = []
        for c in cs:
            mids = 0.5 * (c[:-1] + c[1:])
            probe.append(np.unique(np.concatenate(
                [c, mids, [c[0] - 0.5, c[-1] + 0.5, c[-1] + 1.5]])))
        probe = (probe[0], probe[1])

    dists = []
    for n in ns:
        atoms = np.vstack([np.array([[p[0], p[1]]]), nu.points])
        masses = np.concatenate(([1.0 - lam / n], (lam / n) * nu.masses))
        step = bdf_from_law(DiscreteMeasure(atoms, masses))
        powered = bifree_power(step, n)
        dists.append(sup_distance(powered, limit, probe))
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
    xs, ys = _probe_grid(F, grid, 81)
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


class _ExpTailMarginalUDF(UnivariateDF):
    kind = "exp-tail"

    def __init__(self, base, t, lower):
        self.base, self.t = base, float(t)
        super().__init__(lower, base.saturation)

    def _eval(self, x):
        v = np.exp(-self.t * (1.0 - self.base.eval(x)))
        return np.where(x < self.support_lower, 0.0, v)


class ExpTailBDF(RatioBDF):
    """exp(-t * T_F) on the support rectangle of a max-i.d. base DF: its
    marginals are exp(-t*(1 - F_j)) and its ratio exp(t*(Q_F - 1))."""

    kind = "exp-tail"

    def __init__(self, base, t):
        if t <= 0:
            raise ValueError("t must be positive")
        self.base = base
        self.t = float(t)
        lo1 = base.marginal1.quantile_exceed(0.0)
        lo2 = base.marginal2.quantile_exceed(0.0)
        if not (np.isfinite(lo1) and np.isfinite(lo2)):
            raise ValueError("base DF must have support bounded below")
        super().__init__(_ExpTailMarginalUDF(base.marginal1, t, lo1),
                         _ExpTailMarginalUDF(base.marginal2, t, lo2))

    def _q(self, x1, x2):
        return np.exp(self.t * (self.base._q(x1, x2) - 1.0))


def maxid_from_tail_functional(F: BivariateDF, t) -> BivariateDF:
    """Classically max-i.d. DF exp(-t * T_F) on [L, inf), 0 elsewhere."""
    return ExpTailBDF(F, t)
