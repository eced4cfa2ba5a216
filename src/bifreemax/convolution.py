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
    _cell_volumes,
    _probe_grid,
    _pointwise,
    _ratio,
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
        knots = np.union1d(F.knots, G.knots)
        sat = H.saturation
        return GridUDF(knots, H.eval(knots),
                       saturation=sat if np.isfinite(sat) else None)
    return H


def free_power(F: UnivariateDF, t) -> UnivariateDF:
    """t-fold free max-convolution power (t*F - (t-1))_+, 0 below a finite
    lower bound L; for t < 1 the canonical representative on [L, inf).  For
    t > 1 a grid input gives the step DF of that form on its knots."""
    t = float(t)
    if t < 0:
        raise ValueError("power must be nonnegative")
    if t == 0.0:
        return ones_df()
    if t == 1.0:
        return F
    if t > 1.0:
        lower = F.quantile_exceed(1.0 - 1.0 / t)
    else:
        # trust only a declared bound, as is_bifree_maxid does: probing
        # cannot tell a lower endpoint from an underflowing tail
        lower = F.quantile_exceed(0.0) if np.isfinite(F.support_lower) \
            else np.inf
        if not np.isfinite(lower):
            raise ValueError("fractional powers need support bounded from below")
    # FuncUDF's clip to [0, 1] is the (.)_+
    H = FuncUDF(lambda x: t * F.eval(x) + (1.0 - t), lower, F.saturation,
                kind="free-power")
    if isinstance(F, GridUDF) and t > 1.0:
        sat = H.saturation
        return GridUDF(F.knots, H.eval(F.knots),
                       saturation=sat if np.isfinite(sat) else None)
    return H


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
            return _ratio(h, q, (h > 0) & np.isfinite(q), 0.0)


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

# knots per axis of the default probe lattice of a non-grid DF
_PROBE_KNOTS = 81


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


def is_bifree_maxid(F: BivariateDF, tol=1e-9, grid=None):
    """Decide bi-free max-infinite divisibility on a verification grid.

    The decision uses the ratio Q = F1*F2/F on the positive rectangle:

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
    for m, name in ((F.marginal1, "x"), (F.marginal2, "y")):
        # trust the declared bound: probing cannot tell a true lower
        # endpoint from floating-point underflow of an unbounded tail
        if not np.isfinite(m.support_lower):
            return MaxIdVerdict("no",
                                f"marginal {name} has support unbounded below")
    xs, ys = _probe_grid(F, grid, _PROBE_KNOTS)

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

    xs, ys = xs[p1], ys[p2]
    q, m1, m2 = _ratio_parts(F, xs[:, None], ys[None, :])

    # tags: (check name, index step from the lower to the upper corner); on
    # a one-row or one-column lattice the blocks across it are empty
    dqx = np.diff(q, axis=0)
    dqy = np.diff(q, axis=1)
    worst, tag, at = _worst([
        (("ratio-increasing-x", (1, 0)), -dqx),
        (("ratio-increment-bound-x", (1, 0)), dqx - np.diff(m1, axis=0)),
        (("ratio-increasing-y", (0, 1)), -dqy),
        (("ratio-increment-bound-y", (0, 1)), dqy - np.diff(m2, axis=1)),
        (("ratio-volume", (1, 1)), _cell_volumes(q)),
    ])
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
    return rising[-1] + 1 <= (v.size - 1) // 2


def compound_poisson_limit(lam, nu, p, ns=None):
    """Convolution powers of (1 - lam/n)*delta_p + (lam/n)*nu against their
    exponent-measure limit.

    ``nu`` is a planar probability law given as a :class:`DiscreteMeasure`
    (or a grid DF, converted to its atomic law).  Returns the limit DF built
    from ``tau = lam * nu`` with lower corner
    ``L_j = max(p_j, inf{F_nu_j > 1 - 1/lam})`` and a report of
    sup-distances along the ``ns`` ladder, probed on the atoms' coordinates,
    their midpoints and points below and beyond them.
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
    if not ns:
        raise ValueError("ns must hold at least one n")
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

    probe = []
    for a in range(2):
        c = np.unique(np.concatenate([nu.points[:, a], [p[a], lower[a]]]))
        mids = 0.5 * (c[:-1] + c[1:])
        probe.append(np.unique(np.concatenate(
            [c, mids, [c[0] - 0.5, c[-1] + 0.5, c[-1] + 1.5]])))
    probe = tuple(probe)

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
    xs, ys = _probe_grid(F, grid, _PROBE_KNOTS)
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
        if t <= 0:
            raise ValueError("t must be positive")
        self.base = base
        self.t = float(t)

        def marginal(m):
            lower = m.quantile_exceed(0.0) if np.isfinite(m.support_lower) \
                else np.inf
            if not np.isfinite(lower):
                raise ValueError("base DF must have support bounded below")
            # positive at F_j = 0, so the finite lower bound cuts it to 0
            return FuncUDF(lambda x: np.exp(-self.t * (1.0 - m.eval(x))),
                           lower, m.saturation, kind="exp-tail")

        super().__init__(marginal(base.marginal1), marginal(base.marginal2))

    def _q(self, x1, x2):
        return np.exp(self.t * (self.base._q(x1, x2) - 1.0))


maxid_from_tail_functional = ExpTailBDF
