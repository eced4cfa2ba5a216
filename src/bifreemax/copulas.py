"""Parametric copula families, Pickands dependence functions, and the
membership test for couplings of max-infinitely divisible type.

Two constructions recur throughout the package.  A Pickands dependence
function ``A`` generates

* the extreme-value copula ``exp[log(uv) * A(log u / log(uv))]``, and
* the ratio copula ``uv / f_A(u, v)`` with
  ``f_A(u, v) = -1 + u + v + (2 - u - v) * A((1 - u) / (2 - u - v))``,

whose iterates ``C^n(u^(1/n), v^(1/n))`` converge to the former.  Families
expressible as ``uv / f(u, v)`` expose the denominator through ``f_eval``;
``check_maxid_coupling`` decides whether that denominator has the
monotone-difference and reverse quasi-monotone structure which makes
``C(F1, F2)`` bi-freely max-infinitely divisible.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .distributions import (
    SupportError,
    _as_float_array,
    _cell_volumes,
    _pointwise,
    _ratio,
    _require_finite,
    _require_tol,
    _worst,
)

__all__ = [
    "Copula",
    "IndependenceCopula",
    "ComonotoneCopula",
    "AMHCopula",
    "FGMCopula",
    "ClaytonCopula",
    "LomaxCopula",
    "GumbelMixedCopula",
    "LogisticCopula",
    "MarshallOlkinCopula",
    "EVCopula",
    "BiFreeCopula",
    "SurvivalCopula",
    "GridCopula",
    "PowerTransformCopula",
    "PickandsFn",
    "FuncPickands",
    "pickands_one",
    "pickands_lower",
    "gumbel_mixed_pickands",
    "logistic_pickands",
    "marshall_olkin_pickands",
    "pickands_from_measure",
    "survival_copula",
    "ev_copula",
    "bifree_copula",
    "power_transform",
    "doa_iterate",
    "check_maxid_coupling",
    "check_copula_axioms",
    "check_pickands",
    "CouplingVerdict",
]


class Copula:
    """Bivariate copula evaluated pointwise on [0, 1]^2.

    ``eval`` and ``f_eval`` hand their queries to ``_eval(u, v)`` and a
    ratio form's ``_f(u, v)`` under the contract of
    :func:`~bifreemax.distributions._pointwise`.
    """

    family = "abstract"
    smooth = False

    def __init__(self, params=None):
        self.params = dict(params or {})

    def _eval(self, u, v):
        raise NotImplementedError

    def eval(self, u, v):
        return _pointwise(self._eval, u, v,
                          unit="copula arguments must lie in [0, 1]")

    def __call__(self, u, v):
        return self.eval(u, v)

    def f_eval(self, u, v):
        """Denominator of the ratio form uv / f(u, v).

        Families with a closed-form denominator override this; the generic
        fallback divides, is +inf where C = 0 < uv, and extends by the limit
        max(u, v) on the axes.
        """
        def f(ua, va):
            c = np.asarray(self.eval(ua, va))
            prod = ua * va
            out = _ratio(prod, c, c > 0, np.inf)
            np.copyto(out, np.maximum(ua, va), where=np.logical_not(prod > 0.0))
            return out

        return _pointwise(f, u, v)


class _FFormCopula(Copula):
    """Copula of the form uv / f(u, v) with a total, closed-form f."""

    def _f(self, u, v):
        raise NotImplementedError

    def f_eval(self, u, v):
        return _pointwise(self._f, u, v)

    def _eval(self, u, v):
        f = self._f(u, v)
        prod = u * v
        # the ratio overwrites a writable full-shape f: _pointwise hands such
        # a result of _f to f_eval's caller as its own, so _f made it fresh
        full = (isinstance(f, np.ndarray) and f.shape == np.shape(prod)
                and f.dtype == np.float64 and f.flags.writeable)
        return _uv_over_f(prod, f, out=f if full else None)


def _uv_over_f(prod, f, out=None):
    """The copula values uv / f of a ratio form from ``prod = uv`` and f,
    written to ``out`` (a fresh array when None), which must not be
    ``prod``."""
    # f can round to 0 next to the origin, where uv / f would be inf;
    # there, and where f is undefined, the value is uv, in [0, min(u, v)];
    # a NaN argument gives NaN, and uv = 0 gives +0.0
    out = _ratio(prod, f, f > 0, prod, out=out)
    np.copyto(out, 0.0, where=prod <= 0.0)
    return out


class IndependenceCopula(_FFormCopula):
    family = "independence"
    smooth = True

    def _f(self, u, v):
        return np.ones(np.broadcast(u, v).shape)


class ComonotoneCopula(Copula):
    family = "comonotone"
    smooth = False

    def _eval(self, u, v):
        return np.minimum(u, v)

    def f_eval(self, u, v):
        return _pointwise(np.maximum, u, v)


class AMHCopula(_FFormCopula):
    """Ali-Mikhail-Haq family uv / (1 - theta*(1-u)*(1-v))."""

    family = "amh"
    smooth = True

    def __init__(self, theta):
        if not -1.0 <= theta <= 1.0:
            raise ValueError("AMH requires theta in [-1, 1]")
        super().__init__({"theta": float(theta)})
        self.theta = float(theta)

    def _f(self, u, v):
        return 1.0 - self.theta * (1.0 - u) * (1.0 - v)


class FGMCopula(_FFormCopula):
    """Farlie-Gumbel-Morgenstern family uv * (1 + theta*(1-u)*(1-v))."""

    family = "fgm"
    smooth = True

    def __init__(self, theta):
        if not -1.0 <= theta <= 1.0:
            raise ValueError("FGM requires theta in [-1, 1]")
        super().__init__({"theta": float(theta)})
        self.theta = float(theta)

    def _f(self, u, v):
        # the pole of theta = -1 at the origin is masked by the caller
        with np.errstate(divide="ignore"):
            return 1.0 / (1.0 + self.theta * (1.0 - u) * (1.0 - v))


class ClaytonCopula(_FFormCopula):
    """Clayton family (u^(-1/p) + v^(-1/p) - 1)^(-p)."""

    family = "clayton"
    smooth = True

    def __init__(self, p):
        if p <= 0:
            raise ValueError("Clayton requires p > 0")
        super().__init__({"p": float(p)})
        self.p = float(p)

    def _f(self, u, v):
        # f = uv * C^-1 written in the overflow-free form
        # (u^(1/p) + v^(1/p) - (u v)^(1/p))^p; the max(u, v) floor holds for
        # every copula denominator and absorbs underflow at the corner
        r = 1.0 / self.p
        raw = np.power(np.power(u, r) + np.power(v, r) - np.power(u * v, r),
                       self.p)
        return np.maximum(raw, np.maximum(u, v))


class LomaxCopula(_FFormCopula):
    """Lomax family uv / [1 - theta*(1-u^(1/p))*(1-v^(1/p))]^p."""

    family = "lomax"
    smooth = True

    def __init__(self, p, theta):
        if p <= 0:
            raise ValueError("Lomax requires p > 0")
        if not -p <= theta <= 1.0:
            raise ValueError("Lomax requires theta in [-p, 1]")
        super().__init__({"p": float(p), "theta": float(theta)})
        self.p = float(p)
        self.theta = float(theta)

    def _f(self, u, v):
        r = 1.0 / self.p
        w = (1.0 - np.power(u, r)) * (1.0 - np.power(v, r))
        return np.power(1.0 - self.theta * w, self.p)


class PickandsFn:
    """Pickands dependence function on [0, 1] given by a vectorized ``fn``;
    ``params`` are its family's parameters (copulas built on it inherit
    them), and ``smooth`` says that ``fn`` has no kinks."""

    def __init__(self, fn, params=None, smooth=False):
        self._fn = fn
        self.params = dict(params or {})
        self.smooth = smooth

    def eval(self, t):
        return _pointwise(self._fn, t,
                          unit="Pickands argument must lie in [0, 1]")

    def __call__(self, t):
        return self.eval(t)


# a second name of the class, which callers import
FuncPickands = PickandsFn


def pickands_one():
    """A == 1; generates the independence copula."""
    return PickandsFn(lambda t: np.ones_like(t), smooth=True)


def pickands_lower():
    """A(t) = max(t, 1-t); generates the comonotone copula."""
    return PickandsFn(lambda t: np.maximum(t, 1.0 - t), smooth=False)


def gumbel_mixed_pickands(theta):
    if not 0.0 <= theta <= 1.0:
        raise ValueError("Gumbel mixed model requires theta in [0, 1]")
    return PickandsFn(lambda t: theta * t * t - theta * t + 1.0,
                      params={"theta": float(theta)}, smooth=True)


def logistic_pickands(m):
    if m < 1.0:
        raise ValueError("logistic model requires m >= 1")
    return PickandsFn(
        lambda t: np.power(np.power(t, m) + np.power(1.0 - t, m), 1.0 / m),
        params={"m": float(m)}, smooth=True)


def marshall_olkin_pickands(theta, phi):
    if not (0.0 <= theta <= 1.0 and 0.0 <= phi <= 1.0):
        raise ValueError("Marshall-Olkin model requires theta, phi in [0, 1]")
    return PickandsFn(
        lambda t: 1.0 - np.minimum(theta * t, phi * (1.0 - t)),
        params={"theta": float(theta), "phi": float(phi)}, smooth=False)


def pickands_from_measure(measure):
    """Spectral Pickands function A(t) = sum_i max(t*x_i, (1-t)*y_i) * m_i of
    a discrete measure on the simplex {x + y = 1, x, y >= 0} obeying the unit
    mean constraints, both checked to within 1e-9."""
    pts, ms = measure.points, measure.masses
    tol = 1e-9
    if np.any(np.abs(pts.sum(axis=1) - 1.0) > tol) or np.any(pts < -tol):
        raise ValueError("spectral measure must sit on the unit simplex")
    mx = float((pts[:, 0] * ms).sum())
    my = float((pts[:, 1] * ms).sum())
    if abs(mx - 1.0) > tol or abs(my - 1.0) > tol:
        raise ValueError(
            f"mean constraints violated: integral of x is {mx!r}, of y is {my!r}")

    def fn(t):
        ta = t[..., None]
        return (np.maximum(ta * pts[:, 0], (1.0 - ta) * pts[:, 1]) * ms).sum(axis=-1)

    return PickandsFn(fn, params={"atoms": pts.shape[0]})


class EVCopula(Copula):
    """Extreme-value copula exp[log(uv) * A(log u / log(uv))] of a Pickands
    function A."""

    family = "ev-pickands"

    def __init__(self, pickands: PickandsFn):
        super().__init__(dict(pickands.params))
        self.pickands = pickands
        self.smooth = pickands.smooth

    def _eval(self, u, v):
        with np.errstate(divide="ignore", invalid="ignore"):
            lu, lv = np.log(u), np.log(v)
            w = lu + lv
            t = np.clip(lu / w, 0.0, 1.0)
        # t may be NaN on the edges, where the value is 0, u or v
        c = np.exp(w * self.pickands.eval(t))
        return np.where((u <= 0.0) | (v <= 0.0), 0.0,
                        np.where(u >= 1.0, v, np.where(v >= 1.0, u, c)))


class BiFreeCopula(_FFormCopula):
    """Ratio copula uv / f_A(u, v) of a Pickands function A; in the domain of
    attraction of the extreme-value copula of A."""

    family = "bifree-pickands"

    def __init__(self, pickands: PickandsFn):
        super().__init__(dict(pickands.params))
        self.pickands = pickands
        self.smooth = pickands.smooth

    def _f(self, u, v):
        den = 2.0 - u - v
        # the argument lies in [0, 1] exactly; clip cancellation noise in den,
        # in place, and hand it to the Pickands closure, which then needs no
        # range check or clip copy of its own
        t = _ratio(1.0 - u, den, den > 0.0, 0.5)
        np.clip(t, 0.0, 1.0, out=t)
        # at (1,1) the products vanish and f = -1 + u + v = 1 by continuity
        return -1.0 + u + v + den * np.asarray(self.pickands._fn(t))


class GumbelMixedCopula(BiFreeCopula):
    """uv / [1 - theta*(1-u)*(1-v)/(2-u-v)]; attracted to the Gumbel mixed
    extreme-value copula."""

    family = "gumbel-mixed"

    def __init__(self, theta):
        super().__init__(gumbel_mixed_pickands(theta))


class LogisticCopula(BiFreeCopula):
    """uv / [-1 + u + v + ((1-u)^m + (1-v)^m)^(1/m)]."""

    family = "logistic"

    def __init__(self, m):
        super().__init__(logistic_pickands(m))


class MarshallOlkinCopula(BiFreeCopula):
    """uv / [1 - min(theta*(1-u), phi*(1-v))]; attracted to the classical
    Marshall-Olkin copula uv * min(u^-theta, v^-phi)."""

    family = "marshall-olkin"

    def __init__(self, theta, phi):
        super().__init__(marshall_olkin_pickands(theta, phi))


class SurvivalCopula(Copula):
    """Survival copula C(1-u, 1-v) + u + v - 1 of a base copula; an
    involution up to pointwise equality."""

    family = "survival"

    def __init__(self, base: Copula):
        super().__init__({"of": base.family, **base.params})
        self.base = base
        self.smooth = base.smooth

    def _eval(self, u, v):
        out = self.base.eval(1.0 - u, 1.0 - v) + u + v - 1.0
        return np.clip(out, 0.0, 1.0)


class GridCopula(Copula):
    """Checkerboard copula: bilinear interpolation of values on a lattice."""

    family = "grid"
    smooth = False

    def __init__(self, uknots, vknots, values):
        super().__init__()
        self.uknots = _as_float_array(uknots)
        self.vknots = _as_float_array(vknots)
        self.values = _as_float_array(values)
        _require_finite("knots and values must be finite",
                        self.uknots, self.vknots, self.values)
        for k in (self.uknots, self.vknots):
            if k[0] != 0.0 or k[-1] != 1.0 or np.any(np.diff(k) <= 0):
                raise ValueError("copula knots must increase strictly from 0 to 1")
        if self.values.shape != (self.uknots.size, self.vknots.size):
            raise ValueError("values shape must match the knot lattice")

    def _eval(self, u, v):
        i = np.clip(np.searchsorted(self.uknots, u, side="right") - 1,
                    0, self.uknots.size - 2)
        j = np.clip(np.searchsorted(self.vknots, v, side="right") - 1,
                    0, self.vknots.size - 2)
        du = self.uknots[i + 1] - self.uknots[i]
        dv = self.vknots[j + 1] - self.vknots[j]
        su = (u - self.uknots[i]) / du
        sv = (v - self.vknots[j]) / dv
        z = self.values
        return ((1 - su) * (1 - sv) * z[i, j] + su * (1 - sv) * z[i + 1, j]
                + (1 - su) * sv * z[i, j + 1] + su * sv * z[i + 1, j + 1])


class PowerTransformCopula(_FFormCopula):
    """uv / f^p(u^(1/p), v^(1/p)) for a ratio-form base copula, 0 < p <= 1."""

    family = "power-transform"

    def __init__(self, base: Copula, p):
        if not 0.0 < p <= 1.0:
            raise ValueError("power transform requires p in (0, 1]")
        super().__init__({"of": base.family, "p": float(p), **base.params})
        self.base = base
        self.p = float(p)
        self.smooth = base.smooth

    def _f(self, u, v):
        r = 1.0 / self.p
        return np.power(self.base.f_eval(np.power(u, r), np.power(v, r)), self.p)


def power_transform(C: Copula, p) -> Copula:
    """Stable power uv / f^p(u^(1/p), v^(1/p)) of a ratio-form copula."""
    if p == 1.0:
        return C
    return PowerTransformCopula(C, p)


# constructor spellings of the classes
survival_copula = SurvivalCopula
ev_copula = EVCopula
bifree_copula = BiFreeCopula


def doa_iterate(C: Copula, n, probe):
    """Values of C^n(u^(1/n), v^(1/n)) on the product probe grid
    ``probe = (us, vs)``.

    The iterates of a copula in a max-domain of attraction converge to the
    attracting extreme-value copula; callers compare against a candidate.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    us, vs = (_as_float_array(probe[0]), _as_float_array(probe[1]))
    root = 1.0 / float(n)
    c = C.eval(np.power(us[:, None], root), np.power(vs[None, :], root))
    return np.power(c, float(n))


# ---------------------------------------------------------------------------
# membership test for the ratio-form coupling family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CouplingWitness:
    check: str
    point: tuple
    quantity: float


@dataclass(frozen=True)
class CouplingVerdict:
    member: bool
    mode: str
    min_margin: float
    witness: CouplingWitness | None = None

    def __bool__(self):
        return self.member


def _difference_blocks(f, us):
    """The grid-mode blocks of ``check_maxid_coupling``, one at a time:
    differences of f(u, v) - u along u and of f(u, v) - v along v, and the
    f-volumes of the cells."""
    yield (("monotone-difference-u", (us[1:], us)),
           np.diff(f - us[:, None], axis=0))
    yield (("monotone-difference-v", (us, us[1:])),
           np.diff(f - us[None, :], axis=1))
    yield ("volume", (us[:-1], us[:-1])), _cell_volumes(f)


# the step of the smooth-mode central differences
_STEP = 1e-5


@functools.cache
def _probe_axes(grid_n, stencil):
    """The probe axes of ``check_maxid_coupling`` at ``grid_n``, read-only
    and shared by every check: ``us``, the lattice axis over (0, 1], and
    with ``stencil`` also ``ps``, the derivative probes clipped into
    [2 * _STEP, 1 - _STEP], and ``ps + _STEP`` and ``ps - _STEP`` as
    columns and as rows."""
    h = _STEP
    us = np.linspace(0.0, 1.0, grid_n)[1:]
    axes = [us]
    if stencil:
        ps = np.unique(np.clip(np.linspace(0.0, 1.0, grid_n), 2 * h, 1.0 - h))
        P, Q = ps[:, None], ps[None, :]
        axes += [ps, P + h, P - h, Q + h, Q - h]
    for a in axes:
        a.flags.writeable = False
    return tuple(axes)


def _accumulate(d, b, op=np.subtract):
    """``op(d, b)`` into ``d``; where two probes of f are both infinite their
    difference is NaN, which ``_worst`` fails, and no warning is raised."""
    with np.errstate(invalid="ignore"):
        op(d, b, out=d)


def _derivative_blocks(fe, ps, P_ahead, P_behind, Q_ahead, Q_behind):
    """The smooth-mode blocks of ``check_maxid_coupling``, one at a time:
    central differences of the denominator ``fe`` with step ``_STEP`` on
    the stencil of ``_probe_axes``, each accumulated in place."""
    h = _STEP
    P, Q = ps[:, None], ps[None, :]
    axes = (ps, ps)
    for name, ahead, behind in (("df/du", (P_ahead, Q), (P_behind, Q)),
                                ("df/dv", (P, Q_ahead), (P, Q_behind))):
        d = fe(*ahead)
        _accumulate(d, fe(*behind))
        d /= 2 * h
        yield (f"{name} lower", axes), -d
        # its own block: the rounding of d - 1 can tie entries d separates
        d -= 1.0
        yield (f"{name} upper", axes), d
    d = fe(P_ahead, Q_ahead)
    _accumulate(d, fe(P_ahead, Q_behind))
    _accumulate(d, fe(P_behind, Q_ahead))
    _accumulate(d, fe(P_behind, Q_behind), np.add)
    d /= 4 * h * h
    yield ("mixed partial", axes), d


def check_maxid_coupling(C: Copula, mode="grid", tol=1e-9, grid_n=101):
    """Decide whether ``C = uv/f`` has a denominator with the structure that
    makes ``C(F1, F2)`` bi-freely max-infinitely divisible.

    Grid mode verifies, on a probe lattice over (0, 1]^2, that

    * f(u, 1) = 1 = f(1, v),
    * u -> f(u, v) - u and v -> f(u, v) - v are nonincreasing, and
    * -f is quasi-monotone (all f-volumes <= 0).

    Smooth mode replaces the monotonicity and volume checks by the central
    finite-difference conditions 0 <= df/du, df/dv <= 1 and d2f/dudv <= 0,
    with step 1e-5 and tolerance max(tol, 1e-7); it refuses families with
    kinks, whose derivative probes would fail spuriously.

    f is evaluated once per probe lattice: once on the lattice of grid
    mode, and in smooth mode once more on each of the eight shifted
    lattices of the stencil.  C must be strictly positive on the lattice
    (SupportError otherwise); every family reads that from f, as uv / f by
    the rule of a ratio form's ``eval``.  A negative or NaN ``tol`` is a
    ValueError.

    Returns a :class:`CouplingVerdict`; ``min_margin`` is the distance of the
    worst probe quantity from the failure threshold, so borderline parameter
    values are visible to the caller.
    """
    if mode not in ("grid", "smooth"):
        raise ValueError("mode must be 'grid' or 'smooth'")
    if mode == "smooth" and not C.smooth:
        raise ValueError(
            f"family {C.family!r} has non-smooth spots; use grid mode")
    if grid_n < 3:
        raise ValueError(f"grid_n must be at least 3, got {grid_n}")
    _require_tol(tol)

    us, *stencil = _probe_axes(operator.index(grid_n), mode == "smooth")
    U, V = us[:, None], us[None, :]
    # positivity by the rule of a ratio form's eval, read off the one f
    # lattice: the generic f is +inf where C <= 0 < uv, where uv / f is 0
    f = np.asarray(C.f_eval(U, V))
    if np.any(_uv_over_f(U * V, f) <= 0.0):
        raise SupportError("copula must be strictly positive on (0, 1]^2")

    # tags: (check name, the u and v probe axes of the block's entries)
    boundary = [
        (("boundary", (us, us[-1:])), np.abs(f[:, -1:] - 1.0)),
        (("boundary", (us[-1:], us)), np.abs(f[-1:, :] - 1.0)),
    ]
    # the blocks stream: _worst reduces each before the next is made, so a
    # check holds two or three lattices at once, not a dozen; freed
    # together, a dozen pass the allocator's trim threshold, go back to the
    # system and fault in again, page by page, on the next check
    if mode == "grid":
        quantities = _difference_blocks(f, us)
        threshold = tol
    else:
        # the stencil reads no f lattice: free it before the stencil's own
        del f
        quantities = _derivative_blocks(C.f_eval, *stencil)
        threshold = max(tol, 1e-7)

    bound_q, bound_tag, bound_at = _worst(boundary)
    worst_q, tag, at = _worst(quantities)
    member = worst_q <= threshold and bound_q <= tol
    witness = None
    if not member:
        # the witness is the larger excess over its threshold, a NaN first
        _, (q, (name, axes), at), _ = _worst([
            ((worst_q, tag, at), [worst_q - threshold]),
            ((bound_q, bound_tag, bound_at), [bound_q - tol])])
        witness = CouplingWitness(
            name, tuple(float(a[i]) for a, i in zip(axes, at)), q)
    # margin from the inequality checks only; the boundary rows sit on an
    # equality and would otherwise always pin the margin near zero
    return CouplingVerdict(member=member, mode=mode,
                           min_margin=float(threshold - worst_q),
                           witness=witness)


# ---------------------------------------------------------------------------
# axiom validators
# ---------------------------------------------------------------------------

def _worst_of(*arrays):
    """Largest entry of ``arrays``; a NaN is the largest, so it fails."""
    return _worst([("", a) for a in arrays])[0]


def check_copula_axioms(C: Copula, n=101, tol=1e-9):
    """Probe the copula axioms; raises AssertionError on violation.

    Checks boundary values, quasi-monotonicity on a lattice, the comonotone
    upper bound, and the two-sided Lipschitz estimate on 500 pairs drawn
    with seed 0.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2 to probe a cell, got {n}")
    _require_tol(tol)
    g = np.linspace(0.0, 1.0, n)
    z = np.zeros_like(g)
    o = np.ones_like(g)
    if not _worst_of(np.abs(C.eval(g, z)), np.abs(C.eval(z, g))) <= tol:
        raise AssertionError("boundary C(u,0) = 0 = C(0,v) fails")
    if not _worst_of(np.abs(C.eval(g, o) - g), np.abs(C.eval(o, g) - g)) <= tol:
        raise AssertionError("boundary C(u,1) = u or C(1,v) = v fails")
    vals = C.eval(g[:, None], g[None, :])
    drop = _worst_of(-_cell_volumes(vals))
    if not drop <= tol:
        raise AssertionError(f"quasi-monotonicity fails: volume {-drop:.3e}")
    if not _worst_of(vals - np.minimum(g[:, None], g[None, :])) <= tol:
        raise AssertionError("comonotone upper bound fails")
    rng = np.random.default_rng(0)
    a = rng.uniform(size=(500, 2))
    b = rng.uniform(size=(500, 2))
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    diff = C.eval(hi[:, 0], hi[:, 1]) - C.eval(lo[:, 0], lo[:, 1])
    slack = (hi - lo).sum(axis=1)
    if not _worst_of(-diff, diff - slack) <= tol:
        raise AssertionError("Lipschitz bound |dC| <= du + dv fails")
    return True


def check_pickands(A: PickandsFn):
    """Probe Pickands axioms: endpoints, bounds, and discrete convexity, on
    201 points to within 1e-9."""
    t = np.linspace(0.0, 1.0, 201)
    a = np.asarray(A.eval(t))
    tol = 1e-9
    if not _worst_of(np.abs(a[[0, -1]] - 1.0)) <= tol:
        raise AssertionError("A(0) = A(1) = 1 fails")
    if not _worst_of(a - 1.0, np.maximum(t, 1.0 - t) - a) <= tol:
        raise AssertionError("bounds max(t, 1-t) <= A <= 1 fail")
    if not _worst_of(a[1:-1] - 0.5 * (a[:-2] + a[2:])) <= tol:
        raise AssertionError("convexity fails on the probe grid")
    return True
