"""Classical and free extreme-value types, bivariate extreme-value
construction, max-stability verification, and domain-of-attraction
experiments.

The map ``G -> (1 + log G)_+`` carries each classical extreme type to its
free counterpart (Gumbel to exponential, Frechet to Pareto, Weibull to the
beta-type law) and turns pointwise products into free max-convolutions, so
both theories share normalizing sequences and domains of attraction.  A
bivariate extreme-value DF is the extreme-value copula
``exp[log(uv) A(log u / log(uv))]`` of a Pickands function ``A`` applied to
its classical marginals; its bi-free counterpart couples free marginals
through the ratio copula generated by the same Pickands function.  Both are
a :class:`CoupledBDF`, one copula over two marginals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolution import bifree_power
from .copulas import BiFreeCopula, EVCopula, PickandsFn
from .distributions import (
    BivariateDF,
    CoupledBDF,
    FuncUDF,
    UnivariateDF,
    _as_float_array,
    grid_probe,
)

__all__ = [
    "GEVParams",
    "gev_df",
    "free_from_classical",
    "classical_mev",
    "bifree_ev",
    "NormalizingSequence",
    "default_normalizers",
    "check_max_stable",
    "MaxStabilityReport",
    "doa_experiment",
    "DoAReport",
    "recover_pickands",
]


# below this |xi|, xi*z loses digits to underflow and the GEV formulas equal
# their Gumbel limit to rounding wherever F is not 0 or 1
_GUMBEL_XI = 1e-300


@dataclass(frozen=True)
class GEVParams:
    """Shape/location/scale of a generalized extreme-value marginal."""

    xi: float
    m: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


def gev_df(*, xi, m=0.0, sigma=1.0) -> UnivariateDF:
    """Generalized extreme-value DF exp(-exp(-s)) with z = (x - m)/sigma and
    s = log1p(xi*z)/xi, which tends to z as xi -> 0 (the Gumbel type; s = z
    for |xi| < 1e-300).  Where xi*z <= -1 the value is 0 at and below a
    Frechet lower endpoint and 1 at and above a Weibull upper endpoint.
    """
    params = GEVParams(float(xi), float(m), float(sigma))
    xi, m, sigma = params.xi, params.m, params.sigma
    lower = m - sigma / xi if xi > 0.0 else -np.inf
    sat = m + sigma / abs(xi) if xi < 0.0 else np.inf

    def fn(x):
        # z overflows and log1p is -inf or NaN only where F is 0 or 1
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            z = (x - m) / sigma
            s = z if abs(xi) < _GUMBEL_XI else np.log1p(xi * z) / xi
            return np.where(xi * z <= -1.0, float(xi < 0.0),
                            np.exp(-np.exp(-s)))

    return FuncUDF(fn, support_lower=lower, saturation=sat, kind="gev",
                   params={"xi": xi, "m": m, "sigma": sigma})


def free_from_classical(G: UnivariateDF) -> UnivariateDF:
    """Apply the homomorphism x -> (1 + log x)_+ to the values of ``G``.

    Sends each classical extreme type to the matching free type and turns
    the pointwise product of DFs into their free max-convolution.
    """
    if G.kind == "gev":
        # G crosses 1/e exactly at the location parameter
        lower = G.params["m"]
    else:
        lower = G.quantile_exceed(math.exp(-1.0))

    def fn(x):
        g = G.eval(x)
        return np.where(g > 0.0, 1.0 + np.log(np.maximum(g, 1e-300)), 0.0)

    # FuncUDF's clip to [0, 1] is the (.)_+
    return FuncUDF(fn, lower, G.saturation, kind="free-of-classical",
                   params={"base": G})


def classical_mev(G1, G2, A: PickandsFn) -> BivariateDF:
    """Max-stable coupling exp[(log G1 + log G2) A(log G1/(log G1+log G2))]:
    the extreme-value copula of ``A`` applied to classical marginals."""
    return CoupledBDF(EVCopula(A), G1, G2)


def bifree_ev(F1, F2, A: PickandsFn) -> BivariateDF:
    """Bi-free extreme-value DF: the ratio copula of ``A`` applied to freely
    max-stable marginals.  Bi-free max-stable and max-infinitely divisible."""
    return CoupledBDF(BiFreeCopula(A), F1, F2)


# ---------------------------------------------------------------------------
# normalizing sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalizingSequence:
    """Per-n affine normalizers (a_n, b_n) x (c_n, d_n), a_n, c_n > 0."""

    a: callable
    b: callable
    c: callable
    d: callable

    def __call__(self, n):
        an, cn = float(self.a(n)), float(self.c(n))
        if an <= 0 or cn <= 0:
            raise ValueError("scale normalizers must be positive")
        return an, float(self.b(n)), cn, float(self.d(n))


def _axis_normalizers(F: UnivariateDF):
    """(a_n, b_n) of one marginal family.  The GEV shift is
    b_n = (n**xi - 1)*(sigma/xi - m), with n**xi - 1 taken as
    expm1(xi*log n) so that b_n tends to sigma*log n as xi -> 0."""
    kind, p = F.kind, F.params if hasattr(F, "params") else {}
    if kind == "exponential":
        s = p.get("scale", 1.0)
        return (lambda n: 1.0), (lambda n: s * math.log(n))
    if kind == "pareto":
        alpha, s = p["alpha"], p.get("scale", 1.0)
        return (lambda n: n ** (1.0 / alpha)), (lambda n: 0.0)
    if kind == "beta":
        alpha, upper = p["alpha"], p.get("upper", 0.0)
        return (lambda n: n ** (-1.0 / alpha)), \
               (lambda n: upper * (1.0 - n ** (-1.0 / alpha)))
    if kind == "gev":
        xi, m, s = p["xi"], p["m"], p["sigma"]
        if abs(xi) < _GUMBEL_XI:
            return (lambda n: 1.0), (lambda n: s * math.log(n))
        return (lambda n: n ** xi), \
               (lambda n: math.expm1(xi * math.log(n)) * (s / xi - m))
    if kind == "free-of-classical":
        return _axis_normalizers(p["base"])
    raise ValueError(f"no default normalizers for marginal kind {kind!r}")


def default_normalizers(m1: UnivariateDF, m2: UnivariateDF) -> NormalizingSequence:
    """Standard univariate normalizers per marginal family.

    The same sequences serve the classical and the free side of each type;
    verify with the univariate stability identity before relying on them
    for unfamiliar parametrizations.
    """
    a, b = _axis_normalizers(m1)
    c, d = _axis_normalizers(m2)
    return NormalizingSequence(a, b, c, d)


# ---------------------------------------------------------------------------
# stability and attraction experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaxStabilityReport:
    rows: tuple  # (n, sup_distance)

    @property
    def max_distance(self):
        return max(d for _, d in self.rows)


def check_max_stable(F: BivariateDF, seq: NormalizingSequence, ns,
                     probe) -> MaxStabilityReport:
    """Distance of the rescaled n-fold convolution powers from ``F`` itself.

    Max-stable inputs give distances at rounding level for every n.
    """
    xs, ys = _as_float_array(probe[0]), _as_float_array(probe[1])
    X, Y = grid_probe(xs, ys)
    base = np.asarray(F.eval(X, Y))
    rows = []
    for n in ns:
        an, bn, cn, dn = seq(int(n))
        powered = bifree_power(F, int(n))
        vals = np.asarray(powered.eval(an * X + bn, cn * Y + dn))
        rows.append((int(n), float(np.max(np.abs(vals - base)))))
    return MaxStabilityReport(tuple(rows))


@dataclass(frozen=True)
class DoAReport:
    rows: tuple  # (n, diagnostic, value)

    def series(self, diagnostic):
        return [(n, v) for n, d, v in self.rows if d == diagnostic]


def doa_experiment(H: BivariateDF, seq: NormalizingSequence,
                   classical_target: BivariateDF, bifree_target: BivariateDF,
                   ns, probe) -> DoAReport:
    """Two attraction diagnostics along an n-ladder.

    classical: sup |n*(1 - H(a_n x + b_n, c_n y + d_n)) + log G(x, y)| over
    probe points with G > 0; bi-free: sup distance of the rescaled n-fold
    bi-free power of ``H`` from the bi-free target.  For ``H`` in the shared
    domain of attraction both shrink together.
    """
    xs, ys = _as_float_array(probe[0]), _as_float_array(probe[1])
    X, Y = grid_probe(xs, ys)
    g = np.asarray(classical_target.eval(X, Y))
    pos = g > 0.0
    logg = np.log(np.where(pos, g, 1.0))
    fvals = np.asarray(bifree_target.eval(X, Y))
    rows = []
    for n in ns:
        n = int(n)
        an, bn, cn, dn = seq(n)
        hdist = np.asarray(H.eval(an * X + bn, cn * Y + dn))
        classical = float(np.max(np.abs(n * (1.0 - hdist[pos]) + logg[pos])))
        powered = bifree_power(H, n)
        pv = np.asarray(powered.eval(an * X + bn, cn * Y + dn))
        bifree = float(np.max(np.abs(pv - fvals)))
        rows.append((n, "classical", classical))
        rows.append((n, "bifree", bifree))
    return DoAReport(tuple(rows))


def recover_pickands(C, ts, level=0.5):
    """Read the dependence function back off a ratio-form copula.

    Along the segment 2 - u - v = level the denominator satisfies
    f = 1 - level + level * A(t) with t = (1 - u)/level, so
    A(t) = (f - 1 + level)/level.  Unique for extreme-value couplings;
    used for round-trip verification only.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    ts = _as_float_array(ts)
    u = 1.0 - ts * level
    v = 1.0 - (1.0 - ts) * level
    f = np.asarray(C.f_eval(u, v))
    return (f - 1.0 + level) / level
