"""The lattice decisions hold one check-block at a time, and two cheaper
set-ups of the grid decisions.

``check_maxid_coupling`` and ``is_bifree_maxid`` hand ``_worst`` generators
that make each block, let it be reduced and drop it before the next.  The
list-based versions they replace are kept here as oracles: every verdict
must come out ``repr``-identical.  A tracemalloc bound pins the fewer live
lattices.  ``_probe_grid`` finds each marginal's span and 0.9 quantile with
one vector ``quantile_exceed`` call, ``GridUDF`` and ``GridBDF`` validate with
a few reductions, and ``BiFreeCopula`` hands its clipped Pickands argument
straight to the Pickands closure; each is compared with the code it
replaces.
"""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bifreemax import (
    AMHCopula,
    BiFreeCopula,
    ClaytonCopula,
    ComonotoneCopula,
    CoupledBDF,
    DiscreteMeasure,
    FGMCopula,
    GridBDF,
    GridCopula,
    GridUDF,
    GumbelMixedCopula,
    IndependenceCopula,
    LogisticCopula,
    LomaxCopula,
    SupportError,
    SurvivalCopula,
    bdf_from_law,
    check_maxid_coupling,
    classical_maxid_check,
    dirac_df,
    exponential_free_df,
    from_exponent_measure,
    is_bifree_maxid,
    marshall_olkin_pickands,
    pareto_free_df,
    pickands_from_measure,
    power_transform,
    uniform_df,
)
from bifreemax.convolution import MaxIdVerdict, MaxIdWitness
from bifreemax.copulas import CouplingVerdict, CouplingWitness, _FFormCopula
from bifreemax.distributions import (
    _PROBE_KNOTS,
    _as_float_array,
    _cell_volumes,
    _probe_grid,
    _ratio,
    _worst,
)

from conftest import random_exponent_measure, random_law_bdf
from test_quantile_replay import FAMILIES


# ---------------------------------------------------------------------------
# oracles: the list-based decisions and the scalar-quantile lattice
# ---------------------------------------------------------------------------

def oracle_check_maxid_coupling(C, mode="grid", tol=1e-9, grid_n=101):
    """``check_maxid_coupling`` with every block built before the sweep."""
    if mode not in ("grid", "smooth"):
        raise ValueError("mode must be 'grid' or 'smooth'")
    if mode == "smooth" and not C.smooth:
        raise ValueError(
            f"family {C.family!r} has non-smooth spots; use grid mode")
    if grid_n < 3:
        raise ValueError(f"grid_n must be at least 3, got {grid_n}")
    us = np.linspace(0.0, 1.0, grid_n)[1:]
    U, V = us[:, None], us[None, :]
    cvals = np.asarray(C.eval(U, V))
    if np.any(cvals <= 0.0):
        raise SupportError("copula must be strictly positive on (0, 1]^2")
    f = np.asarray(C.f_eval(U, V))
    boundary = [
        (("boundary", (us, us[-1:])), np.abs(f[:, -1:] - 1.0)),
        (("boundary", (us[-1:], us)), np.abs(f[-1:, :] - 1.0)),
    ]
    quantities = []
    if mode == "grid":
        gu = f - U
        gv = f - V
        quantities += [
            (("monotone-difference-u", (us[1:], us)), np.diff(gu, axis=0)),
            (("monotone-difference-v", (us, us[1:])), np.diff(gv, axis=1)),
            (("volume", (us[:-1], us[:-1])), _cell_volumes(f)),
        ]
        threshold = tol
    else:
        h = 1e-5
        ps = np.clip(np.linspace(0.0, 1.0, grid_n), 2 * h, 1.0 - h)
        ps = np.unique(ps)
        P, Q = ps[:, None], ps[None, :]
        fe = C.f_eval
        # two infinite probes differ by NaN, which _worst fails, as in
        # the library
        with np.errstate(invalid="ignore"):
            fu = (fe(P + h, Q) - fe(P - h, Q)) / (2 * h)
            fv = (fe(P, Q + h) - fe(P, Q - h)) / (2 * h)
            fuv = (fe(P + h, Q + h) - fe(P + h, Q - h)
                   - fe(P - h, Q + h) + fe(P - h, Q - h)) / (4 * h * h)
        quantities += [
            (("df/du lower", (ps, ps)), -fu),
            (("df/du upper", (ps, ps)), fu - 1.0),
            (("df/dv lower", (ps, ps)), -fv),
            (("df/dv upper", (ps, ps)), fv - 1.0),
            (("mixed partial", (ps, ps)), fuv),
        ]
        threshold = max(tol, 1e-7)
    bound_q, bound_tag, bound_at = _worst(boundary)
    worst_q, tag, at = _worst(quantities)
    member = worst_q <= threshold and bound_q <= tol
    witness = None
    if not member:
        _, (q, (name, axes), at), _ = _worst([
            ((worst_q, tag, at), [worst_q - threshold]),
            ((bound_q, bound_tag, bound_at), [bound_q - tol])])
        witness = CouplingWitness(
            name, tuple(float(a[i]) for a, i in zip(axes, at)), q)
    return CouplingVerdict(member=member, mode=mode,
                           min_margin=float(threshold - worst_q),
                           witness=witness)


def oracle_is_bifree_maxid(F, tol=1e-9, grid=None):
    """``is_bifree_maxid`` with every Q block built before the sweep."""
    for m, name in ((F.marginal1, "x"), (F.marginal2, "y")):
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
    xs, ys, m1, m2 = xs[p1], ys[p2], m1[p1][:, None], m2[p2][None, :]
    q = np.asarray(F.q_eval(xs[:, None], ys[None, :]))
    dqx = np.diff(q, axis=0)
    dqy = np.diff(q, axis=1)
    worst, tag, at = _worst([
        (("ratio-increasing-x", (1, 0)), -dqx),
        (("ratio-increment-bound-x", (1, 0)), dqx - np.diff(m1, axis=0)),
        (("ratio-increasing-y", (0, 1)), -dqy),
        (("ratio-increment-bound-y", (0, 1)), dqy - np.diff(m2, axis=1)),
        (("ratio-volume", (1, 1)), _cell_volumes(q)),
    ])
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


def oracle_probe_grid(F, grid):
    """``_probe_grid`` with one scalar ``quantile_exceed`` call per level and
    marginal."""
    if grid is not None:
        return _as_float_array(grid[0]), _as_float_array(grid[1])
    if isinstance(F, GridBDF):
        return F.xknots, F.yknots
    knots = []
    for m in (F.marginal1, F.marginal2):
        lo = m.quantile_exceed(0.0)
        hi = m.saturation
        if not np.isfinite(hi):
            hi = m.quantile_exceed(0.999)
            hi += 0.25 * max(1.0, abs(hi - lo))
        if hi <= lo:
            hi = lo + 1.0
        mid = m.quantile_exceed(0.9)
        if mid <= lo:
            mid = lo + 0.5 * max(hi - lo, 1.0)
        if hi <= mid:
            hi = mid + max(1.0, mid - lo)
        s = np.linspace(0.0, 1.0, _PROBE_KNOTS - _PROBE_KNOTS // 4)
        head = lo + (mid - lo) * s ** 2
        tail = np.linspace(mid, hi, _PROBE_KNOTS // 4 + 1)[1:]
        knots.append(np.concatenate([head, tail]))
    return knots[0], knots[1]


def _outcome(fn, *args, **kwargs):
    try:
        return repr(fn(*args, **kwargs))
    except (ValueError, SupportError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


# ---------------------------------------------------------------------------
# the coupling decision
# ---------------------------------------------------------------------------

# the 26 points of the parameter-boundary table of the acceptance suite
TABLE = ([AMHCopula(th) for th in (-1.0, -0.5, 0.0, 0.5, 1.0)]
         + [FGMCopula(th) for th in (-0.5, 0.0, 0.5, 1.0)]
         + [ClaytonCopula(p) for p in (0.25, 0.5, 1.0, 1.5, 2.0)]
         + [LomaxCopula(p, th) for p in (0.5, 1.0, 2.0)
            for th in (-0.5, 0.0, 0.5, 1.0)])
COPULAS = TABLE + [
    GumbelMixedCopula(0.0), GumbelMixedCopula(0.3), GumbelMixedCopula(1.0),
    LogisticCopula(1.0), LogisticCopula(1.5), LogisticCopula(3.0),
    # kinked, so smooth mode refuses them
    BiFreeCopula(marshall_olkin_pickands(0.3, 0.6)), ComonotoneCopula(),
    # not of ratio form; the generic denominator
    SurvivalCopula(AMHCopula(0.5)),
    # the checkerboard of the lower Frechet bound, zero near the origin: a
    # SupportError
    GridCopula([0.0, 0.5, 1.0], [0.0, 0.5, 1.0],
               [[0.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.5, 1.0]]),
    power_transform(AMHCopula(0.5), 0.5),
    power_transform(LomaxCopula(2.0, 0.5), 0.3),
]


def _copula_id(C):
    return f"{C.family}-{sorted(C.params.items())}"


@pytest.mark.parametrize("C", COPULAS, ids=[_copula_id(C) for C in COPULAS])
@pytest.mark.parametrize("mode", ["grid", "smooth"])
def test_coupling_verdicts_match_the_list_oracle(C, mode):
    for n in (3, 12, 41, 101):
        assert _outcome(check_maxid_coupling, C, mode=mode, grid_n=n) == \
            _outcome(oracle_check_maxid_coupling, C, mode=mode, grid_n=n)


def test_the_oracle_cases_reach_every_outcome():
    outcomes = {_outcome(check_maxid_coupling, C, mode=mode)
                for C in COPULAS for mode in ("grid", "smooth")}
    assert any(o.startswith("SupportError") for o in outcomes)
    assert any(o.startswith("ValueError") for o in outcomes)
    assert any("member=True" in o for o in outcomes)
    assert any("member=False" in o and "witness=CouplingWitness" in o
               for o in outcomes)


class _NaNDenominator(_FFormCopula):
    """A smooth ratio family whose denominator is NaN on one probe row."""

    family = "nan-row"
    smooth = True

    def _f(self, u, v):
        out = 1.0 - 0.5 * (1.0 - u) * (1.0 - v)
        return np.where(np.abs(u - 0.5) < 0.02, np.nan, out)


@pytest.mark.parametrize("mode", ["grid", "smooth"])
def test_a_nan_block_is_the_witness_in_both(mode):
    C = _NaNDenominator()
    got = check_maxid_coupling(C, mode=mode)
    assert not got.member and math.isnan(got.min_margin)
    assert repr(got) == repr(oracle_check_maxid_coupling(C, mode=mode))


@pytest.mark.parametrize("C", [AMHCopula(0.5), LomaxCopula(2.0, 0.5),
                               GumbelMixedCopula(0.7), LogisticCopula(2.0)],
                         ids=_copula_id)
def test_copula_values_keep_their_bits(C):
    # the ratio written over f equals the fresh division, on a lattice, on
    # compact axes, on a full-shape query and at a point
    g = np.linspace(0.0, 1.0, 37)
    for u, v in ((g[:, None], g[None, :]), (g, g[::-1]),
                 (np.broadcast_to(g[:, None], (37, 37)).copy(),
                  np.broadcast_to(g[None, :], (37, 37)).copy())):
        u0, v0 = u.copy(), v.copy()
        f = np.asarray(C._f(u, v))
        prod = u * v
        with np.errstate(divide="ignore", invalid="ignore"):
            want = np.where(f > 0, prod / np.where(f > 0, f, 1.0), prod)
        want = np.where(prod <= 0.0, 0.0, want)
        assert np.array_equal(_bits(C.eval(u, v)), _bits(want))
        # the queries are not written over
        assert np.array_equal(_bits(u), _bits(u0))
        assert np.array_equal(_bits(v), _bits(v0))
    assert C.eval(0.3, 0.7) == float(0.21 / C._f(np.float64(0.3),
                                                   np.float64(0.7)))


def test_a_shared_denominator_is_not_written_over():
    # a read-only or broadcast f must take the fresh path
    table = np.full((5, 5), 1.25)
    table.flags.writeable = False

    class Shared(_FFormCopula):
        family = "shared"

        def _f(self, u, v):
            return table if np.shape(u * v) == (5, 5) else \
                np.broadcast_to(1.25, np.shape(u * v))

    g = np.linspace(0.0, 1.0, 5)
    C = Shared()
    got = C.eval(g[:, None], g[None, :])
    assert np.array_equal(got, np.outer(g, g) / 1.25)
    assert np.all(table == 1.25)
    assert np.array_equal(C.eval(g, g), g * g / 1.25)


# ---------------------------------------------------------------------------
# the law decision
# ---------------------------------------------------------------------------

def _laws():
    rng = np.random.default_rng(11)
    pareto = pareto_free_df(1.2)
    laws = {
        "amh-uniform": CoupledBDF(AMHCopula(0.5), uniform_df(0.0, 1.0),
                                  uniform_df(0.0, 2.0)),
        "gumbel-pareto": CoupledBDF(GumbelMixedCopula(0.6), pareto_free_df(1.5),
                                    pareto_free_df(2.0)),
        "logistic-shared": CoupledBDF(LogisticCopula(2.0), pareto, pareto),
        # "no": the ratio increments break their bound near the corner
        "lomax-pareto": CoupledBDF(LomaxCopula(2.0, 0.5), pareto_free_df(1.5),
                                   pareto_free_df(2.0)),
        "amh-negative": CoupledBDF(AMHCopula(-0.5), uniform_df(0.0, 1.0),
                                   exponential_free_df(0.0, 1.0)),
        "exponent-measure": from_exponent_measure(
            random_exponent_measure(rng, 4), (0.0, 0.0)),
        "grid": random_law_bdf(rng, 5),
        # "inconclusive": {F > 0} is not a rectangle
        "antidiagonal": bdf_from_law(DiscreteMeasure(
            np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.5, 0.5]))),
        "point-mass": bdf_from_law(DiscreteMeasure(np.array([[1.0, 1.0]]),
                                                   np.array([1.0]))),
        # "no" at once: unbounded below
        "unbounded": CoupledBDF(IndependenceCopula(), FAMILIES["gev-0"],
                                uniform_df(0.0, 1.0)),
    }
    return laws


LAWS = _laws()
GRIDS = {
    "default": None,
    "coarse": (np.linspace(-0.5, 3.0, 17), np.linspace(-0.5, 3.0, 9)),
    "one-point": (np.array([0.0, 1.0]), np.array([0.0, 1.0])),
    "one-row": (np.array([0.5, 1.5]), np.array([2.5, 3.5])),
}


@pytest.mark.parametrize("name", sorted(LAWS))
@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_law_verdicts_match_the_list_oracle(name, grid):
    F, g = LAWS[name], GRIDS[grid]
    assert _outcome(is_bifree_maxid, F, grid=g) == \
        _outcome(oracle_is_bifree_maxid, F, grid=g)


@pytest.mark.parametrize("name", sorted(LAWS))
def test_classical_verdicts_on_the_scalar_quantile_lattice(name):
    F = LAWS[name]
    lattice = _outcome(oracle_probe_grid, F, None)
    if lattice.startswith("ValueError"):
        assert _outcome(classical_maxid_check, F) == lattice
    else:
        assert _outcome(classical_maxid_check, F) == _outcome(
            classical_maxid_check, F, grid=oracle_probe_grid(F, None))


def test_the_law_cases_reach_every_status():
    statuses = {is_bifree_maxid(F, grid=g).status
                for F in LAWS.values() for g in GRIDS.values()}
    assert statuses == {"yes", "no", "inconclusive"}


# ---------------------------------------------------------------------------
# _worst over any iterable
# ---------------------------------------------------------------------------

entry = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.0]),
                  st.floats(-3.0, 3.0), st.just(math.nan))
block = st.lists(entry, max_size=6).flatmap(
    lambda xs: st.sampled_from([(len(xs),), (1, len(xs)), (len(xs), 1)]).map(
        lambda shape: np.array(xs, dtype=np.float64).reshape(shape)))


def _brute_worst(blocks):
    """The first NaN, else the first largest entry, in block order."""
    best = (-math.inf, None, None)
    for tag, arr in blocks:
        for at in np.ndindex(arr.shape):
            value = float(arr[at])
            if math.isnan(value):
                return value, tag, at
            if value > best[0]:
                best = (value, tag, at)
    return best


@settings(max_examples=200, deadline=None)
@given(st.lists(block, max_size=5))
def test_worst_streams_as_it_sweeps_a_list(arrays):
    blocks = [(k, a) for k, a in enumerate(arrays)]
    want = repr(_brute_worst(blocks))
    assert repr(_worst(iter(blocks))) == want
    assert repr(_worst(list(blocks))) == want
    assert repr(_worst((k, a) for k, a in blocks)) == want


def test_worst_of_nothing_and_of_empty_blocks():
    assert _worst(iter([])) == (-np.inf, None, None)
    assert _worst(iter([("a", np.empty(0)), ("b", np.empty((3, 0)))])) == \
        (-np.inf, None, None)


def test_worst_ties_go_to_the_first_block():
    blocks = [("a", np.array([0.0, 2.0])), ("b", np.array([[2.0], [2.0]]))]
    assert _worst(iter(blocks)) == (2.0, "a", (1,))


def test_worst_drops_each_block_before_asking_for_the_next():
    made = []

    def blocks():
        for k in range(4):
            if made:
                gc.collect()
                assert made[-1]() is None, f"block {k - 1} still alive"
            arr = np.full((8, 8), float(k))
            made.append(weakref.ref(arr))
            yield k, arr
            del arr

    assert _worst(blocks()) == (3.0, 3, (0, 0))
    assert len(made) == 4


def test_worst_stops_at_a_nan():
    asked = []

    def blocks():
        for k, arr in enumerate([np.zeros(3), np.array([1.0, np.nan]),
                                 np.ones(2)]):
            asked.append(k)
            yield k, arr

    value, tag, at = _worst(blocks())
    assert math.isnan(value) and (tag, at) == (1, (1,))
    assert asked == [0, 1]


# ---------------------------------------------------------------------------
# live lattices: a tracemalloc bound the list-based sweeps break
# ---------------------------------------------------------------------------

def _peak_bytes(fn):
    fn()  # caches and lazy set-up
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


LATTICE_101 = 101 * 101 * 8
LATTICE_81 = _PROBE_KNOTS * _PROBE_KNOTS * 8


@pytest.mark.parametrize("C", [AMHCopula(0.5), FGMCopula(-0.5),
                               ClaytonCopula(1.5), LomaxCopula(2.0, 0.5)],
                         ids=_copula_id)
@pytest.mark.parametrize("mode", ["grid", "smooth"])
def test_coupling_check_holds_few_lattices(C, mode):
    # the list-based sweep peaks at 8.6 to 9.1 lattices on the families of
    # the table, the streamed one at 4.6 to 5.8
    peak = _peak_bytes(lambda: check_maxid_coupling(C, mode=mode))
    assert peak <= 7 * LATTICE_101, peak / LATTICE_101


@pytest.mark.parametrize("name", ["amh-uniform", "gumbel-pareto"])
def test_law_decision_holds_few_lattices(name):
    # the list-based decision peaks at 11 lattices; the streamed one at 5
    # (AMH) and 7.2 (Gumbel mixed, whose denominator alone takes 7)
    F = LAWS[name]
    peak = _peak_bytes(lambda: is_bifree_maxid(F))
    assert peak <= 8 * LATTICE_81, peak / LATTICE_81


def oracle_bifree_f(C, u, v):
    """``BiFreeCopula._f`` through ``PickandsFn.eval``, whose range check and
    clip copy repeat the clip of the argument."""
    den = 2.0 - u - v
    t = np.clip(_ratio(1.0 - u, den, den > 0.0, 0.5), 0.0, 1.0)
    return -1.0 + u + v + den * np.asarray(C.pickands.eval(t))


BIFREE = [GumbelMixedCopula(0.6), LogisticCopula(2.0)]


@pytest.mark.parametrize("C", BIFREE, ids=_copula_id)
def test_bifree_denominator_holds_few_lattices(C):
    # through PickandsFn.eval the denominator peaked at 7 lattices
    us = np.linspace(0.0, 1.0, 101)
    peak = _peak_bytes(lambda: C.f_eval(us[:, None], us[None, :]))
    assert peak <= 6.5 * LATTICE_101, peak / LATTICE_101


@pytest.mark.parametrize("C", BIFREE + [
    BiFreeCopula(marshall_olkin_pickands(0.3, 0.8)),
    BiFreeCopula(pickands_from_measure(DiscreteMeasure(
        [[0.25, 0.75], [0.75, 0.25]], [1.0, 1.0])))], ids=_copula_id)
def test_bifree_denominator_bits(C):
    us = np.concatenate(([0.0, 1e-300, 0.5 - 1e-17, 1.0 - 1e-16, 1.0, math.nan],
                         np.linspace(0.0, 1.0, 41)))
    u, v = us[:, None], us[None, :]
    assert np.array_equal(C.f_eval(u, v), oracle_bifree_f(C, u, v),
                          equal_nan=True)
    for a, b in [(0.3, 0.7), (1.0, 1.0), (0.0, 0.25), (math.nan, 0.5)]:
        got = C.f_eval(a, b)
        ref = float(oracle_bifree_f(C, np.asarray(a), np.asarray(b)))
        assert isinstance(got, float) and repr(got) == repr(ref)


# ---------------------------------------------------------------------------
# the default probe lattice: one vector quantile call per marginal
# ---------------------------------------------------------------------------

NAMES = sorted(FAMILIES)


@pytest.mark.parametrize("name", NAMES)
def test_probe_grid_floats_are_the_scalar_calls(name):
    m = FAMILIES[name]
    other = FAMILIES[NAMES[(NAMES.index(name) + 1) % len(NAMES)]]
    for F in (CoupledBDF(IndependenceCopula(), m, other),
              CoupledBDF(IndependenceCopula(), m, m)):
        got = _outcome(lambda: [_bits(a).tolist() for a in _probe_grid(F, None)])
        want = _outcome(lambda: [_bits(a).tolist()
                                 for a in oracle_probe_grid(F, None)])
        assert got == want


def test_probe_grid_of_bounded_and_point_marginals():
    for m1, m2 in ((uniform_df(0.0, 2.0), dirac_df(1.0)),
                   (dirac_df(-3.0), exponential_free_df(1.0, 0.5)),
                   (GridUDF([0.0, 1.0, 2.0], [0.0, 0.5, 1.0]),
                    pareto_free_df(2.0, 3.0))):
        F = CoupledBDF(AMHCopula(0.5), m1, m2)
        for got, want in zip(_probe_grid(F, None), oracle_probe_grid(F, None)):
            assert np.array_equal(_bits(got), _bits(want))


def _counting(m):
    calls = [0]
    inner = m.eval

    def counted(x):
        calls[0] += 1
        return inner(x)

    m.eval = counted
    return calls


def test_probe_grid_takes_one_quantile_replay_per_marginal():
    m1, m2 = pareto_free_df(1.5), pareto_free_df(2.0)
    c1, c2 = _counting(m1), _counting(m2)
    xs, ys = _probe_grid(CoupledBDF(AMHCopula(0.5), m1, m2), None)
    # 15 calls each with three scalar calls
    assert (c1[0], c2[0]) == (7, 7)
    # a bounded marginal needs no 0.999 quantile: 8 calls as scalar calls
    m1, m2 = uniform_df(0.0, 1.3), uniform_df(0.0, 0.7)
    c1, c2 = _counting(m1), _counting(m2)
    _probe_grid(CoupledBDF(AMHCopula(0.5), m1, m2), None)
    assert (c1[0], c2[0]) == (7, 7)


# ---------------------------------------------------------------------------
# GridUDF validation
# ---------------------------------------------------------------------------

def oracle_grid_udf(knots, values):
    """The validation and default bounds of ``GridUDF`` as the wrappers
    wrote them: an error message, or (support_lower, saturation)."""
    knots = np.atleast_1d(_as_float_array(knots))
    values = np.atleast_1d(_as_float_array(values))
    if knots.ndim != 1 or knots.shape != values.shape:
        return "knots and values must be 1-D arrays of equal length"
    if knots.size == 0:
        return "grid DF needs at least one knot"
    if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(values))):
        return "knots and values must be finite"
    if np.any(np.diff(knots) <= 0):
        return "knots must be strictly increasing"
    if np.any(values < -1e-12) or np.any(values > 1.0 + 1e-12):
        return "values must lie in [0, 1]"
    if np.any(np.diff(values) < -1e-12):
        return "values must be nondecreasing along knots"
    values = np.clip(values, 0.0, 1.0)
    pos = np.nonzero(values > 0.0)[0]
    sat = np.nonzero(values >= 1.0)[0]
    return (float(knots[pos[0]]) if pos.size else math.inf,
            float(knots[sat[0]]) if sat.size else math.inf)


def _grid_udf_outcome(knots, values):
    try:
        F = GridUDF(knots, values)
    except ValueError as exc:
        return str(exc)
    return F.support_lower, F.saturation


special = st.sampled_from([0.0, 1.0, -1e-12, 1.0 + 1e-12, -1e-11,
                           1.0 + 1e-11, 0.5, math.nan, math.inf, -math.inf])
value = st.one_of(special, st.floats(-0.1, 1.1))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.lists(st.one_of(st.sampled_from([0.0, 1.0, math.nan, math.inf]),
                       st.floats(-5.0, 5.0)), min_size=n, max_size=n),
    st.lists(value, min_size=n, max_size=n),
    st.booleans())))
def test_grid_udf_checks_match_the_oracle(case):
    knots, values, sort = case
    if sort:
        # mostly well-formed inputs, so the later checks and the default
        # bounds are reached
        knots = sorted(knots)
        values = sorted(values)
    assert repr(_grid_udf_outcome(knots, values)) == \
        repr(oracle_grid_udf(knots, values))


@pytest.mark.parametrize("knots, values, message", [
    ([0.0, math.nan], [0.0, 1.0], "knots and values must be finite"),
    ([0.0, 1.0], [0.0, math.inf], "knots and values must be finite"),
    ([-math.inf, 1.0], [0.0, 1.0], "knots and values must be finite"),
    ([0.0, 0.0], [0.0, 1.0], "knots must be strictly increasing"),
    ([1.0, 0.0], [0.0, 1.0], "knots must be strictly increasing"),
    ([0.0, 1.0], [0.0, 1.1], "values must lie in [0, 1]"),
    ([0.0, 1.0], [-0.1, 1.0], "values must lie in [0, 1]"),
    ([0.0, 1.0], [0.5, 0.2], "values must be nondecreasing along knots"),
    ([], [], "grid DF needs at least one knot"),
    ([[0.0]], [[1.0]], "knots and values must be 1-D arrays of equal length"),
])
def test_grid_udf_messages(knots, values, message):
    with pytest.raises(ValueError) as info:
        GridUDF(knots, values)
    assert str(info.value) == message


def test_grid_udf_default_bounds():
    assert _grid_udf_outcome([0.0, 1.0, 2.0], [0.0, 0.5, 1.0]) == (1.0, 2.0)
    assert _grid_udf_outcome([0.0, 1.0, 2.0], [0.0, 0.0, 0.0]) == \
        (math.inf, math.inf)
    assert _grid_udf_outcome([3.0], [1.0]) == (3.0, 3.0)
    # a dip within 1e-12 keeps the first knot that reaches 1
    assert _grid_udf_outcome([0.0, 1.0, 2.0, 3.0],
                             [0.1, 1.0, 1.0 - 1e-13, 1.0]) == (0.0, 1.0)
    F = GridUDF([0.0, 1.0], [0.2, 0.7], support_lower=-1.0, saturation=5.0)
    assert (F.support_lower, F.saturation) == (-1.0, 5.0)


# ---------------------------------------------------------------------------
# GridBDF validation
# ---------------------------------------------------------------------------

def oracle_grid_bdf(xknots, yknots, values):
    """The validation of ``GridBDF`` with ``np.diff``: an error message, or
    None for a grid it accepts."""
    xk = np.atleast_1d(_as_float_array(xknots))
    yk = np.atleast_1d(_as_float_array(yknots))
    values = _as_float_array(values)
    if values.shape != (xk.size, yk.size):
        return "values must have shape (len(xknots), len(yknots))"
    if xk.size == 0 or yk.size == 0:
        return "grid DF needs at least one knot"
    if not all(np.all(np.isfinite(a)) for a in (xk, yk, values)):
        return "knots and values must be finite"
    if np.any(np.diff(xk) <= 0) or np.any(np.diff(yk) <= 0):
        return "knots must be strictly increasing"
    if np.any(values < -1e-12) or np.any(values > 1 + 1e-12):
        return "values must lie in [0, 1]"
    return None


def _grid_bdf_outcome(xknots, yknots, values):
    m = uniform_df()
    try:
        GridBDF(m, m, xknots, yknots, values)
    except ValueError as exc:
        return str(exc)
    return None


# repeated knots, NaN and infinities among plain ones
knot = st.one_of(st.sampled_from([0.0, 1.0, 1.0, math.nan, math.inf,
                                  -math.inf]), st.floats(-5.0, 5.0))


@st.composite
def grid_bdf_cases(draw):
    nx, ny = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    xk = draw(st.lists(knot, min_size=nx, max_size=nx))
    yk = draw(st.lists(knot, min_size=ny, max_size=ny))
    order = draw(st.sampled_from(["sorted", "decreasing", "drawn"]))
    if order == "sorted":
        # mostly well-formed knots, so the later checks are reached; a
        # repeated knot stays repeated
        xk, yk = sorted(xk), sorted(yk)
    elif order == "decreasing":
        xk, yk = sorted(xk, reverse=True), sorted(yk, reverse=True)
    flat = draw(st.lists(value, min_size=nx * ny, max_size=nx * ny))
    values = np.reshape(np.asarray(flat, dtype=np.float64), (nx, ny))
    if draw(st.booleans()):
        values = values.T
    return xk, yk, values


@settings(max_examples=300, deadline=None)
@given(grid_bdf_cases())
def test_grid_bdf_checks_match_the_oracle(case):
    assert _grid_bdf_outcome(*case) == oracle_grid_bdf(*case)


@pytest.mark.parametrize("xknots, yknots, message", [
    ([0.0, 0.0], [0.0, 1.0], "knots must be strictly increasing"),
    ([0.0, 1.0], [1.0, 1.0], "knots must be strictly increasing"),
    ([1.0, 0.0], [0.0, 1.0], "knots must be strictly increasing"),
    ([0.0, 1.0], [2.0, 1.0], "knots must be strictly increasing"),
    ([0.0, math.nan], [0.0, 1.0], "knots and values must be finite"),
    ([0.0, 1.0], [math.nan, math.nan], "knots and values must be finite"),
])
def test_grid_bdf_knot_messages(xknots, yknots, message):
    values = np.full((2, 2), 0.5)
    assert _grid_bdf_outcome(xknots, yknots, values) == message
    assert oracle_grid_bdf(xknots, yknots, values) == message
