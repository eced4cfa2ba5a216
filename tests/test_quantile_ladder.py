"""``quantile_exceed`` over a vector of levels, and the power ladders built on
it.

All levels of a vector call walk one replayed bisection, and each entry is
the float of the scalar call at that level.  ``check_max_stable`` and
``doa_experiment`` take the lower bounds of every power n > 1 from one
vector call per marginal; their reports must equal the per-n
``bifree_power`` loop kept here as the oracle.
"""

import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bifreemax import (
    BiFreeCopula,
    CoupledBDF,
    DiscreteMeasure,
    GridUDF,
    bdf_from_law,
    bifree_power,
    check_max_stable,
    doa_experiment,
    free_power,
    from_exponent_measure,
    gumbel_mixed_pickands,
    logistic_pickands,
    pareto_free_df,
    uniform_df,
)
from bifreemax.convolution import PowerBDF
from bifreemax.extremes import (
    NormalizingSequence,
    bifree_ev,
    classical_mev,
    default_normalizers,
    gev_df,
)
from test_quantile_replay import FAMILIES, LADDER, scalar_quantile_exceed


def _scalar_outcomes(F, levels):
    out = []
    for c in levels:
        try:
            out.append(F.quantile_exceed(c))
        except ValueError as exc:
            out.append(("ValueError", str(exc)))
    return out


def assert_vector_matches_scalars(F, levels):
    """The vector call gives the scalar floats bit for bit, or, where a
    scalar call raises, raises the ValueError of one of them."""
    want = _scalar_outcomes(F, levels)
    errors = [w for w in want if isinstance(w, tuple)]
    if errors:
        with pytest.raises(ValueError) as info:
            F.quantile_exceed(np.array(levels))
        assert ("ValueError", str(info.value)) in errors
        return
    got = F.quantile_exceed(np.array(levels, dtype=np.float64))
    assert isinstance(got, np.ndarray) and got.shape == (len(levels),)
    assert np.array_equal(got.view(np.int64),
                          np.array(want, dtype=np.float64).view(np.int64))


# ---------------------------------------------------------------------------
# one replay, the scalar floats
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_ladder_levels_match_the_scalar_calls(name):
    assert_vector_matches_scalars(FAMILIES[name], LADDER + [0.5, 0.9, 0.999])


level = st.one_of(st.sampled_from(LADDER + [0.0]),
                  st.floats(0.0, 1.0, exclude_max=True))


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(FAMILIES)),
       levels=st.lists(level, max_size=6),
       repeat=st.integers(0, 2))
@example(name="gev-1", levels=[], repeat=0)
@example(name="gev-0", levels=[0.5], repeat=0)
@example(name="semicircle", levels=[0.9, 0.1, 0.9, 0.0], repeat=0)
def test_drawn_level_vectors_match_the_scalar_calls(name, levels, repeat):
    # unsorted, with repeats when ``repeat`` copies the head again
    levels = levels + levels[:repeat]
    assert_vector_matches_scalars(FAMILIES[name], levels)


@settings(max_examples=40, deadline=None)
@given(xi=st.floats(-1.0, 2.0), m=st.floats(-2.0, 2.0),
       sigma=st.floats(0.1, 3.0), levels=st.lists(level, max_size=5))
def test_gev_level_vectors_match_the_scalar_calls(xi, m, sigma, levels):
    assert_vector_matches_scalars(gev_df(xi=xi, m=m, sigma=sigma), levels)


@st.composite
def grid_udfs(draw):
    k = draw(st.integers(1, 8))
    knots = np.cumsum(draw(st.lists(st.floats(0.1, 2.0), min_size=k,
                                    max_size=k))) - 1.0
    values = np.sort(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                                   min_size=k, max_size=k)))
    return GridUDF(knots, values)


@settings(max_examples=60, deadline=None)
@given(F=grid_udfs(), levels=st.lists(
    st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75]),
              st.floats(0.0, 1.0, exclude_max=True)), max_size=6))
def test_grid_udf_answers_a_vector_exactly(F, levels):
    assert_vector_matches_scalars(F, levels)
    got = F.quantile_exceed(np.array(levels, dtype=np.float64))
    for c, q in zip(levels, got):
        pos = np.nonzero(F.values > c)[0]
        assert q == (F.knots[pos[0]] if pos.size else F.saturation)


def test_a_grid_value_dip_within_tolerance_keeps_the_first_exceeding_knot():
    F = GridUDF([0.0, 1.0, 2.0], [0.5, 0.5 - 5e-13, 1.0])
    assert F.quantile_exceed(np.array([0.4999999999999, 0.5])).tolist() == \
        [0.0, 2.0]


@pytest.mark.parametrize("F", [FAMILIES["gev-0"], FAMILIES["uniform"],
                               GridUDF([0.0, 1.0], [0.5, 1.0])],
                         ids=["gev-0", "uniform", "grid"])
@pytest.mark.parametrize("bad", [1.0, -0.25, np.nan])
def test_an_out_of_range_level_raises_the_scalar_error(F, bad):
    with pytest.raises(ValueError) as scalar:
        F.quantile_exceed(bad)
    with pytest.raises(ValueError) as vector:
        F.quantile_exceed(np.array([0.5, bad, 0.25]))
    assert str(vector.value) == str(scalar.value)


def test_levels_must_be_one_dimensional():
    with pytest.raises(ValueError, match="1-D"):
        FAMILIES["uniform"].quantile_exceed(np.full((2, 2), 0.5))


def test_a_scalar_level_gives_a_float_and_an_empty_vector_no_call():
    F = gev_df(xi=1.0, m=1.0, sigma=1.0)
    assert type(F.quantile_exceed(0.5)) is float
    assert type(F.quantile_exceed(np.float64(0.5))) is float
    calls = _spy(F)
    got = F.quantile_exceed([])
    assert got.shape == (0,) and calls == []


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_a_point_alone_and_inside_a_k_by_255_vector_evaluate_alike(name):
    """A vector call evaluates the ladders of all walking levels in one
    (k*255,) vector; each point must evaluate as it does alone."""
    F = FAMILIES[name]
    lo = F.support_lower if np.isfinite(F.support_lower) else -50.0
    hi = F.saturation if np.isfinite(F.saturation) else lo + 2000.0
    xs = np.concatenate([np.linspace(lo, hi, 255),
                         lo + np.geomspace(1e-12, 10.0, 255),
                         np.linspace(lo, lo + 1.0, 255)])
    vec = np.asarray(F.eval(xs))
    assert [F.eval(x) for x in xs] == vec.tolist()


def _spy(F):
    calls = []
    ev = F.eval

    def counting(x):
        calls.append(np.size(x))
        return ev(x)

    F.eval = counting
    return calls


def test_ten_levels_of_a_ladder_share_their_eval_calls():
    levels = 1.0 - 2.0 ** -np.arange(1, 11)
    F = gev_df(xi=1.0, m=1.0, sigma=1.0)
    calls = _spy(F)
    got = F.quantile_exceed(levels)
    # the scalar calls take 70 in all, 7 a level
    assert len(calls) <= 10
    G = gev_df(xi=1.0, m=1.0, sigma=1.0)
    assert got.tolist() == [scalar_quantile_exceed(G, c) for c in levels]


# ---------------------------------------------------------------------------
# no cap but the stopping rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("xi, c, gumbel", [
    (1e-200, 0.5, 0.0916282301454),
    (2.225073858507203e-309, 0.0, -1.65339075499),
])
def test_a_tiny_shape_walks_to_its_gumbel_quantile(xi, c, gumbel):
    """From a support edge at -sigma/xi the walk needs 700 to 1070 halvings
    to reach the quantile; its stopping rule ends it, not a cap of 200."""
    G = gev_df(xi=xi, sigma=0.25)
    q = G.quantile_exceed(c)
    assert q == scalar_quantile_exceed(G, c)
    limit = gev_df(xi=0.0, sigma=0.25).quantile_exceed(c)
    assert abs(q - limit) <= 1e-12
    assert limit == pytest.approx(gumbel, abs=1e-11)
    assert G.quantile_exceed(np.array([c, c])).tolist() == [q, q]


def test_a_walk_whose_midpoint_overflows_still_ends_at_the_safety_cap():
    """Node [-1.7e308, -1.6e308] has the midpoint -inf, where F is 0, so the
    walk never narrows; the cap ends it at the scalar bisection's float."""
    F = uniform_df(-1.7e308, -1.6e308)
    assert F.quantile_exceed(0.5) == scalar_quantile_exceed(F, 0.5) == -1.6e308
    assert F.quantile_exceed(np.array([0.5, 0.25])).tolist() == [-1.6e308] * 2


# ---------------------------------------------------------------------------
# power ladders
# ---------------------------------------------------------------------------

def oracle_max_stable(F, seq, ns, X, Y):
    base = np.asarray(F.eval(X, Y))
    rows = []
    for n in map(int, ns):
        an, bn, cn, dn = seq(n)
        vals = np.asarray(bifree_power(F, n).eval(an * X + bn, cn * Y + dn))
        rows.append((n, float(np.max(np.abs(vals - base)))))
    return tuple(rows)


def oracle_doa(H, seq, G, F, ns, X, Y):
    g = np.asarray(G.eval(X, Y))
    pos = g > 0.0
    logg = np.log(np.where(pos, g, 1.0))
    fvals = np.asarray(F.eval(X, Y))
    rows = []
    for n in map(int, ns):
        an, bn, cn, dn = seq(n)
        x, y = an * X + bn, cn * Y + dn
        hdist = np.asarray(H.eval(x, y))
        rows.append((n, "classical",
                     float(np.max(np.abs(n * (1.0 - hdist[pos]) + logg[pos])))))
        pv = np.asarray(bifree_power(H, n).eval(x, y))
        rows.append((n, "bifree", float(np.max(np.abs(pv - fvals)))))
    return tuple(rows)


def _pareto_ev(shared, A):
    m1 = pareto_free_df(1.5)
    return bifree_ev(m1, m1 if shared else pareto_free_df(1.5), A)


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "distinct"])
@pytest.mark.parametrize("ns", [(2, 5, 10), (10, 1, 3, 3, 2), (1,)])
def test_check_max_stable_equals_the_per_n_oracle(shared, ns):
    F = _pareto_ev(shared, logistic_pickands(2.0))
    seq = default_normalizers(F.marginal1, F.marginal2)
    probe = (np.linspace(1.0, 50.0, 17), np.linspace(0.5, 30.0, 13))
    report = check_max_stable(F, seq, ns, probe)
    X, Y = np.meshgrid(*probe, indexing="ij")
    assert report.rows == oracle_max_stable(F, seq, ns, X, Y)


def test_check_max_stable_of_a_measure_law_equals_the_per_n_oracle():
    tau = DiscreteMeasure([[0.5, 1.0], [1.5, 0.25], [2.0, 2.0]],
                          [0.2, 0.3, 0.25])
    F = from_exponent_measure(tau, (0.0, 0.0))
    seq = NormalizingSequence(lambda n: 1.0, lambda n: 0.1 * n,
                              lambda n: 1.0, lambda n: 0.0)
    probe = (np.linspace(-0.5, 3.0, 15), np.linspace(-0.5, 3.0, 11))
    X, Y = np.meshgrid(*probe, indexing="ij")
    for ns in [(2, 3, 7), (1, 4)]:
        report = check_max_stable(F, seq, ns, probe)
        assert report.rows == oracle_max_stable(F, seq, ns, X, Y)


def test_check_max_stable_of_a_grid_law_equals_the_per_n_oracle():
    F = bdf_from_law(DiscreteMeasure([[0.0, 1.0], [1.0, 0.5], [2.0, 2.0]],
                                     [0.3, 0.3, 0.4]))
    seq = NormalizingSequence(lambda n: 1.0, lambda n: 0.0,
                              lambda n: 1.0, lambda n: 0.0)
    probe = (np.linspace(-0.5, 2.5, 13), np.linspace(-0.5, 2.5, 13))
    X, Y = np.meshgrid(*probe, indexing="ij")
    report = check_max_stable(F, seq, (2, 3, 6), probe)
    assert report.rows == oracle_max_stable(F, seq, (2, 3, 6), X, Y)


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "distinct"])
def test_doa_experiment_equals_the_per_n_oracle(shared):
    A = gumbel_mixed_pickands(0.7)
    g = gev_df(xi=1.0, m=1.0, sigma=1.0)
    h2 = g if shared else gev_df(xi=1.0, m=1.0, sigma=1.0)
    H = CoupledBDF(BiFreeCopula(A), g, h2)
    G = classical_mev(g, g, A)
    F = bifree_ev(pareto_free_df(1.0), pareto_free_df(1.0), A)
    seq = default_normalizers(g, g)
    ns = [2 ** j for j in range(1, 11)]
    probe = (np.linspace(0.8, 6, 13),) * 2
    report = doa_experiment(H, seq, G, F, ns, probe)
    X, Y = np.meshgrid(*probe, indexing="ij")
    assert report.rows == oracle_doa(H, seq, G, F, ns, X, Y)


def test_attraction_ladder_finds_its_quantiles_in_one_vector_call():
    A = logistic_pickands(2.0)
    g = gev_df(xi=1.0, m=1.0, sigma=1.0)
    H = CoupledBDF(BiFreeCopula(A), g, g)
    seq = default_normalizers(g, g)
    ns = [2 ** j for j in range(1, 11)]
    probe = (np.linspace(0.8, 6, 13),) * 2
    calls = _spy(g)
    doa_experiment(H, seq, classical_mev(g, g, A),
                   bifree_ev(pareto_free_df(1.0), pareto_free_df(1.0), A),
                   ns, probe)
    # the per-n loop made 202 calls
    assert len(calls) <= 70


@pytest.mark.parametrize("t", [0.5, 2.0, 7.0])
def test_power_shares_the_free_power_of_a_shared_marginal(t):
    m = uniform_df(0.0, 2.0)
    P = PowerBDF(CoupledBDF(BiFreeCopula(logistic_pickands(2.0)), m, m), t)
    assert P.marginal2 is P.marginal1
    Q = PowerBDF(CoupledBDF(BiFreeCopula(logistic_pickands(2.0)), m,
                            uniform_df(0.0, 2.0)), t)
    assert Q.marginal2 is not Q.marginal1
    xs = np.linspace(-0.5, 2.5, 31)
    want = np.asarray(free_power(m, t).eval(xs))
    for marginal in (P.marginal1, Q.marginal1, Q.marginal2):
        assert np.array_equal(np.asarray(marginal.eval(xs)), want)
        assert marginal.support_lower == free_power(m, t).support_lower


@pytest.mark.parametrize("fn", [free_power, bifree_power, PowerBDF])
def test_no_public_parameter_beyond_the_law_and_the_power(fn):
    params = inspect.signature(fn).parameters
    assert [p for p in params if not p.startswith("_")] == \
        (["base", "t"] if fn is PowerBDF else ["F", "t"])
