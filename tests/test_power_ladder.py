"""One constructor of bivariate powers.

``bifree_power(F, t)`` is the one-step ``_power_ladder``, and
``MeasureBDF.power(t)`` is ``bifree_power`` of a positive t.  On grid,
coupled, exponent-measure and chain DFs, every entry point gives the power
of the per-t rules kept here as the oracle: the same result type, the same
lower bounds and the same value bits on a probe lattice.  A negative or NaN
power is refused by each entry point with its own message.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bifreemax import (
    AMHCopula,
    CoupledBDF,
    DiscreteMeasure,
    IndependenceCopula,
    MeasureBDF,
    bifree_ev,
    bifree_maxconv,
    bifree_power,
    check_max_stable,
    default_normalizers,
    doa_experiment,
    logistic_pickands,
    ones_df,
    pareto_free_df,
    uniform_df,
)
from bifreemax.cli import main
from bifreemax.convolution import PowerBDF, _power_ladder

from conftest import random_exponent_measure, random_law_bdf

POWERS = (0.0, 0.5, 1.0, 2.0, 3.5)


def oracle_power(F, t):
    """The power rules, one t at a time, each lower corner from scalar
    ``quantile_exceed`` calls."""
    t = float(t)
    if t == 0.0:
        return CoupledBDF(IndependenceCopula(), ones_df(), ones_df())
    if t == 1.0:
        return F
    if isinstance(F, MeasureBDF):
        lower = F.lower if t < 1.0 else tuple(
            m.quantile_exceed(1.0 - 1.0 / t) for m in (F.marginal1, F.marginal2))
        return MeasureBDF(F.tau.scaled(t), lower)
    return PowerBDF(F, t)


def _law(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "grid":
        return random_law_bdf(rng, k=int(rng.integers(1, 8)))
    if kind == "coupled":
        m = uniform_df(0.0, float(rng.uniform(0.5, 3.0)))
        shared = bool(rng.integers(2))
        return CoupledBDF(AMHCopula(float(rng.uniform(-1.0, 1.0))), m,
                          m if shared else uniform_df(0.0, 2.0))
    tau = random_exponent_measure(rng, k=int(rng.integers(1, 6)))
    M = MeasureBDF(tau, (0.0, 0.0))
    if kind == "measure":
        return M
    # a lazy chain: a measure law convolved with a coupled law
    return bifree_maxconv(M, _law("coupled", seed + 1))


def _probe(F):
    axes = []
    for m in (F.marginal1, F.marginal2):
        lo = m.support_lower if np.isfinite(m.support_lower) else -1.0
        hi = m.saturation if np.isfinite(m.saturation) else lo + 4.0
        axes.append(np.linspace(lo - 0.5, hi + 0.5, 23))
    return axes[0][:, None], axes[1][None, :]


def _lowers(P):
    corner = P.lower if isinstance(P, MeasureBDF) else None
    return corner, P.marginal1.support_lower, P.marginal2.support_lower


def _assert_same_power(got, want, x, y):
    assert type(got) is type(want)
    assert _lowers(got) == _lowers(want)
    a = np.asarray(got.eval(x, y), dtype=np.float64)
    b = np.asarray(want.eval(x, y), dtype=np.float64)
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["grid", "coupled", "measure", "chain"]),
       seed=st.integers(0, 2 ** 32 - 2),
       order=st.permutations(POWERS))
def test_every_entry_point_builds_the_oracle_power(kind, seed, order):
    F = _law(kind, seed)
    x, y = _probe(F)
    ladder = list(_power_ladder(F, order))
    assert len(ladder) == len(order)
    for t, rung in zip(order, ladder):
        want = oracle_power(F, t)
        _assert_same_power(rung, want, x, y)
        _assert_same_power(bifree_power(F, t), want, x, y)
        _assert_same_power(next(_power_ladder(F, [t])), want, x, y)
        if isinstance(F, MeasureBDF) and t > 0:
            _assert_same_power(F.power(t), want, x, y)


@pytest.mark.parametrize("kind", ["grid", "coupled", "measure", "chain"])
def test_the_identity_and_the_first_power(kind):
    F = _law(kind, 7)
    assert bifree_power(F, 1) is F
    assert next(_power_ladder(F, [1.0])) is F
    one = bifree_power(F, 0)
    assert isinstance(one, CoupledBDF)
    assert np.all(np.asarray(one.eval(*_probe(F))) == 1.0)


def test_a_measure_law_powers_by_scaling_its_measure():
    tau = DiscreteMeasure([[0.5, 1.0], [1.5, 0.25], [2.0, 2.0]],
                          [0.2, 0.3, 0.25])
    M = MeasureBDF(tau, (0.0, 0.0))
    for t in (0.5, 2.0, 3.5):
        P = M.power(t)
        assert isinstance(P, MeasureBDF)
        assert np.array_equal(P.tau.masses, tau.masses * t)
    assert M.power(0.5).lower == (0.0, 0.0)


def test_the_ladder_makes_one_quantile_call_per_marginal():
    calls = []
    m = uniform_df(0.0, 2.0)
    find = m.quantile_exceed

    def spy(level):
        calls.append(level)
        return find(level)

    m.quantile_exceed = spy
    F = CoupledBDF(AMHCopula(0.3), m, m)
    powers = list(_power_ladder(F, [2, 3.5, 1, 7]))
    assert len(calls) == 1
    assert list(calls[0]) == [1.0 - 1.0 / t for t in (2, 3.5, 7)]
    assert powers[2] is F
    assert [P.t for P in powers[:2] + powers[3:]] == [2.0, 3.5, 7.0]


# ---------------------------------------------------------------------------
# refusals
# ---------------------------------------------------------------------------

def _ev_law():
    return bifree_ev(pareto_free_df(1.5), pareto_free_df(1.5),
                     logistic_pickands(2.0))


@pytest.mark.parametrize("t", [-1.0, -1e-300, math.nan])
@pytest.mark.parametrize("kind", ["grid", "coupled", "measure", "chain"])
def test_a_negative_or_nan_power_is_refused(kind, t):
    F = _law(kind, 3)
    with pytest.raises(ValueError, match="^power must be nonnegative$"):
        bifree_power(F, t)
    with pytest.raises(ValueError, match="^power must be nonnegative$"):
        list(_power_ladder(F, [2.0, t]))
    if isinstance(F, MeasureBDF):
        with pytest.raises(ValueError, match="^power must be positive$"):
            F.power(t)


def test_the_ladder_refuses_before_it_builds_a_power():
    ladder = _power_ladder(_law("coupled", 3), [2.0, 0.5, -1.0])
    with pytest.raises(ValueError, match="^power must be nonnegative$"):
        next(ladder)


@pytest.mark.parametrize("ns", [[2, -1], [-3], [5, 1, -2]])
def test_a_negative_n_of_a_stability_ladder_is_refused(ns):
    F = _ev_law()
    seq = default_normalizers(F.marginal1, F.marginal2)
    probe = (np.linspace(1.0, 50.0, 5), np.linspace(0.5, 30.0, 5))
    with pytest.raises(ValueError, match="^power must be nonnegative$"):
        check_max_stable(F, seq, ns, probe)
    with pytest.raises(ValueError, match="^power must be nonnegative$"):
        doa_experiment(F, seq, F, F, ns, probe)


def test_a_nan_n_of_a_stability_ladder_is_refused():
    F = _ev_law()
    seq = default_normalizers(F.marginal1, F.marginal2)
    probe = (np.linspace(1.0, 50.0, 5), np.linspace(0.5, 30.0, 5))
    with pytest.raises(ValueError, match="^cannot convert float NaN to integer$"):
        check_max_stable(F, seq, [2, math.nan], probe)


def test_the_cli_refuses_a_negative_n_of_a_stability_ladder(capsys):
    assert main(["experiment", "max-stable", "logistic:m=2", "--marginal",
                 "pareto:alpha=1", "--ns", "2,-1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: power must be nonnegative\n"
