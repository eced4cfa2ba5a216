"""The default knot range and probe lattice of a non-grid DF, and the paths
of the grid decisions and their helpers that no other test runs.

``distributions._span`` is the one knot-range rule: the CLI spaces its knots
evenly on it, and ``_probe_grid`` puts 61 knots quadratically from the lower
bound to the 0.9 quantile and a sparse tail after them.  The quadratic head
puts the first positive knot of a heavy-tailed marginal near level 0.0015,
so the decision sees the lower-left corner where a Lomax coupling of two
Pareto marginals breaks divisibility.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bifreemax import (
    AMHCopula,
    ClaytonCopula,
    CoupledBDF,
    DiscreteMeasure,
    FGMCopula,
    IndependenceCopula,
    LomaxCopula,
    MeasureBDF,
    bdf_from_law,
    beta_free_df,
    compound_poisson_limit,
    dirac_df,
    exponential_free_df,
    is_bifree_maxid,
    law_from_bdf,
    materialize,
    maxid_verdict,
    pareto_free_df,
    uniform_df,
)
from bifreemax import convolution
from bifreemax.cli import _dyadic, main
from bifreemax.convolution import _ratio_parts
from bifreemax.distributions import _cell_volumes, _probe_grid, _span, _worst
from bifreemax.serialize import load_json

from conftest import random_exponent_measure, random_law_bdf


def _cli_range(m, n):
    """The CLI's knot range as it was written before ``_span``, kept as the
    oracle of the rule."""
    lo = m.quantile_exceed(0.0)
    hi = m.saturation
    if not np.isfinite(hi):
        hi = m.quantile_exceed(0.999)
        hi += 0.25 * max(1.0, abs(hi - lo))
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, n)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


# ---------------------------------------------------------------------------
# the knot range
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [uniform_df(0.0, 2.0), uniform_df(-1.0, 0.5),
                               pareto_free_df(1.5), pareto_free_df(2.0, 3.0),
                               exponential_free_df(1.0, 0.5), dirac_df(1.0),
                               dirac_df(-3.0)],
                         ids=["uniform", "uniform-short", "pareto",
                              "pareto-scaled", "exponential", "dirac",
                              "dirac-negative"])
def test_span_is_the_cli_range(m):
    assert np.array_equal(_bits(np.linspace(*_span(m), 41)),
                          _bits(_cli_range(m, 41)))


def test_span_values():
    assert _span(uniform_df(0.0, 2.0)) == (0.0, 2.0)
    assert _span(dirac_df(1.0)) == (1.0, 2.0)
    lo, hi = _span(pareto_free_df(1.5))
    q = 0.001 ** (-1.0 / 1.5)  # the 0.999 quantile, 100
    assert lo == 1.0
    assert hi == pytest.approx(q + 0.25 * (q - 1.0), rel=1e-9)


def test_cli_point_mass_range(tmp_path, capsys):
    out = tmp_path / "F.json"
    assert main(["--grid", "5", "build", "coupled", "amh:theta=0.5",
                 "dirac:1", "-o", str(out)]) == 0
    F = load_json(out)
    assert np.array_equal(F.xknots, np.linspace(1.0, 2.0, 5))
    assert np.array_equal(F.yknots, np.linspace(1.0, 2.0, 5))


# ---------------------------------------------------------------------------
# the default probe lattice
# ---------------------------------------------------------------------------

def _lattice_shape_holds(m, knots):
    assert knots.shape == (81,)
    assert np.all(np.diff(knots) > 0.0)
    assert knots[0] == m.quantile_exceed(0.0)
    if np.isfinite(m.saturation):
        assert knots[-1] >= m.saturation
    else:
        assert knots[-1] > m.quantile_exceed(0.999)


def test_infinite_saturation_tail_ends_on_the_span():
    m1, m2 = pareto_free_df(1.5), exponential_free_df(0.0, 2.0)
    xs, ys = _probe_grid(CoupledBDF(IndependenceCopula(), m1, m2), None)
    for m, knots in ((m1, xs), (m2, ys)):
        _lattice_shape_holds(m, knots)
        assert knots[-1] == _span(m)[1]
        assert knots[60] == m.quantile_exceed(0.9)


def test_head_is_quadratic_from_the_lower_bound():
    m = pareto_free_df(1.5)
    xs, _ = _probe_grid(CoupledBDF(IndependenceCopula(), m, m), None)
    lo, mid = m.quantile_exceed(0.0), m.quantile_exceed(0.9)
    s = np.linspace(0.0, 1.0, 61)
    assert np.array_equal(xs[:61], lo + (mid - lo) * s ** 2)
    # the first positive knot sits near level 0.0015, not 0.085
    assert 0.0 < m.eval(xs[1]) < 0.002


def test_point_mass_marginal_falls_back_to_half_the_span():
    m = dirac_df(1.0)
    xs, ys = _probe_grid(CoupledBDF(AMHCopula(0.5), m, uniform_df(0, 1)), None)
    _lattice_shape_holds(m, xs)
    assert (xs[0], xs[60], xs[-1]) == (1.0, 1.5, 2.0)
    assert (ys[0], ys[-1]) == (0.0, 1.0)


_marginals = st.one_of(
    st.builds(lambda a, w: uniform_df(a, a + w),
              st.floats(-10, 10), st.floats(0.1, 10)),
    st.builds(exponential_free_df, st.floats(-10, 10), st.floats(0.1, 10)),
    st.builds(pareto_free_df, st.floats(0.3, 5), st.floats(0.1, 10)),
    st.builds(beta_free_df, st.floats(0.3, 5), st.floats(-10, 10),
              st.floats(0.1, 10)),
)


@settings(max_examples=100, deadline=None)
@given(m1=_marginals, m2=_marginals)
def test_default_lattice_covers_the_span(m1, m2):
    xs, ys = _probe_grid(CoupledBDF(IndependenceCopula(), m1, m2), None)
    _lattice_shape_holds(m1, xs)
    _lattice_shape_holds(m2, ys)


# ---------------------------------------------------------------------------
# verdicts on the default lattice
# ---------------------------------------------------------------------------

def test_lomax_coupling_of_pareto_marginals_is_not_maxid():
    F = CoupledBDF(LomaxCopula(2.0, 0.5), pareto_free_df(1.5),
                   pareto_free_df(2.0))
    v = is_bifree_maxid(F)
    assert v.status == "no"
    assert v.witness.check == "ratio-increment-bound-x"
    assert v.witness.quantity > 0.01


def _coupling_table():
    """The 26 couplings of the benchmark's sweep with their membership, as
    the paper decides it."""
    cases = [(AMHCopula(th), 0.0 <= th <= 1.0)
             for th in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    cases += [(FGMCopula(th), 0.0 <= th <= 1.0)
              for th in (-0.5, 0.0, 0.5, 1.0)]
    cases += [(ClaytonCopula(p), p <= 1.0) for p in (0.25, 0.5, 1.0, 1.5, 2.0)]
    cases += [(LomaxCopula(p, th),
               th == 0.0 or (0.0 <= th <= 1.0 and p <= 1.0))
              for p in (0.5, 1.0, 2.0) for th in (-0.5, 0.0, 0.5, 1.0)]
    return cases


_PAIRS = {
    "uniform": (uniform_df(0.0, 1.0), uniform_df(0.0, 2.0)),
    "pareto": (pareto_free_df(1.5), pareto_free_df(2.0)),
    "exponential": (exponential_free_df(1.0), exponential_free_df(2.0)),
    "beta": (beta_free_df(2.0), beta_free_df(3.0)),
}


@pytest.mark.parametrize("pair", sorted(_PAIRS))
def test_default_lattice_verdicts_agree_with_the_coupling_table(pair):
    m1, m2 = _PAIRS[pair]
    table = _coupling_table()
    assert len(table) == 26
    wrong = [(C.family, C.params, v.status)
             for C, want in table
             for v in [is_bifree_maxid(CoupledBDF(C, m1, m2))]
             if (v.status == "yes") != want]
    assert wrong == []


# ---------------------------------------------------------------------------
# the decision reads its lattice once
# ---------------------------------------------------------------------------

def _worst_by_ratio_parts(F, xs, ys):
    """The five ratio checks of the decision, read through ``_ratio_parts``
    on the positive probes: the dense oracle of the one-read path."""
    xs = xs[np.asarray(F.marginal1.eval(xs)) > 0.0]
    ys = ys[np.asarray(F.marginal2.eval(ys)) > 0.0]
    q, m1, m2 = _ratio_parts(F, xs[:, None], ys[None, :])
    dqx, dqy = np.diff(q, axis=0), np.diff(q, axis=1)
    worst, tag, at = _worst([
        ("ratio-increasing-x", -dqx),
        ("ratio-increment-bound-x", dqx - np.diff(m1, axis=0)),
        ("ratio-increasing-y", -dqy),
        ("ratio-increment-bound-y", dqy - np.diff(m2, axis=1)),
        ("ratio-volume", _cell_volumes(q)),
    ])
    return worst, tag


def _decisions(seed):
    rng = np.random.default_rng(seed)
    yield random_law_bdf(rng, k=int(rng.integers(2, 9))), None
    M = MeasureBDF(random_exponent_measure(rng, k=int(rng.integers(2, 9))),
                   (0.0, 0.0))
    yield materialize(M, M.marginal1.knots, M.marginal2.knots), None
    C = CoupledBDF(AMHCopula(float(rng.uniform(-1, 1))), uniform_df(0, 1),
                   pareto_free_df(float(rng.uniform(0.8, 2.5))))
    yield C, (np.linspace(0.0, 1.0, 31), np.linspace(0.5, 6.0, 37))
    yield C, None


@pytest.mark.parametrize("seed", range(12))
def test_one_ratio_read_gives_the_verdict_of_ratio_parts(seed, monkeypatch):
    checked = 0
    for F, grid in _decisions(seed):
        calls = []
        q_eval = F.q_eval

        def spy(x1, x2):
            calls.append(np.broadcast_shapes(np.shape(x1), np.shape(x2)))
            return q_eval(x1, x2)

        monkeypatch.setattr(F, "q_eval", spy)
        monkeypatch.setattr(convolution, "_ratio_parts", None)
        v = is_bifree_maxid(F, grid=grid)
        monkeypatch.undo()
        if v.witness is not None and v.witness.check == "support-rectangle":
            assert calls == []
            continue
        assert len(calls) == 1
        worst, tag = _worst_by_ratio_parts(F, *_probe_grid(F, grid))
        if tag is None:
            continue
        checked += 1
        assert _bits(v.margin) == _bits(1e-9 - worst)
        if v.status == "no":
            assert v.witness.check == tag
            assert _bits(v.witness.quantity) == _bits(worst)
    assert checked >= 2


# ---------------------------------------------------------------------------
# law_from_bdf and the compound-Poisson ladder
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_law_from_bdf_masses_are_the_cell_volumes(seed):
    F = random_law_bdf(np.random.default_rng(seed), k=7)
    law = law_from_bdf(F)
    vols = _cell_volumes(F._table)
    assert np.array_equal(_bits(law.masses), _bits(vols[vols > 0]))
    back = bdf_from_law(law)
    assert np.max(np.abs(back.values - F.values)) <= 1e-15


_NU = DiscreteMeasure([[1.0, 2.0], [2.0, 1.0], [2.5, 2.5]], [0.25, 0.25, 0.5])


@pytest.mark.parametrize("kwargs, message", [
    (dict(lam=0.0), "rate must be positive"),
    (dict(lam=-1.0), "rate must be positive"),
    (dict(nu=DiscreteMeasure([[1.0, 1.0]], [0.5])), "total mass 1"),
    (dict(lam=3.0, ns=[2, 4]), "n >= lam"),
    (dict(ns=[]), "at least one n"),
])
def test_compound_poisson_guards(kwargs, message):
    args = dict(lam=0.5, nu=_NU, p=(0.0, 0.0), ns=[2, 4])
    args.update(kwargs)
    with pytest.raises(ValueError, match=message):
        compound_poisson_limit(args["lam"], args["nu"], args["p"],
                               ns=args["ns"])


def test_compound_poisson_limit_of_a_grid_law_and_the_default_ladder():
    limit, report = compound_poisson_limit(1.5, bdf_from_law(_NU), (0.0, 0.0))
    ref_limit, ref = compound_poisson_limit(1.5, _NU, (0.0, 0.0))
    assert report.ns == tuple(2 ** k for k in range(1, 11))
    assert ref.ns == report.ns
    assert np.allclose(report.distances, ref.distances, rtol=0, atol=1e-12)
    probe = np.linspace(-0.5, 3.5, 17)
    assert np.max(np.abs(limit.eval(probe[:, None], probe[None, :])
                         - ref_limit.eval(probe[:, None], probe[None, :]))) \
        <= 1e-12
    assert report.eventually_decreasing()


# ---------------------------------------------------------------------------
# CLI and Gaussian paths
# ---------------------------------------------------------------------------

def test_dyadic_ends_on_a_non_power_of_two():
    assert _dyadic(12) == [2, 4, 8, 12]
    assert _dyadic(8) == [2, 4, 8]
    assert _dyadic(1) == [1]


def test_doa_copula_ladder_ends_on_n(tmp_path, capsys):
    out = tmp_path / "doa.csv"
    assert main(["experiment", "doa-copula", "amh:theta=1", "--pickands",
                 "one", "--n", "12", "--probe", "5", "-o", str(out)]) == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert [int(r.split(",")[0]) for r in rows] == [2, 4, 8, 12]


def test_gaussian_identity_writes_its_rows(tmp_path, capsys):
    out = tmp_path / "id.json"
    assert main(["gaussian", "identity", "0.5", "--xs=-1,0.5",
                 "-o", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    written = json.loads(out.read_text())
    assert written["c"] == 0.5
    assert [r["x"] for r in written["rows"]] == [-1.0, 0.5]
    assert written["rows"] == printed["rows"]


@pytest.mark.parametrize("c", [1.5, -1.01, 2.0])
def test_maxid_verdict_refuses_a_correlation_outside_the_square(c):
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        maxid_verdict(c)
