"""Inputs that used to pass unchecked or crash: NaN Pickands functions, grid
DFs above their marginals, an empty, fractional or unordered compound-Poisson
ladder and a NaN rate, negative or NaN check tolerances; and the classical
extreme-value law as one EV copula over two marginals."""

import math

import numpy as np
import pytest

from bifreemax import (
    AMHCopula,
    CoupledBDF,
    DiscreteMeasure,
    GridBDF,
    bdf_from_law,
    check_maxid_coupling,
    classical_maxid_check,
    compound_poisson_limit,
    exponential_free_df,
    is_bifree_maxid,
    is_quasi_monotone,
    uniform_df,
)
from bifreemax.cli import main
from bifreemax.copulas import (
    EVCopula,
    FuncPickands,
    check_copula_axioms,
    check_pickands,
    logistic_pickands,
)
from bifreemax.extremes import classical_mev, gev_df


class TestCheckPickandsNaN:
    def test_all_nan_fails(self):
        A = FuncPickands(lambda t: np.full_like(t, np.nan))
        with pytest.raises(AssertionError, match=r"A\(0\) = A\(1\) = 1 fails"):
            check_pickands(A)

    def test_nan_near_one_half_fails(self):
        A = FuncPickands(lambda t: np.where(np.abs(t - 0.5) < 0.01, np.nan,
                                            np.maximum(t, 1.0 - t)))
        with pytest.raises(AssertionError, match="bounds"):
            check_pickands(A)

    @pytest.mark.parametrize("fn,message", [
        (lambda t: np.where(t == 0.0, 0.9, 1.0), "A(0) = A(1) = 1 fails"),
        (lambda t: 1.0 + 0.1 * t * (1.0 - t), "A <= 1 fail"),
        (lambda t: np.maximum(t, 1.0 - t) + 0.1 * np.sin(np.pi * t) ** 8,
         "convexity fails"),
    ])
    def test_finite_violations_keep_their_messages(self, fn, message):
        with pytest.raises(AssertionError) as err:
            check_pickands(FuncPickands(fn))
        assert message in str(err.value)


_LAW = CoupledBDF(AMHCopula(0.5), uniform_df(0.0, 1.0), uniform_df(0.0, 2.0))
_TOL_CHECKS = {
    "coupling-grid": lambda tol: check_maxid_coupling(AMHCopula(0.5), tol=tol),
    "coupling-smooth": lambda tol: check_maxid_coupling(
        AMHCopula(0.5), mode="smooth", tol=tol),
    "bifree-maxid": lambda tol: is_bifree_maxid(_LAW, tol=tol),
    "classical-maxid": lambda tol: classical_maxid_check(_LAW, tol=tol),
    "quasi-monotone": lambda tol: is_quasi_monotone(_LAW, tol=tol),
    "copula-axioms": lambda tol: check_copula_axioms(AMHCopula(0.5), tol=tol),
}


class TestToleranceGuard:
    # a negative tolerance made a check fail on quantities that violate
    # nothing (or, for the classical check, pass), and a NaN one failed
    # every comparison
    @pytest.mark.parametrize("check", sorted(_TOL_CHECKS))
    @pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan])
    def test_negative_or_nan_tolerance_is_refused(self, check, tol):
        with pytest.raises(ValueError, match="^tol must be nonnegative$"):
            _TOL_CHECKS[check](tol)

    @pytest.mark.parametrize("check", sorted(_TOL_CHECKS))
    @pytest.mark.parametrize("tol", [0.0, 1e-9, math.inf])
    def test_nonnegative_tolerance_is_taken(self, check, tol):
        _TOL_CHECKS[check](tol)


class TestValidateMarginalBound:
    def test_surface_above_its_marginals_is_refused(self):
        e = exponential_free_df()
        F = GridBDF(e, e, [0.5, 1.0], [0.5, 1.0], [[0.9, 0.9], [0.9, 0.95]])
        with pytest.raises(ValueError, match=r"exceeds min\(F1, F2\)"):
            F.validate()

    def test_earlier_checks_fire_first(self):
        e = exponential_free_df()
        F = GridBDF(e, e, [0.5, 1.0], [0.5, 1.0], [[0.9, 0.9], [0.8, 0.95]])
        with pytest.raises(ValueError, match="decrease along the x axis"):
            F.validate()

    def test_grid_reaching_the_bound_passes(self):
        # the EV copula equals the other marginal exactly where one is 1
        knots = np.linspace(0.0, 1.0, 11)
        C = CoupledBDF(EVCopula(logistic_pickands(2.0)), uniform_df(),
                       uniform_df())
        G = GridBDF(C.marginal1, C.marginal2, knots, knots,
                    C.eval(knots[:, None], knots[None, :]))
        assert G.validate() is G


class TestCompoundPoissonLadder:
    NU = DiscreteMeasure([[1.0, 1.0]], [1.0])

    def test_empty_ladder_is_refused(self):
        with pytest.raises(ValueError, match="at least one n"):
            compound_poisson_limit(0.5, self.NU, (0.0, 0.0), ns=[])

    @pytest.mark.parametrize("ns", [[2.5], [2, 4.5], [math.inf], [math.nan]])
    def test_a_fractional_n_is_refused_not_truncated(self, ns):
        with pytest.raises(ValueError, match="^every n must be an integer$"):
            compound_poisson_limit(0.5, self.NU, (0.0, 0.0), ns=ns)

    def test_an_integral_float_n_is_an_integer(self):
        _, report = compound_poisson_limit(0.5, self.NU, (0.0, 0.0),
                                           ns=[2.0, np.int64(4)])
        assert report.ns == (2, 4)
        assert all(type(n) is int for n in report.ns)

    @pytest.mark.parametrize("lam", [math.nan, 0.0, -0.5, -math.inf])
    def test_a_nan_or_nonpositive_rate_is_refused(self, lam):
        with pytest.raises(ValueError, match="^rate must be positive$"):
            compound_poisson_limit(lam, self.NU, (0.0, 0.0), ns=[2])

    @pytest.mark.parametrize("ns", [[4, 2], [2, 2], [2, 8, 4]])
    def test_a_ladder_that_does_not_increase_is_refused(self, ns):
        with pytest.raises(ValueError, match="^ns must be strictly increasing$"):
            compound_poisson_limit(0.5, self.NU, (0.0, 0.0), ns=ns)

    def test_the_cli_refuses_a_nan_rate(self, capsys):
        assert main(["experiment", "compound-poisson", "--lam", "nan",
                     "--nu", "dirac:1,1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: rate must be positive\n"


class TestClassicalEVLaw:
    def test_is_the_ev_copula_of_its_marginals(self):
        g = gev_df(xi=1.0, m=1.0, sigma=1.0)
        A = logistic_pickands(2.0)
        G = classical_mev(g, g, A)
        assert isinstance(G, CoupledBDF) and isinstance(G.copula, EVCopula)
        assert G.copula.pickands is A
        assert G.marginal1 is g and G.marginal2 is g

    def test_equals_the_closed_form(self):
        g = gev_df(xi=0.0)
        A = logistic_pickands(2.0)
        xs = np.linspace(-1.0, 4.0, 11)
        l1 = np.log(g.eval(xs))[:, None]
        l2 = np.log(g.eval(xs))[None, :]
        ref = np.exp((l1 + l2) * A.eval(l1 / (l1 + l2)))
        vals = classical_mev(g, g, A).eval(xs[:, None], xs[None, :])
        np.testing.assert_allclose(vals, ref, rtol=1e-13, atol=0.0)


class TestOneRowLattice:
    @pytest.mark.parametrize("points", [[[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]],
                                        [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]])
    def test_step_law_on_one_line_is_maxid(self, points):
        F = bdf_from_law(DiscreteMeasure(points, [0.5, 0.2, 0.3]))
        v = is_bifree_maxid(F)
        assert (v.status, v.reason, v.margin) == ("yes", "ratio checks pass",
                                                  1e-9)
