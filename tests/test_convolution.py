import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bifreemax import (
    AMHCopula,
    ComonotoneCopula,
    CoupledBDF,
    DiscreteMeasure,
    FGMCopula,
    GridUDF,
    IndependenceCopula,
    SupportError,
    bdf_from_law,
    bifree_maxconv,
    bifree_power,
    classical_maxid_check,
    compound_poisson_limit,
    dirac_df,
    eventually_decreasing,
    exponential_free_df,
    free_maxconv,
    free_power,
    from_exponent_measure,
    is_bifree_maxid,
    is_quasi_monotone,
    materialize,
    maxid_from_tail_functional,
    product_ratio,
    sup_distance,
    sup_distance_1d,
    tail_functional,
    uniform_df,
)
from conftest import random_exponent_measure, random_law_bdf


def uniforms(copula):
    return CoupledBDF(copula, uniform_df(0, 1), uniform_df(0, 1))


class TestFreeMaxConv:
    def test_dirac_below_support_is_identity(self):
        f = uniform_df(0, 1)
        h = free_maxconv(f, dirac_df(-3.0))
        xs = np.linspace(-1, 2, 31)
        assert sup_distance_1d(h, f, xs) == 0.0

    def test_uniforms_hand_value(self):
        h = free_maxconv(uniform_df(0, 1), uniform_df(0, 1))
        assert h.eval(0.75) == pytest.approx(0.5)
        assert h.eval(0.5) == 0.0

    def test_exponential_free_stability(self):
        # the n-fold power of the exponential type shifts by log n
        E = exponential_free_df()
        xs = np.linspace(0.01, 8, 50)
        for n in (2, 5, 17):
            p = free_power(E, n)
            assert_allclose(p.eval(xs + math.log(n)), E.eval(xs), atol=1e-12)

    def test_grid_path_merges_knots(self):
        a = GridUDF([0.0, 1.0], [0.4, 1.0])
        b = GridUDF([0.5, 2.0], [0.7, 1.0])
        h = free_maxconv(a, b)
        assert isinstance(h, GridUDF)
        assert_allclose(h.knots, [0.0, 0.5, 1.0, 2.0])
        assert h.eval(1.0) == pytest.approx(0.7)  # 1.0 + 0.7 - 1

    def test_grid_power_is_the_closed_form_on_the_knots(self):
        # 1.02 * (1 - 1/1.02) - 0.02 rounds to 2.4e-17, but the closed form
        # is 0 below its lower bound, where F first exceeds 1 - 1/t: knot 2
        F = GridUDF([0.0, 1.0, 2.0], [0.01, 1.0 - 1.0 / 1.02, 1.0])
        P = free_power(F, 1.02)
        assert isinstance(P, GridUDF)
        assert P.values[1] == 0.0
        assert P.support_lower == 2.0


class TestBifreeMaxConv:
    def test_identity_element(self):
        rng = np.random.default_rng(0)
        F = random_law_bdf(rng)
        D = bdf_from_law(DiscreteMeasure([[-10.0, -10.0]], [1.0]))
        H = bifree_maxconv(F, D)
        assert sup_distance(H, F, (F.xknots, F.yknots)) < 1e-12

    def test_dirac_componentwise_max(self):
        a = bdf_from_law(DiscreteMeasure([[0.0, 2.0]], [1.0]))
        b = bdf_from_law(DiscreteMeasure([[1.0, 1.0]], [1.0]))
        h = bifree_maxconv(a, b)
        # product DFs have unit ratio, so the result is the Dirac at (1, 2)
        target = bdf_from_law(DiscreteMeasure([[1.0, 2.0]], [1.0]))
        probe = (np.array([0.5, 1.0, 1.5]), np.array([0.5, 1.0, 2.0, 2.5]))
        assert sup_distance(h, target, probe) == 0.0

    def test_product_of_uniform_products(self):
        F = uniforms(IndependenceCopula())
        H = bifree_maxconv(F, F)
        assert H.eval(0.75, 0.75) == pytest.approx(0.25)
        # marginals follow the univariate convolution
        assert H.marginal1.eval(0.75) == pytest.approx(0.5)

    def test_marginals_are_free_maxconv(self):
        rng = np.random.default_rng(1)
        F, G = random_law_bdf(rng), random_law_bdf(rng)
        H = bifree_maxconv(F, G)
        ref = free_maxconv(F.marginal1, G.marginal1)
        assert_allclose(H.marginal1.eval(H.xknots), ref.eval(H.xknots),
                        atol=0.0)

    def test_marginal_consistency_of_grid_output(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            F, G = random_law_bdf(rng), random_law_bdf(rng)
            H = bifree_maxconv(F, G)
            # output is a valid DF: monotone, quasi-monotone, marginally
            # consistent on its lattice
            H.validate(tol=1e-9)

    def test_commutative_and_associative(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            F, G, K = (random_law_bdf(rng) for _ in range(3))
            probe = (np.linspace(-0.5, 3.5, 29), np.linspace(-0.5, 3.5, 29))
            assert sup_distance(bifree_maxconv(F, G), bifree_maxconv(G, F),
                                probe) < 1e-12
            left = bifree_maxconv(bifree_maxconv(F, G), K)
            right = bifree_maxconv(F, bifree_maxconv(G, K))
            assert sup_distance(left, right, probe) < 1e-12

    def test_closure_of_divisibility(self):
        rng = np.random.default_rng(4)
        A = from_exponent_measure(random_exponent_measure(rng), (0.0, 0.0))
        B = from_exponent_measure(random_exponent_measure(rng), (0.0, 0.0))
        H = bifree_maxconv(A, B)
        grid = (np.linspace(0, 3.5, 41), np.linspace(0, 3.5, 41))
        assert is_bifree_maxid(H, grid=grid).status == "yes"


class TestBifreePower:
    def test_power_one_is_input(self):
        F = uniforms(IndependenceCopula())
        assert bifree_power(F, 1.0) is F

    def test_power_zero_is_identity_element(self):
        F = random_law_bdf(np.random.default_rng(5))
        E = bifree_power(F, 0.0)
        H = bifree_maxconv(F, E)
        assert sup_distance(H, F, (F.xknots, F.yknots)) < 1e-12

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bifree_power(uniforms(IndependenceCopula()), -0.5)

    def test_integer_power_matches_repeated_convolution(self):
        rng = np.random.default_rng(6)
        F = random_law_bdf(rng)
        conv = bifree_maxconv(bifree_maxconv(F, F), F)
        pw = bifree_power(F, 3)
        probe = (np.linspace(-0.5, 3.5, 33), np.linspace(-0.5, 3.5, 33))
        assert sup_distance(conv, pw, probe) < 1e-12

    def test_product_stays_product(self):
        F = uniforms(IndependenceCopula())
        P = bifree_power(F, 2.0)
        xs = np.linspace(0.5, 1.0, 21)
        vals = P.eval(xs[:, None], xs[None, :])
        m1 = P.marginal1.eval(xs)
        assert_allclose(vals, m1[:, None] * m1[None, :], atol=1e-12)
        assert P.marginal1.eval(0.75) == pytest.approx(0.5)

    def test_measure_route_matches_ratio_route(self):
        rng = np.random.default_rng(7)
        tau = random_exponent_measure(rng)
        F = from_exponent_measure(tau, (0.0, 0.0))
        grid = materialize(F, F.marginal1.knots, F.marginal2.knots)
        for t in (2.0, 3.0):
            em = bifree_power(F, t)          # measure scaling
            generic = bifree_power(grid, t)  # ratio scaling on the grid
            probe = (F.marginal1.knots, F.marginal2.knots)
            assert sup_distance(em, generic, probe) < 1e-12

    def test_fractional_roundtrip_on_maxid(self):
        rng = np.random.default_rng(8)
        tau = random_exponent_measure(rng)
        F = from_exponent_measure(tau, (0.0, 0.0))
        probe = (np.linspace(-0.5, 3.5, 37), np.linspace(-0.5, 3.5, 37))
        for n in (2, 3, 5):
            back = bifree_power(bifree_power(F, 1.0 / n), n)
            assert sup_distance(back, F, probe) < 1e-9


class TestTransforms:
    def test_product_rule(self):
        F = uniforms(IndependenceCopula())
        xs = np.linspace(0.05, 0.95, 9)
        t = tail_functional(F, xs[:, None], xs[None, :])
        expect = 2.0 - xs[:, None] - xs[None, :]
        assert_allclose(t, expect, atol=1e-12)

    def test_dirac_vanishes(self):
        D = bdf_from_law(DiscreteMeasure([[0.0, 0.0]], [1.0]))
        assert tail_functional(D, 0.5, 1.5) == pytest.approx(0.0)

    def test_comonotone_values(self):
        F = uniforms(ComonotoneCopula())
        assert product_ratio(F, 0.3, 0.8) == pytest.approx(0.8)
        assert tail_functional(F, 0.3, 0.8) == pytest.approx(0.7)

    def test_amh_coupling_ratio(self):
        theta = 0.7
        F = uniforms(AMHCopula(theta))
        xs = np.linspace(0.1, 0.9, 9)
        q = product_ratio(F, xs[:, None], xs[None, :])
        expect = 1.0 - theta * (1 - xs[:, None]) * (1 - xs[None, :])
        assert_allclose(q, expect, atol=1e-12)

    def test_ratio_dominates_marginals(self):
        rng = np.random.default_rng(9)
        F = random_law_bdf(rng)
        xs = F.xknots
        ys = F.yknots
        vals = F.eval(xs[:, None], ys[None, :])
        mask = vals > 0
        q = np.where(mask, F.marginal1.eval(xs)[:, None]
                     * F.marginal2.eval(ys)[None, :]
                     / np.where(mask, vals, 1.0), np.nan)
        m = np.maximum(F.marginal1.eval(xs)[:, None],
                       F.marginal2.eval(ys)[None, :])
        assert np.all(q[mask] >= m[mask] - 1e-12)

    def test_domain_error_at_zero(self):
        F = uniforms(IndependenceCopula())
        with pytest.raises(SupportError):
            product_ratio(F, -0.5, 0.5)
        with pytest.raises(SupportError):
            tail_functional(F, -0.5, 0.5)


class TestIsBifreeMaxId:
    def test_product_bounded_below_yes(self):
        F = uniforms(IndependenceCopula())
        g = np.linspace(0, 1, 41)
        assert is_bifree_maxid(F, grid=(g, g)).status == "yes"

    def test_comonotone_yes(self):
        F = uniforms(ComonotoneCopula())
        g = np.linspace(0, 1, 41)
        assert is_bifree_maxid(F, grid=(g, g)).status == "yes"

    def test_fgm_negative_no_with_witness(self):
        F = uniforms(FGMCopula(-0.5))
        g = np.linspace(0, 1, 41)
        v = is_bifree_maxid(F, grid=(g, g))
        assert v.status == "no"
        assert v.witness is not None
        assert v.witness.quantity > 1e-9

    def test_unbounded_below_is_no(self):
        from bifreemax.extremes import gev_df
        F = CoupledBDF(IndependenceCopula(), gev_df(xi=0.0), gev_df(xi=0.0))
        assert is_bifree_maxid(F).status == "no"

    def test_nonrectangle_support_inconclusive(self):
        # law on a negatively sloped segment: {F>0} is L-shaped
        law = DiscreteMeasure([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])
        F = bdf_from_law(law)
        v = is_bifree_maxid(F)
        assert v.status == "inconclusive"

    def test_positively_sloped_line_is_min(self):
        # support on a positive slope forces F = min(F1, F2)
        law = DiscreteMeasure([[0.0, 0.5], [1.0, 1.5], [2.0, 2.5]],
                              [0.3, 0.4, 0.3])
        F = bdf_from_law(law)
        xs = np.linspace(-0.5, 3.0, 29)
        m = np.minimum(F.marginal1.eval(xs)[:, None],
                       F.marginal2.eval(xs)[None, :])
        assert_allclose(F.eval(xs[:, None], xs[None, :]), m, atol=1e-12)
        assert is_bifree_maxid(F).status == "yes"


class TestExponentMeasure:
    def test_zero_measure_is_product_of_diracs(self):
        F = from_exponent_measure(DiscreteMeasure.from_atoms([]), (0.5, 1.0))
        assert F.eval(0.4, 2.0) == 0.0
        assert F.eval(0.5, 1.0) == 1.0
        assert F.marginal1.eval(0.5) == 1.0

    def test_single_atom_hand_values(self):
        tau = DiscreteMeasure([[1.0, 1.0]], [0.5])
        F = from_exponent_measure(tau, (0.0, 0.0))
        assert F.marginal1.eval(0.5) == pytest.approx(0.5)
        assert F.marginal1.eval(1.0) == pytest.approx(1.0)
        assert F.eval(0.5, 0.5) == pytest.approx(0.5)   # 0.25 / (1 - 0.5)
        assert F.eval(1.0, 1.0) == pytest.approx(1.0)   # open-quadrant tail
        assert F.eval(-0.1, 0.5) == 0.0

    def test_tail_above_one_rejected(self):
        tau = DiscreteMeasure([[1.0, 1.0]], [1.5])
        with pytest.raises(ValueError, match="tail"):
            from_exponent_measure(tau, (0.0, 0.0))

    def test_result_is_maxid(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            tau = random_exponent_measure(rng)
            F = from_exponent_measure(tau, (0.0, 0.0))
            knots = (np.concatenate([F.marginal1.knots, [4.0]]),
                     np.concatenate([F.marginal2.knots, [4.0]]))
            assert is_bifree_maxid(F, grid=knots).status == "yes"

    def test_log_values_quasi_monotone(self):
        rng = np.random.default_rng(11)
        tau = random_exponent_measure(rng)
        F = from_exponent_measure(tau, (0.0, 0.0))
        xs = np.linspace(0.01, 3.5, 41)
        vals = F.eval(xs[:, None], xs[None, :])
        logv = np.log(vals)
        vol = logv[1:, 1:] - logv[:-1, 1:] - logv[1:, :-1] + logv[:-1, :-1]
        assert vol.min() > -1e-12

    def test_tail_functional_is_scaled_jump_tail(self):
        # T = lambda * (1 - H) for the normalized jump law H of tau
        rng = np.random.default_rng(12)
        tau = random_exponent_measure(rng, total=0.8)
        F = from_exponent_measure(tau, (0.0, 0.0))
        lam = tau.total_mass
        H = bdf_from_law(tau.normalized())
        xs = np.linspace(0.05, 3.5, 31)
        t = tail_functional(F, xs[:, None], xs[None, :])
        assert_allclose(t, lam * (1.0 - H.eval(xs[:, None], xs[None, :])),
                        atol=1e-12)


class TestCorner:
    def test_independent_iff_tail_vanishes_at_corner(self):
        # tail functional at the corner equals 2 - F1(L1) - F2(L2) exactly
        # when the measure puts no mass in the open quadrant above L
        rng = np.random.default_rng(13)
        # atoms on the axes only: no open-quadrant mass
        pts = np.array([[1.0, -1.0], [2.0, -1.0], [-1.0, 1.5]])
        masses = np.array([0.2, 0.1, 0.3])
        tau = DiscreteMeasure(pts, masses)
        F = from_exponent_measure(tau, (-1.0, -1.0))
        corner_t = tail_functional(F, -1.0, -1.0)
        m1, m2 = F.marginal1.eval(-1.0), F.marginal2.eval(-1.0)
        assert corner_t == pytest.approx(2.0 - m1 - m2, abs=1e-12)
        # and the DF is the product of its marginals
        xs = np.linspace(-1.0, 3.0, 23)
        vals = F.eval(xs[:, None], xs[None, :])
        prod = F.marginal1.eval(xs)[:, None] * F.marginal2.eval(xs)[None, :]
        assert_allclose(vals, prod, atol=1e-12)

    def test_quadrant_mass_breaks_product_form(self):
        tau = DiscreteMeasure([[1.0, 1.0]], [0.5])
        F = from_exponent_measure(tau, (0.0, 0.0))
        corner_t = tail_functional(F, 0.0, 0.0)
        m1, m2 = F.marginal1.eval(0.0), F.marginal2.eval(0.0)
        assert corner_t < 2.0 - m1 - m2 - 1e-6


class TestCompoundPoisson:
    def test_single_atom_limit_matches_construction(self):
        limit, report = compound_poisson_limit(0.5, DiscreteMeasure(
            [[1.0, 1.0]], [1.0]), (0.0, 0.0), ns=[2, 4, 8])
        ref = from_exponent_measure(DiscreteMeasure([[1.0, 1.0]], [0.5]),
                                    (0.0, 0.0))
        probe = (np.linspace(-0.5, 2.0, 21), np.linspace(-0.5, 2.0, 21))
        assert sup_distance(limit, ref, probe) == 0.0
        assert report.final <= 1e-12

    def test_multi_atom_ladder_decreases(self):
        nu = DiscreteMeasure([[1.0, 2.0], [2.0, 1.0], [0.5, 0.5]],
                             [0.4, 0.4, 0.2])
        limit, report = compound_poisson_limit(
            0.8, nu, (0.0, 0.0), ns=[2 ** k for k in range(1, 9)])
        d = np.asarray(report.distances)
        assert report.eventually_decreasing()
        assert d[-1] < d[0]
        # O(1/n): quadrupling n cuts the distance roughly fourfold
        assert d[-1] < 0.05 * d[0]

    def test_rate_above_one_lower_corner(self):
        # inf{F_nu_j > 1 - 1/lam}: the first atom carries mass exactly 1/2,
        # so the strict-inequality threshold lands on the second atom
        nu = DiscreteMeasure([[1.0, 1.0], [2.0, 2.0]], [0.5, 0.5])
        limit, _ = compound_poisson_limit(2.0, nu, (0.0, 0.0), ns=[4, 8])
        assert limit.lower == (2.0, 2.0)
        heavier = DiscreteMeasure([[1.0, 1.0], [2.0, 2.0]], [0.6, 0.4])
        limit2, _ = compound_poisson_limit(2.0, heavier, (0.0, 0.0), ns=[4])
        assert limit2.lower == (1.0, 1.0)

    def test_small_rate_limit_concentrates_at_corner(self):
        nu = DiscreteMeasure([[1.0, 1.0]], [1.0])
        limit, _ = compound_poisson_limit(0.01, nu, (0.0, 0.0), ns=[2])
        # almost all mass sits at the lower corner as the rate vanishes
        assert limit.eval(0.0, 0.0) > 0.97

    def test_eventually_decreasing_helper(self):
        assert eventually_decreasing([5, 3, 2, 2, 1])
        assert eventually_decreasing([0.0, 0.0, 0.0])
        assert eventually_decreasing([1, 2, 4, 3, 2, 1])
        assert not eventually_decreasing([1, 0.5, 0.25, 0.3, 0.2, 0.25])


class TestClassicalBridge:
    def test_roots_of_maxid_pass(self):
        rng = np.random.default_rng(14)
        tau = random_exponent_measure(rng)
        F = from_exponent_measure(tau, (0.0, 0.0))
        v = classical_maxid_check(F, ns=(2, 3, 10))
        assert v.status == "yes"

    def test_product_roots_pass(self):
        F = uniforms(IndependenceCopula())
        g = np.linspace(0, 1, 31)
        assert classical_maxid_check(F, ns=(2, 5), grid=(g, g)).status == "yes"

    def test_comonotone_roots_pass(self):
        F = uniforms(ComonotoneCopula())
        g = np.linspace(0, 1, 31)
        assert classical_maxid_check(F, ns=(2,), grid=(g, g)).status == "yes"

    def test_exp_tail_of_dirac_is_indicator(self):
        D = bdf_from_law(DiscreteMeasure([[1.0, 2.0]], [1.0]))
        G = maxid_from_tail_functional(D, 1.0)
        assert G.eval(0.9, 3.0) == 0.0
        assert G.eval(1.0, 2.0) == pytest.approx(1.0)

    def test_exp_tail_of_product(self):
        F = uniforms(IndependenceCopula())
        G = maxid_from_tail_functional(F, 1.0)
        xs = np.linspace(0.0, 1.0, 21)
        vals = G.eval(xs[:, None], xs[None, :])
        expect = np.exp(xs[:, None] + xs[None, :] - 2.0)
        assert_allclose(vals, expect, atol=1e-12)

    def test_exp_tail_doubling(self):
        rng = np.random.default_rng(15)
        tau = random_exponent_measure(rng)
        F = from_exponent_measure(tau, (0.0, 0.0))
        xs = np.linspace(0.0, 3.5, 25)
        g1 = maxid_from_tail_functional(F, 1.0).eval(xs[:, None], xs[None, :])
        g2 = maxid_from_tail_functional(F, 2.0).eval(xs[:, None], xs[None, :])
        assert_allclose(g2, g1 ** 2, atol=1e-12)

    def test_exp_tail_is_quasi_monotone_df(self):
        rng = np.random.default_rng(16)
        tau = random_exponent_measure(rng)
        F = from_exponent_measure(tau, (0.0, 0.0))
        for t in (0.5, 1.0, 2.0):
            G = maxid_from_tail_functional(F, t)
            grid = (np.linspace(-0.2, 4.0, 33), np.linspace(-0.2, 4.0, 33))
            assert is_quasi_monotone(G, tol=1e-12, grid=grid).ok
            vals = G.eval(grid[0][:, None], grid[1][None, :])
            assert np.all(np.diff(vals, axis=0) >= -1e-12)
            assert np.all(np.diff(vals, axis=1) >= -1e-12)


class TestRatioFromQ:
    def test_coupled_ratio_is_the_copula_denominator(self):
        C = AMHCopula(0.7)
        F = uniforms(C)
        xs = np.linspace(0.01, 1.0, 100)
        q = product_ratio(F, xs[:, None], xs[None, :])
        assert np.array_equal(q, C.f_eval(xs[:, None], xs[None, :]))
        t = tail_functional(F, xs[:, None], xs[None, :])
        assert np.array_equal(t, q - xs[:, None] - xs[None, :] + 1.0)
