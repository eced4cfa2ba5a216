import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from bifreemax import (
    ComonotoneCopula,
    CoupledBDF,
    DiscreteMeasure,
    GridBDF,
    GridUDF,
    IndependenceCopula,
    bdf_from_law,
    dirac_df,
    eval_bdf,
    is_quasi_monotone,
    law_from_bdf,
    sup_distance,
    tail_bdf,
    uniform_df,
    volume,
)
from conftest import random_law_bdf


def independence_of_uniforms():
    return CoupledBDF(IndependenceCopula(), uniform_df(0, 1), uniform_df(0, 1))


def min_of_uniforms():
    return CoupledBDF(ComonotoneCopula(), uniform_df(0, 1), uniform_df(0, 1))


class TestUnivariate:
    def test_grid_step_convention(self):
        f = GridUDF([0.0, 1.0, 2.0], [0.2, 0.7, 1.0])
        assert f.eval(-0.5) == 0.0
        assert f.eval(0.0) == 0.2
        assert f.eval(0.999) == 0.2
        assert f.eval(1.0) == 0.7
        assert f.eval(5.0) == 1.0
        assert f.support_lower == 0.0
        assert f.saturation == 2.0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridUDF([0.0, 0.0], [0.5, 1.0])
        with pytest.raises(ValueError):
            GridUDF([0.0, 1.0], [0.9, 0.4])
        with pytest.raises(ValueError):
            GridUDF([0.0], [1.5])

    def test_dirac(self):
        d = dirac_df(2.0)
        assert d.eval(1.999) == 0.0
        assert d.eval(2.0) == 1.0

    def test_quantile_exceed(self):
        f = GridUDF([0.0, 1.0, 2.0], [0.2, 0.7, 1.0])
        assert f.quantile_exceed(0.5) == 1.0
        assert f.quantile_exceed(0.0) == 0.0
        u = uniform_df(0, 2)
        assert abs(u.quantile_exceed(0.25) - 0.5) < 1e-10

    def test_saturation_beyond_grid(self):
        # value at the largest knot below 1: eval holds it until saturation
        f = GridUDF([0.0, 1.0], [0.3, 0.8], saturation=5.0)
        assert f.eval(3.0) == 0.8
        assert f.eval(5.0) == 1.0


class TestEvalBDF:
    def test_independence_product_rule(self):
        F = independence_of_uniforms()
        assert eval_bdf(F, (0.5, 0.5)) == pytest.approx(0.25)

    def test_below_support(self):
        F = independence_of_uniforms()
        assert eval_bdf(F, (-0.1, 0.5)) == 0.0

    def test_comonotone_min(self):
        F = min_of_uniforms()
        assert eval_bdf(F, (0.3, 0.8)) == pytest.approx(0.3)

    def test_grid_bdf_saturation(self):
        F = random_law_bdf(np.random.default_rng(0))
        x = F.xknots[1]
        # beyond the y saturation the surface equals marginal1
        assert F.eval(x, 100.0) == pytest.approx(F.marginal1.eval(x))
        assert F.eval(100.0, 100.0) == 1.0


class TestVolume:
    def test_full_mass(self):
        F = independence_of_uniforms()
        assert volume(F, (0, 0), (1, 1)) == pytest.approx(1.0)

    def test_degenerate_rectangle(self):
        F = independence_of_uniforms()
        assert volume(F, (0.4, 0.6), (0.4, 0.6)) == 0.0

    def test_comonotone_diagonal_mass(self):
        # mass of the coupling (U, U) in [0, 0.5]^2 is 0.5
        F = min_of_uniforms()
        assert volume(F, (0, 0), (0.5, 0.5)) == pytest.approx(0.5)

    def test_rejects_bad_rectangle(self):
        F = independence_of_uniforms()
        with pytest.raises(ValueError):
            volume(F, (0.5, 0.0), (0.2, 1.0))

    def test_additive_over_subdivision(self):
        rng = np.random.default_rng(3)
        F = random_law_bdf(rng)
        xs = np.linspace(-0.2, 3.2, 12)
        ys = np.linspace(-0.2, 3.2, 15)
        total = volume(F, (xs[0], ys[0]), (xs[-1], ys[-1]))
        vals = F.eval(xs[:, None], ys[None, :])
        cells = vals[1:, 1:] - vals[:-1, 1:] - vals[1:, :-1] + vals[:-1, :-1]
        assert_allclose(cells.sum(), total, atol=1e-12)


class TestTail:
    def test_independence(self):
        F = independence_of_uniforms()
        assert tail_bdf(F, (0.5, 0.5)) == pytest.approx(0.25)

    def test_below_support_everything_above(self):
        F = independence_of_uniforms()
        assert tail_bdf(F, (-1.0, -2.0)) == pytest.approx(1.0)

    def test_beyond_saturation_nothing_above(self):
        F = independence_of_uniforms()
        assert tail_bdf(F, (2.0, 3.0)) == pytest.approx(0.0)

    def test_nonnegative_on_grids(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            F = random_law_bdf(rng)
            xs = np.concatenate([F.xknots - 0.1, F.xknots, [F.xknots[-1] + 1]])
            ys = np.concatenate([F.yknots - 0.1, F.yknots, [F.yknots[-1] + 1]])
            for x in xs:
                t = tail_bdf(F, (x, ys))
                assert np.min(t) >= -1e-12


class TestQuasiMonotone:
    def test_independence_grid_passes(self):
        F = independence_of_uniforms()
        g = np.linspace(0, 1, 21)
        assert is_quasi_monotone(F, grid=(g, g)).ok

    def test_copula_grid_passes(self):
        from bifreemax import AMHCopula
        F = CoupledBDF(AMHCopula(0.7), uniform_df(0, 1), uniform_df(0, 1))
        g = np.linspace(0, 1, 31)
        assert is_quasi_monotone(F, grid=(g, g)).ok

    def test_hand_built_failure(self):
        m = GridUDF([0.0, 1.0], [0.5, 1.0])
        F = GridBDF(m, m, [0.0, 1.0], [0.0, 1.0],
                    [[0.0, 0.5], [0.5, 0.6]])
        res = is_quasi_monotone(F)
        assert not res.ok
        assert res.worst_volume == pytest.approx(-0.4)
        assert res.worst_cell == (0.0, 0.0)

    def test_random_law_grids_pass(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            F = random_law_bdf(rng)
            assert is_quasi_monotone(F, tol=1e-12).ok

    def test_non_grid_df_is_probed_on_the_default_lattice(self):
        from bifreemax import AMHCopula
        F = CoupledBDF(AMHCopula(0.5), uniform_df(0, 1), uniform_df(0, 1))
        assert is_quasi_monotone(F).ok


class TestSupDistance:
    def test_identical(self):
        F = independence_of_uniforms()
        assert sup_distance(F, F, ([0.1, 0.5, 0.9], [0.2, 0.8])) == 0.0

    def test_independence_vs_comonotone(self):
        d = sup_distance(independence_of_uniforms(), min_of_uniforms(),
                         np.array([[0.5, 0.5]]))
        assert d == pytest.approx(0.25)

    def test_shifted_diracs(self):
        a = bdf_from_law(DiscreteMeasure([[0.0, 0.0]], [1.0]))
        b = bdf_from_law(DiscreteMeasure([[1.0, 1.0]], [1.0]))
        assert sup_distance(a, b, ([0.5], [0.5])) == 1.0


class TestIncrementBound:
    def test_marginal_increment_bound(self):
        # F(y) - F(x) <= dF1 + dF2 for grid x <= y; adjacent increments
        # suffice because both sides telescope
        rng = np.random.default_rng(7)
        for _ in range(10):
            F = random_law_bdf(rng)
            vals = F.eval(F.xknots[:, None], F.yknots[None, :])
            m1 = F.marginal1.eval(F.xknots)
            m2 = F.marginal2.eval(F.yknots)
            dx = vals[1:, :] - vals[:-1, :]
            dy = vals[:, 1:] - vals[:, :-1]
            assert np.all(dx <= (m1[1:] - m1[:-1])[:, None] + 1e-12)
            assert np.all(dy <= (m2[1:] - m2[:-1])[None, :] + 1e-12)


@given(st.lists(st.floats(-20, 20), min_size=4, max_size=4))
def test_exponential_rectangle_inequality(vals):
    # if d - c - b + a >= 0 with a <= d and b, c in [a, d], the same holds
    # after exponentiation
    a, d = min(vals), max(vals)
    b, c = sorted(vals)[1:3]
    if d - c - b + a >= 0:
        assert np.exp(d) - np.exp(c) - np.exp(b) + np.exp(a) >= -1e-12


class TestDiscreteMeasure:
    def test_tail_exact(self):
        m = DiscreteMeasure([[1.0, 1.0], [2.0, 0.5]], [0.3, 0.2])
        assert m.tail(0.0, 0.0) == pytest.approx(0.5)
        assert m.tail(1.0, 0.0) == pytest.approx(0.2)
        assert m.tail(1.0, 0.5) == 0.0
        assert m.total_mass == pytest.approx(0.5)

    def test_tail_nonincreasing(self):
        rng = np.random.default_rng(2)
        m = DiscreteMeasure(rng.uniform(0, 1, (8, 2)), rng.uniform(0, 1, 8))
        xs = np.linspace(-0.5, 1.5, 30)
        t = m.tail(xs[:, None], xs[None, :])
        assert np.all(np.diff(t, axis=0) <= 1e-15)
        assert np.all(np.diff(t, axis=1) <= 1e-15)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([[0.0, 0.0]], [-0.1])

    def test_law_round_trip(self):
        rng = np.random.default_rng(9)
        F = random_law_bdf(rng)
        law = law_from_bdf(F)
        G = bdf_from_law(law)
        assert sup_distance(F, G, (F.xknots, F.yknots)) < 1e-12


class TestGridValidate:
    def test_validate_passes_on_law(self):
        F = random_law_bdf(np.random.default_rng(4))
        F.validate(tol=1e-12)

    def test_validate_catches_negative_volume(self):
        m = GridUDF([0.0, 1.0], [0.5, 1.0])
        F = GridBDF(m, m, [0.0, 1.0], [0.0, 1.0], [[0.0, 0.5], [0.5, 0.6]])
        with pytest.raises(ValueError, match="volume"):
            F.validate()

    def test_validate_catches_fall_along_x(self):
        m = GridUDF([0.0, 1.0], [0.5, 1.0])
        F = GridBDF(m, m, [0.0, 1.0], [0.0, 1.0], [[0.5, 0.5], [0.4, 0.6]])
        with pytest.raises(ValueError, match="decrease along the x axis"):
            F.validate()

    def test_validate_catches_fall_along_y(self):
        m = GridUDF([0.0, 1.0], [0.5, 1.0])
        F = GridBDF(m, m, [0.0, 1.0], [0.0, 1.0], [[0.5, 0.4], [0.6, 0.7]])
        with pytest.raises(ValueError, match="decrease along the y axis"):
            F.validate()

    def test_validate_catches_last_column_off_marginal1(self):
        m = uniform_df(0, 1)
        F = GridBDF(m, m, [0.5, 1.0], [0.5, 1.0], [[0.25, 0.4], [0.5, 1.0]])
        with pytest.raises(ValueError, match="last column deviates from marginal1"):
            F.validate()

    def test_validate_catches_last_row_off_marginal2(self):
        m = uniform_df(0, 1)
        F = GridBDF(m, m, [0.5, 1.0], [0.5, 1.0], [[0.25, 0.5], [0.4, 1.0]])
        with pytest.raises(ValueError, match="last row deviates from marginal2"):
            F.validate()


class TestLawSaturation:
    def test_marginals_saturate_when_masses_sum_below_one(self):
        # ten masses of 0.1 add up to 1 - 1.1e-16 in order
        k = np.arange(10.0)
        F = bdf_from_law(DiscreteMeasure(np.column_stack([k, k[::-1]]),
                                         np.full(10, 0.1)))
        assert F.values[-1, -1] < 1.0
        for m in (F.marginal1, F.marginal2):
            assert m.saturation == 9.0
            assert np.all(m.eval([9.0, 9.5, 1e6]) == 1.0)
        assert F.eval(9.5, 9.5) == 1.0
