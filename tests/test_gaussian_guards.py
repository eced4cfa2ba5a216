"""Inputs the Gaussian family refuses: non-finite or out-of-range
correlations and points, CDF lattices too small to span the square, and
CDF lattices whose quadrature does not resolve the kernel; and the edge
inputs it answers: an empty adaptive interval, and NaN density queries."""

import numpy as np
import pytest

from bifreemax.cli import main
from bifreemax.gaussian import (NoDensityError, UnresolvedQuadratureError,
                                cdf_grid, comparison_integral, density,
                                identity_check, maxid_verdict)
from bifreemax.quadrature import adaptive_panels

NAN = float("nan")
INF = float("inf")


class TestIdentityNonFinite:
    @pytest.mark.parametrize("x", [NAN, INF, -INF])
    def test_x(self, x):
        with pytest.raises(ValueError, match="x must lie in"):
            identity_check(0.3, x)

    @pytest.mark.parametrize("c", [NAN, INF])
    def test_c(self, c):
        with pytest.raises(NoDensityError):
            identity_check(c, 0.5)

    @pytest.mark.parametrize("value", [NAN, INF])
    def test_adaptive_panels_refuses_to_split(self, value):
        calls = []

        def f(x):
            calls.append(1)
            return np.full_like(x, value)

        with pytest.raises(ValueError, match="not finite"):
            adaptive_panels(f, 0.0, 1.0)
        assert len(calls) == 1


class TestComparisonGuards:
    @pytest.mark.parametrize("c", [1.0, -1.0, 2.0, NAN])
    def test_correlation(self, c):
        with pytest.raises(NoDensityError):
            comparison_integral(c, 0.3, -0.4)

    @pytest.mark.parametrize("x,y", [(3.0, 0.0), (0.0, -2.5), (NAN, 0.0),
                                     (0.0, INF)])
    def test_point(self, x, y):
        with pytest.raises(ValueError, match="must lie in"):
            comparison_integral(0.5, x, y)

    def test_square_edges_accepted(self):
        assert comparison_integral(0.5, -2.0, 0.3) == 0.0
        assert comparison_integral(-0.5, 2.0, 2.0) < 0.0

    def test_zero_correlation_is_exactly_zero(self):
        assert comparison_integral(0.0, 0.3, -0.4) == 0.0


class TestCdfGridGuards:
    @pytest.mark.parametrize("resolution", [1, 0, -3])
    def test_resolution_below_two(self, resolution):
        with pytest.raises(ValueError, match="resolution must be at least 2"):
            cdf_grid(0.3, resolution=resolution)

    def test_two_knots_span_the_square(self):
        F = cdf_grid(0.3, resolution=2)
        assert list(F.xknots) == [-2.0, 2.0]
        assert F.eval(2.0, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_nan_correlation(self):
        with pytest.raises(NoDensityError):
            cdf_grid(NAN, resolution=11)
        with pytest.raises(NoDensityError):
            density(NAN, 0.0, 0.0)


class TestCli:
    @pytest.mark.parametrize("argv", [
        ["gaussian", "identity", "nan"],
        ["gaussian", "identity", "0.3", "--xs", "nan"],
        ["gaussian", "identity", "0.3", "--xs", "inf"],
        ["gaussian", "cdf", "0.3", "--resolution", "1"],
        ["gaussian", "cdf", "0.3", "--resolution", "0"],
        ["gaussian", "cdf", "nan", "--resolution", "11"],
    ])
    def test_exit_4(self, argv, tmp_path, capsys):
        out = tmp_path / "G.json"
        assert main(argv + ["-o", str(out)]) == 4
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_cdf_at_two_knots(self, tmp_path):
        out = tmp_path / "G.json"
        assert main(["gaussian", "cdf", "0.3", "--resolution", "2",
                     "-o", str(out)]) == 0
        assert out.exists()



class TestDensityResolution:
    @pytest.mark.parametrize("resolution", ["1", "0"])
    def test_exit_4(self, resolution, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert main(["gaussian", "density", "0.3", "--resolution", resolution,
                     "-o", str(out)]) == 4
        assert "resolution must be at least 2" in capsys.readouterr().err
        assert not out.exists()

    def test_two_knots(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["gaussian", "density", "0.3", "--resolution", "2",
                     "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 5


class TestUnresolvedQuadrature:
    """Near |c| = 1 the density peaks on the diagonal more sharply than the
    order-16 panels resolve, and the cells no longer sum to 1."""

    @pytest.mark.parametrize("c,resolution", [
        (-0.99, 61), (-0.999, 61), (-0.999, 101), (0.999, 11), (-0.999, 11)])
    def test_cdf_grid_refuses(self, c, resolution):
        with pytest.raises(UnresolvedQuadratureError) as exc:
            cdf_grid(c, resolution=resolution)
        assert isinstance(exc.value, ValueError)
        message = str(exc.value)
        assert f"c = {c!r}" in message
        assert f"resolution {resolution}" in message
        assert "mass" in message

    @pytest.mark.parametrize("c,resolution", [(-0.95, 41), (0.9, 21),
                                              (-0.9, 161), (0.3, 2)])
    def test_resolved_lattices_pass(self, c, resolution):
        F = cdf_grid(c, resolution=resolution)
        assert F.eval(2.0, 2.0) == pytest.approx(1.0, abs=1e-9)
        F.validate(tol=1e-9)

    def test_verdict_is_inconclusive(self):
        v = maxid_verdict(-0.999)
        assert v.status == "inconclusive"
        assert v.witness is None
        assert v.mechanism.startswith("unresolved quadrature: ")
        assert "resolution 61" in v.mechanism

    def test_verdict_keeps_other_refusals(self):
        with pytest.raises(ValueError, match="resolution must be at least 2"):
            maxid_verdict(-0.5, resolution=1)

    def test_cli(self, tmp_path, capsys):
        out = tmp_path / "G.json"
        assert main(["gaussian", "cdf", "-0.999", "--resolution", "101",
                     "-o", str(out)]) == 4
        assert "does not resolve the kernel" in capsys.readouterr().err
        assert not out.exists()
        assert main(["gaussian", "verdict", "-0.999"]) == 2


class TestEmptyInterval:
    @pytest.mark.parametrize("a", [-1.5, 0.0, 2.0])
    def test_adaptive_panels_is_zero(self, a):
        calls = []

        def f(x):
            calls.append(1)
            return np.cos(x)

        assert adaptive_panels(f, a, a) == 0.0
        assert calls == []


class TestDensityNaN:
    def test_nan_point_is_nan(self):
        # as cdf_grid(c).eval and semicircle_df().eval read a NaN point
        assert np.isnan(density(0.3, NAN, 0.0))
        assert np.isnan(density(-0.6, 0.5, NAN))
        assert np.isnan(cdf_grid(0.3, resolution=11).eval(NAN, 0.0))

    def test_nan_wins_over_a_point_off_the_square(self):
        got = density(0.3, [NAN, INF, 3.0, -INF], [INF, NAN, NAN, NAN])
        assert np.all(np.isnan(got))

    def test_infinite_points_stay_zero(self):
        got = density(0.3, [INF, -INF, 0.5, 0.5, 3.0],
                      [0.0, 0.0, INF, -INF, 0.0])
        assert np.array_equal(got, np.zeros(5))

    def test_finite_points_unchanged(self):
        s = np.array([-2.0, -1.0, 0.0, 0.7, 2.0])
        got = density(0.3, s[:, None], s[None, :])
        assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
        assert got[2, 2] > 0.0
