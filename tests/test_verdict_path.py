"""The grid decisions share one probe lattice and one worst-violation scan:
a NaN is the worst entry, a check that covers nothing is refused or says so,
and every verdict command prints strict JSON."""

import json

import numpy as np
import pytest

from bifreemax import (
    AMHCopula,
    BivariateDF,
    CoupledBDF,
    DiscreteMeasure,
    FGMCopula,
    IndependenceCopula,
    bdf_from_law,
    check_maxid_coupling,
    classical_maxid_check,
    is_bifree_maxid,
    is_quasi_monotone,
    uniform_df,
)
from bifreemax.cli import main
from bifreemax.copulas import _FFormCopula
from bifreemax.distributions import _worst
from bifreemax.serialize import bdf_to_obj, dump_json


class _HoledAMH(_FFormCopula):
    """AMH(-0.5), whose denominator is 1 + 0.5(1-u)(1-v), with a NaN at
    (0.5, 0.5)."""

    family = "holed-amh"
    smooth = True

    def _f(self, u, v):
        f = 1.0 + 0.5 * (1.0 - u) * (1.0 - v)
        hole = np.isclose(u, 0.5) & np.isclose(v, 0.5)
        return np.where(hole, np.nan, f)


class _HoledDF(BivariateDF):
    """A DF that evaluates to NaN at (0.5, 0.5) and to ``base`` elsewhere."""

    def __init__(self, base):
        super().__init__(base.marginal1, base.marginal2)
        self.base = base

    def _eval(self, x1, x2):
        hole = np.isclose(x1, 0.5) & np.isclose(x2, 0.5)
        return np.where(hole, np.nan, self.base.eval(x1, x2))


def _uniform_pair(C):
    return CoupledBDF(C, uniform_df(), uniform_df())


class TestWorst:
    def test_largest_entry_and_first_on_ties(self):
        blocks = [("a", np.array([[1.0, 3.0], [3.0, 0.0]])),
                  ("b", np.array([3.0])), ("c", np.zeros((0, 2)))]
        assert _worst(blocks) == (3.0, "a", (0, 1))

    def test_nan_is_worst(self):
        value, tag, at = _worst([("a", np.array([5.0, 7.0])),
                                 ("b", np.array([1.0, np.nan, np.nan])),
                                 ("c", np.array([np.nan]))])
        assert np.isnan(value) and (tag, at) == ("b", (1,))

    def test_nothing_checked(self):
        assert _worst([("a", np.zeros((0, 3)))]) == (-np.inf, None, None)
        assert _worst([]) == (-np.inf, None, None)


class TestNaNNeverPasses:
    def test_coupling_with_a_nan_is_nonmember(self):
        assert not check_maxid_coupling(AMHCopula(-0.5)).member
        v = check_maxid_coupling(_HoledAMH())
        assert not v.member
        assert np.isnan(v.min_margin)
        assert np.isnan(v.witness.quantity)
        assert v.witness.point == pytest.approx((0.5, 0.5))

    def test_classical_check_with_a_nan_says_no(self):
        g = np.linspace(0.0, 1.0, 21)
        F = _uniform_pair(FGMCopula(-0.9))
        assert classical_maxid_check(F, grid=(g, g)).status == "no"
        v = classical_maxid_check(_HoledDF(F), grid=(g, g))
        assert v.status == "no"
        assert v.witness.check == "root-volume"
        assert np.isnan(v.witness.quantity)
        assert v.witness.upper == pytest.approx((0.5, 0.5))

    def test_other_decisions_with_a_nan(self):
        F = _HoledDF(_uniform_pair(AMHCopula(0.5)))
        g = np.linspace(0.0, 1.0, 21)
        assert is_bifree_maxid(F, grid=(g, g)).status != "yes"
        res = is_quasi_monotone(F, grid=(g, g))
        assert not res.ok and np.isnan(res.worst_volume)


class TestUncheckableInputsRefused:
    def test_coupling_grid_below_three(self, capsys):
        for n in (1, 2):
            with pytest.raises(ValueError, match="grid_n"):
                check_maxid_coupling(AMHCopula(-0.5), grid_n=n)
        assert not check_maxid_coupling(AMHCopula(-0.5), grid_n=3).member
        assert main(["--grid", "2", "check", "copula", "amh:theta=-0.5"]) == 4
        assert "grid_n" in capsys.readouterr().err

    @pytest.mark.parametrize("ns", [(), (0,), (2, -1), (np.nan,)])
    def test_classical_ladder_must_be_positive(self, ns):
        F = bdf_from_law(DiscreteMeasure([[0.0, 0.0]], [1.0]))
        with pytest.raises(ValueError, match="ns"):
            classical_maxid_check(F, ns=ns)

    @pytest.mark.parametrize("ns", ["", "0", "2,0"])
    def test_cli_classical_ladder_exits_four(self, ns, capsys):
        code = main(["check", "classical-maxid", "dirac:0,0", "--ns", ns])
        assert code == 4
        assert "error" in capsys.readouterr().err


def _strict(text):
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


class TestStrictJSON:
    @pytest.fixture()
    def files(self, tmp_path):
        g = np.linspace(0.0, 1.0, 21)
        out = {}
        for name, C in (("no", FGMCopula(-0.9)), ("yes", AMHCopula(0.5))):
            F = _uniform_pair(C)
            path = tmp_path / f"{name}.json"
            dump_json(bdf_to_obj(F, g, g), path)
            out[name] = str(path)
        return out

    def test_every_verdict_command(self, files, tmp_path, capsys):
        runs = [
            (["check", "copula", "amh:theta=0.5"], 0),
            (["check", "copula", "amh:theta=-0.5"], 1),
            (["check", "copula", "clayton:p=2", "--mode", "smooth"], 1),
            (["check", "maxid", "dirac:0,0"], 0),
            (["check", "maxid", files["yes"]], 0),
            (["check", "maxid", files["no"]], 1),
            (["check", "classical-maxid", files["no"]], 1),
            (["check", "classical-maxid", "dirac:0,0"], 0),
            (["check", "copula-axioms", "logistic:m=2"], 0),
            (["check", "maxid", "--gaussian", "-0.5"], 1),
            (["check", "maxid", "--gaussian", "0"], 0),
            (["gaussian", "verdict", "0.5"], 1),
            (["gaussian", "verdict", "-1"], 1),
        ]
        for argv, want in runs:
            out = tmp_path / "verdict.json"
            assert main(argv + ["-o", str(out)]) == want, argv
            printed = _strict(capsys.readouterr().out)
            assert printed == _strict(out.read_text()), argv
            assert printed["status"] in ("yes", "member", "maxid", "pass",
                                         "no", "nonmember", "not-maxid")

    def test_point_mass_has_no_margin(self, capsys):
        assert main(["check", "maxid", "dirac:0,0"]) == 0
        out = _strict(capsys.readouterr().out)
        assert out["status"] == "yes" and out["margin"] is None
        v = is_bifree_maxid(bdf_from_law(DiscreteMeasure([[1.0, 2.0]], [1.0])))
        assert v.status == "yes" and v.margin is None


class TestWitnessesRecomputed:
    def test_classical_root_volume_witness(self):
        F = _uniform_pair(FGMCopula(-0.9))
        g = np.linspace(0.0, 1.0, 31)
        v = classical_maxid_check(F, grid=(g, g))
        assert v.status == "no" and v.witness.check == "root-volume"
        n = int(v.reason.split("1/")[1].split()[0])
        (x0, y0), (x1, y1) = v.witness.lower, v.witness.upper

        def r(x, y):
            return F.eval(x, y) ** (1.0 / n)

        vol = r(x1, y1) - r(x0, y1) - r(x1, y0) + r(x0, y0)
        assert v.witness.quantity == pytest.approx(vol, rel=1e-12, abs=1e-15)
        roots = F.eval(g[:, None], g[None, :]) ** (1.0 / n)
        cells = np.diff(np.diff(roots, axis=0), axis=1)
        assert v.witness.quantity == pytest.approx(cells.min(), rel=1e-12)
        assert v.witness.quantity < 0

    def test_quasi_monotone_reports_smallest_positive_volume(self):
        g = np.array([0.0, 0.1, 0.3, 0.6, 1.0])
        F = _uniform_pair(IndependenceCopula())
        res = is_quasi_monotone(F, grid=(g, g))
        vals = F.eval(g[:, None], g[None, :])
        smallest = np.diff(np.diff(vals, axis=0), axis=1).min()
        assert res.ok and res.worst_cell is None
        assert smallest > 0
        assert res.worst_volume == pytest.approx(smallest, rel=1e-12)

    def test_bifree_maxid_witness_is_the_worst_check(self):
        F = _uniform_pair(FGMCopula(-0.5))
        g = np.linspace(0.0, 1.0, 41)
        tol = 1e-9
        v = is_bifree_maxid(F, tol=tol, grid=(g, g))
        assert v.status == "no"
        w = v.witness

        def q(x, y):
            return F.marginal1.eval(x) * F.marginal2.eval(y) / F.eval(x, y)

        (x0, y0), (x1, y1) = w.lower, w.upper
        step = q(x1, y1) - q(x0, y0)
        recomputed = {
            "ratio-increasing-x": -step,
            "ratio-increasing-y": -step,
            "ratio-increment-bound-x":
                step - (F.marginal1.eval(x1) - F.marginal1.eval(x0)),
            "ratio-increment-bound-y":
                step - (F.marginal2.eval(y1) - F.marginal2.eval(y0)),
            "ratio-volume": q(x1, y1) - q(x0, y1) - q(x1, y0) + q(x0, y0),
        }[w.check]
        assert w.quantity == pytest.approx(recomputed, rel=1e-9, abs=1e-12)
        assert v.margin == pytest.approx(tol - w.quantity)

        # the witness carries the largest value over all five checks
        p = g[g > 0]
        m = F.marginal1.eval(p)
        Q = m[:, None] * m[None, :] / F.eval(p[:, None], p[None, :])
        dqx, dqy = np.diff(Q, axis=0), np.diff(Q, axis=1)
        dm = np.diff(m)
        largest = max((-dqx).max(), (dqx - dm[:, None]).max(),
                      (-dqy).max(), (dqy - dm[None, :]).max(),
                      np.diff(np.diff(Q, axis=0), axis=1).max())
        assert w.quantity == pytest.approx(largest, rel=1e-12)
