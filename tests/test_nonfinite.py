"""Non-finite knots, values, points and masses are refused on construction,
so no verdict is computed from them."""

import json

import numpy as np
import pytest

from bifreemax import DiscreteMeasure, GridBDF, GridUDF, bdf_from_law
from bifreemax.cli import main
from bifreemax.serialize import bdf_to_obj, load_json
from bifreemax import (AMHCopula, CoupledBDF, GridCopula, MeasureBDF,
                       bifree_power, free_power, uniform_df)
from bifreemax.convolution import ExpTailBDF


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grid_udf_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        GridUDF([0.0, 1.0, 2.0], [0.2, bad, 1.0])
    with pytest.raises(ValueError, match="finite"):
        GridUDF([0.0, bad, 2.0], [0.2, 0.5, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_grid_bdf_rejects_non_finite(bad):
    m = GridUDF([0.0, 1.0], [0.5, 1.0])
    vals = np.array([[0.25, 0.5], [0.5, 1.0]])
    vals[0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        GridBDF(m, m, [0.0, 1.0], [0.0, 1.0], vals)
    with pytest.raises(ValueError, match="finite"):
        GridBDF(m, m, [0.0, bad], [0.0, 1.0], np.full((2, 2), 0.5))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_measure_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        DiscreteMeasure([[0.0, 1.0], [bad, 0.0]], [0.5, 0.5])
    with pytest.raises(ValueError, match="finite"):
        DiscreteMeasure([[0.0, 1.0], [1.0, 0.0]], [0.5, bad])


def _law_obj():
    return bdf_to_obj(bdf_from_law(DiscreteMeasure(
        [[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]], [0.4, 0.4, 0.2])))


def test_nan_surface_is_refused_not_judged(tmp_path, capsys):
    clean = tmp_path / "clean.json"
    clean.write_text(json.dumps(_law_obj()))
    assert main(["check", "maxid", f"@{clean}"]) == 2
    obj = _law_obj()
    del obj["marginals"]
    obj["values"][1][0] = float("nan")
    obj["values"][2][0] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="finite"):
        load_json(bad)
    capsys.readouterr()
    assert main(["check", "maxid", f"@{bad}"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grid_copula_rejects_non_finite(bad):
    knots = [0.0, 0.5, 1.0]
    vals = np.outer(knots, knots)
    with pytest.raises(ValueError, match="knots and values must be finite"):
        GridCopula([0.0, bad, 1.0], knots, vals)
    with pytest.raises(ValueError, match="knots and values must be finite"):
        GridCopula(knots, [0.0, bad, 1.0], vals)
    vals[1, 1] = bad
    with pytest.raises(ValueError, match="knots and values must be finite"):
        GridCopula(knots, knots, vals)


def _amh_law():
    return CoupledBDF(AMHCopula(0.5), uniform_df(), uniform_df())


# a NaN power fails every guard of the power calculus with its own message
@pytest.mark.parametrize("power, message", [
    (lambda t: bifree_power(_amh_law(), t), "power must be nonnegative"),
    (lambda t: free_power(uniform_df(), t), "power must be nonnegative"),
    (lambda t: ExpTailBDF(_amh_law(), t), "t must be positive"),
    (lambda t: DiscreteMeasure([[0.0, 1.0]], [0.5]).scaled(t),
     "scale factor must be nonnegative"),
    (lambda t: MeasureBDF(DiscreteMeasure([[1.0, 1.0]], [0.5]),
                          (0.0, 0.0)).power(t), "power must be positive"),
], ids=["bifree_power", "free_power", "ExpTailBDF", "scaled",
        "MeasureBDF.power"])
def test_nan_power_is_refused(power, message):
    with pytest.raises(ValueError, match=message):
        power(np.nan)


@pytest.mark.parametrize("out", [[], ["-o", "P.json"]],
                         ids=["stdout", "artifact"])
def test_cli_refuses_a_nan_power(tmp_path, monkeypatch, capsys, out):
    monkeypatch.chdir(tmp_path)
    assert main(["build", "coupled", "amh:theta=0.5", "uniform:0,1",
                 "-o", "F.json"]) == 0
    capsys.readouterr()
    assert main(["power", "@F.json", "nan", *out]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "power must be nonnegative" in captured.err
    assert not (tmp_path / "P.json").exists()
