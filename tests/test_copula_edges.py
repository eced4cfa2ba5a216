"""Edges of the ratio-form copulas and of the CSV verdicts: a NaN argument
gives NaN, uv = 0 gives +0.0, FGM(-1) is silent at its pole, and a
``--format csv`` verdict is two RFC 4180 fields per line."""

import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import bifreemax
from bifreemax import (
    AMHCopula,
    CoupledBDF,
    FGMCopula,
    check_maxid_coupling,
    uniform_df,
)
from bifreemax import specs
from bifreemax.cli import main
from bifreemax.copulas import _FFormCopula


# one valid value per copula parameter name
_PARAMS = {"theta": 0.5, "p": 0.5, "m": 2.0, "phi": 0.25}


def _ratio_copulas():
    out = []
    for ctor, names, _ in specs._COPULAS.values():
        C = ctor(*(_PARAMS[n] for n in names))
        if isinstance(C, _FFormCopula):
            out.append(C)
    return out + [AMHCopula(-1.0), FGMCopula(-1.0)]


class TestNaNThroughACopula:
    def test_coupled_law_at_a_nan_query_is_nan(self):
        F = CoupledBDF(AMHCopula(0.5), uniform_df(), uniform_df())
        assert np.isnan(F.eval(np.nan, 0.5))
        assert np.isnan(F.eval(0.5, np.nan))
        assert F.eval(0.5, 0.5) == 0.25 / (1.0 - 0.5 * 0.25)

    @pytest.mark.parametrize("C", _ratio_copulas(), ids=lambda C: C.family)
    def test_nan_in_nan_out_and_no_negative_zero(self, C):
        g = np.array([-0.0, 0.0, 0.25, 0.5, 1.0, np.nan])
        vals = C.eval(g[:, None], g[None, :])
        nan = np.isnan(g[:, None]) | np.isnan(g[None, :])
        assert np.array_equal(np.isnan(vals), nan)
        zero = (g[:, None] == 0.0) | (g[None, :] == 0.0)
        assert np.all(vals[zero & ~nan] == 0.0)
        assert not np.any(np.signbit(vals[~nan]))

    def test_holed_denominator_keeps_the_product_and_fails(self):
        class Holed(_FFormCopula):
            family = "holed"
            smooth = True

            def _f(self, u, v):
                f = 1.0 + 0.5 * (1.0 - u) * (1.0 - v)
                return np.where(np.isclose(u, 0.5) & np.isclose(v, 0.5),
                                np.nan, f)

        C = Holed()
        assert C.eval(0.5, 0.5) == 0.25
        assert not check_maxid_coupling(C, grid_n=11).member


class TestFGMPole:
    def test_origin_is_zero_without_a_warning(self):
        # RuntimeWarnings are errors in this suite
        assert FGMCopula(-1.0).eval(0.0, 0.0) == 0.0
        g = np.linspace(0.0, 1.0, 5)
        assert FGMCopula(-1.0).eval(g[:, None], g[None, :])[0, 0] == 0.0

    def test_cli_axioms_leave_stderr_empty(self):
        src = os.path.dirname(os.path.dirname(bifreemax.__file__))
        run = subprocess.run(
            [sys.executable, "-m", "bifreemax.cli", "check", "copula-axioms",
             "fgm:theta=-1"], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), check=False)
        assert run.returncode == 0
        assert run.stderr == ""
        assert json.loads(run.stdout)["status"] == "pass"


def _csv_and_json(argv, code, capsys):
    assert main(["--format", "csv", *argv]) == code
    text = capsys.readouterr().out
    assert main(argv) == code
    return text, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("argv,code", [
    (["check", "copula", "amh:theta=-0.2"], 1),
    (["gaussian", "identity", "0.3"], 0),
])
def test_csv_verdict_is_two_fields_per_line(argv, code, capsys):
    text, payload = _csv_and_json(argv, code, capsys)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows and all(len(row) == 2 for row in rows)
    assert [key for key, _ in rows] == list(payload)
    nested = [(key, value) for key, value in rows
              if isinstance(payload[key], (dict, list))]
    assert nested
    for key, value in nested:
        assert json.loads(value) == payload[key]


def test_csv_scalar_lines_keep_their_bytes(capsys):
    text, payload = _csv_and_json(["check", "copula", "amh:theta=-0.2"], 1,
                                  capsys)
    lines = text.splitlines()
    assert lines[0] == "check,maxid-coupling"
    assert lines[1] == "spec,amh:theta=-0.2"
    assert lines[2] == "status,nonmember"
    assert lines[4] == f"min_margin,{payload['min_margin']}"


@pytest.mark.parametrize("argv,nulls", [
    (["check", "classical-maxid", "dirac:0,0"], ["witness"]),
    (["check", "maxid", "dirac:0,0"], ["margin", "witness"]),
])
def test_csv_scalar_fields_with_commas_or_none(argv, nulls, capsys):
    text, payload = _csv_and_json(argv, 0, capsys)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows and all(len(row) == 2 for row in rows)
    assert [key for key, _ in rows] == list(payload)
    values = dict(rows)
    assert values["input"] == payload["input"] == "dirac:0,0"
    assert values["reason"] == payload["reason"]
    for key in nulls:
        assert payload[key] is None
        assert values[key] == "null"
