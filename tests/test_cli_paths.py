"""CLI options and refusals that the other CLI tests do not reach."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import bifreemax
from bifreemax import GridBDF, compound_poisson_limit
from bifreemax.cli import main
from bifreemax.serialize import dump_json, load_json, measure_to_obj
from bifreemax.specs import parse_measure


def test_out_dir_holds_the_artifact(tmp_path, capsys):
    out = tmp_path / "artifacts"
    code = main(["--out-dir", str(out), "build", "coupled", "amh:0.5",
                 "uniform", "-o", "F.json"])
    assert code == 0
    assert os.listdir(out) == ["F.json"]
    assert isinstance(load_json(out / "F.json"), GridBDF)


def test_gaussian_cdf_csv(tmp_path, capsys):
    path = tmp_path / "cdf.csv"
    assert main(["gaussian", "cdf", "0.3", "--resolution", "11",
                 "--csv", str(path)]) == 0
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "value"]
    assert len(rows) == 1 + 11 * 11
    assert (float(rows[1][2]), float(rows[-1][2])) == (0.0, 1.0)


def test_compound_poisson_limit_output_reloads(tmp_path, capsys):
    nu = tmp_path / "nu.json"
    law = parse_measure("dirac:1,2")
    dump_json(measure_to_obj(law), nu)
    out = tmp_path / "limit.json"
    assert main(["experiment", "compound-poisson", "--lam", "0.5", "--nu",
                 f"@{nu}", "--max-log2", "3", "--limit-output", str(out)]) == 0
    G = load_json(out)
    assert isinstance(G, GridBDF)
    G.validate()
    limit, _ = compound_poisson_limit(0.5, law, (0.0, 0.0), ns=[2])
    assert np.array_equal(
        G.values, limit.eval(G.xknots[:, None], G.yknots[None, :]))


@pytest.mark.parametrize("argv,message", [
    (["build", "from-measure", "dirac:1,1", "--lower", "1"], "--lower"),
    (["experiment", "doa-copula", "amh:theta=0.5"], "--pickands"),
    (["experiment", "compound-poisson", "--lam", "0.5", "--nu", "dirac:1,1",
      "--max-log2", "0"], "at least one n"),
])
def test_refused_with_exit_four(argv, message, capsys):
    assert main(argv) == 4
    assert message in capsys.readouterr().err


def test_module_entry_point():
    src = os.path.dirname(os.path.dirname(bifreemax.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-m", "bifreemax.cli", "check", "copula",
         "amh:theta=0.5"], capture_output=True, text=True, env=env, check=False)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["status"] == "member"
