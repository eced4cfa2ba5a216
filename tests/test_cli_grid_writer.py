"""The CLI writes every grid artifact through one writer,
``serialize.write_grid`` (``cli._write_grid`` only resolves its paths under
``--out-dir``), and refuses a tolerance that could cover nothing on every
``check``.

``experiment compound-poisson --limit-output`` builds its text table from
the limit grid's array: the bytes are those of the list path
``dump_json(bdf_to_obj(grid))`` it replaces, and its traced peak is lower.
``check maxid --gaussian C`` decides with its own witness margin, but a
negative or NaN ``--tol`` is refused there with exit 4 as everywhere else.
"""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from bifreemax import (
    DiscreteMeasure,
    MeasureBDF,
    compound_poisson_limit,
    materialize,
)
from bifreemax import cli
from bifreemax import convolution as cv
from bifreemax.serialize import bdf_to_obj, dump_json, measure_to_obj


def _law(rng, k):
    pts = rng.uniform(0.0, 3.0, size=(k, 2))
    return DiscreteMeasure(pts, rng.dirichlet(np.ones(k)))


def _limit_grid(limit):
    return materialize(limit, limit.marginal1.knots, limit.marginal2.knots)


@pytest.mark.parametrize("lam, p, seed", [
    (0.5, "0,0", 0), (0.75, "0.5,-1", 1), (1.6, "0,0", 2), (1.9, "1,0.25", 3),
])
def test_limit_output_bytes_are_those_of_the_list_path(tmp_path, capsys, lam,
                                                       p, seed):
    nu = _law(np.random.default_rng(seed), 12)
    dump_json(measure_to_obj(nu), tmp_path / "nu.json")
    out = tmp_path / "limit.json"
    assert cli.main(["experiment", "compound-poisson", "--lam", repr(lam),
                     "--nu", f"@{tmp_path / 'nu.json'}", "--p", p,
                     "--max-log2", "3", "--limit-output", str(out)]) == 0
    limit, _ = compound_poisson_limit(lam, nu, [float(v) for v in p.split(",")],
                                      ns=[8])
    want = tmp_path / "want.json"
    dump_json(bdf_to_obj(_limit_grid(limit)), want)
    assert out.read_bytes() == want.read_bytes()


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_limit_output_peaks_below_the_list_path(tmp_path, monkeypatch):
    # a 201^2 limit grid: 200 atoms at distinct coordinates above the corner
    nu = _law(np.random.default_rng(5), 200)
    limit = MeasureBDF(nu, (-0.5, -0.5)).power(0.5)
    grid = _limit_grid(limit)
    assert grid.values.shape == (201, 201)
    report = cv.CompoundPoissonReport((2,), (0.0,), 0.0)
    # parsing, the limit experiment and the materialization are not writing
    monkeypatch.setattr(cli, "parse_measure", lambda spec: nu)
    monkeypatch.setattr(cv, "compound_poisson_limit",
                        lambda lam, nu, p, ns: (limit, report))
    monkeypatch.setattr(cli, "materialize", lambda F, xk, yk: grid)
    argv = ["experiment", "compound-poisson", "--lam", "0.5", "--nu", "nu",
            "--max-log2", "1", "-o", str(tmp_path / "cp.csv"),
            "--limit-output", str(tmp_path / "limit.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
        peak = _traced_peak(lambda: cli.main(argv))
    list_path = tmp_path / "list.json"
    list_peak = _traced_peak(lambda: dump_json(bdf_to_obj(grid), list_path))
    assert (tmp_path / "limit.json").read_bytes() == list_path.read_bytes()
    assert peak < list_peak


@pytest.mark.parametrize("tol", ["-1", "nan"])
@pytest.mark.parametrize("c", ["0.3", "-0.3"])
def test_gaussian_maxid_refuses_a_negative_or_nan_tolerance(capsys, tol, c):
    assert cli.main(["--tol", tol, "check", "maxid", "--gaussian", c]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tol must be nonnegative\n"


def test_gaussian_maxid_does_not_read_a_valid_tolerance(capsys):
    argv = ["check", "maxid", "--gaussian", "0.3", "--resolution", "21"]
    code = cli.main(argv)
    want = capsys.readouterr()
    for tol in ("0", "1e-3", "inf"):
        assert cli.main(["--tol", tol, *argv]) == code
        assert capsys.readouterr() == want
