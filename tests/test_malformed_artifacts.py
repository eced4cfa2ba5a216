"""Malformed artifacts end in one ``error:`` line and exit 4.

A grid read from a file is checked as a DF before anything judges or
transforms it; the JSON readers name the kind and the key or the length at
fault instead of raising a KeyError, IndexError, TypeError or
AttributeError.  A property test drives ``cli.main`` with mutated small grid
and measure files."""

import contextlib
import copy
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bifreemax import DiscreteMeasure, bdf_from_law
from bifreemax.cli import main
from bifreemax.serialize import bdf_to_obj, measure_to_obj


def _run(argv):
    """``main(argv)``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _grid(values, m1=(0.1, 1.0), m2=(0.5, 1.0)):
    """A 2x2 grid2d object on the knots 0, 1 with the given marginals."""
    def marginal(v):
        return {"kind": "grid", "L": 0.0, "knots": [0.0, 1.0],
                "values": list(v), "saturation": 1.0}
    return {"kind": "grid2d", "L": [0.0, 0.0],
            "knots": [[0.0, 1.0], [0.0, 1.0]], "values": values,
            "marginals": [marginal(m1), marginal(m2)]}


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return str(path)


def _refused(argv, message):
    code, out, err = _run(argv)
    assert code == 4, (code, out, err)
    assert err == f"error: {message}\n"


def test_a_grid_above_its_marginal_is_refused(tmp_path):
    # F = 0.5 in the last column where F1 = 0.1: it used to say "yes"
    bad = _write(tmp_path / "bad.json", _grid([[0.5, 0.5], [0.5, 1.0]]))
    for check in ("maxid", "classical-maxid"):
        _refused(["check", check, f"@{bad}"],
                 "last column deviates from marginal1 by 4.000e-01")


def test_a_grid_whose_rows_decrease_is_not_powered(tmp_path):
    dec = _write(tmp_path / "dec.json", _grid([[0.3, 0.1], [0.5, 1.0]]))
    out = tmp_path / "P.json"
    _refused(["power", dec, "2", "-o", str(out)],
             "values decrease along the y axis")
    assert not out.exists()


_BAD_GRIDS = {
    "top-level list": ([1, 2], "expected a JSON object with a kind, got list"),
    "no knots": ({k: v for k, v in _grid([[0.1, 0.5], [0.5, 1.0]]).items()
                  if k != "knots"}, "grid2d lacks key 'knots'"),
    "one marginal": (dict(_grid([[0.1, 0.5], [0.5, 1.0]]),
                          marginals=[_grid([])["marginals"][0]]),
                     "grid2d 'marginals' must hold 2 items, got 1"),
    "values as a dict": (dict(_grid([]), values={"0": [0.1, 0.5]}),
                         "grid2d 'values' must be a 2-D list of numbers"),
    "ragged values": (_grid([[0.1, 0.5], [0.5]]),
                      "grid2d 'values' must be a 2-D list of numbers"),
    "a number as a string": (dict(_grid([[0.1, 0.5], [0.5, 1.0]]),
                                  knots=[["0", "1"], [0.0, 1.0]]),
                             "grid2d 'knots' must be a 1-D list of numbers"),
}


@pytest.mark.parametrize("case", sorted(_BAD_GRIDS))
def test_a_malformed_grid_file_is_refused(case, tmp_path):
    obj, message = _BAD_GRIDS[case]
    path = _write(tmp_path / "g.json", obj)
    _refused(["check", "maxid", f"@{path}"], message)


def test_a_two_field_measure_atom_is_refused(tmp_path):
    path = _write(tmp_path / "m.json",
                  {"kind": "measure", "atoms": [[1.0, 1.0], [2.0, 0.5]]})
    _refused(["build", "from-measure", f"@{path}", "--lower", "0,0"],
             "measure atoms must be [x, y, mass] triples, got 2 fields")


# ---------------------------------------------------------------------------
# mutated files
# ---------------------------------------------------------------------------

_GRID = bdf_to_obj(bdf_from_law(DiscreteMeasure(
    [[0.0, 1.0], [1.0, 0.0], [1.0, 2.0]], [0.25, 0.25, 0.5])))
_MEASURE = measure_to_obj(DiscreteMeasure(
    [[0.5, 1.0], [1.0, 0.5], [1.5, 1.5]], [0.25, 0.25, 0.5]))
_GRID_RUNS = [["check", "maxid", "@{}"], ["check", "classical-maxid", "@{}"],
              ["power", "@{}", "2"], ["power", "@{}", "0.5"],
              ["transform", "tail", "@{}"], ["convolve", "@{}", "@{}"]]
_MEASURE_RUNS = [["build", "from-measure", "@{}", "--lower", "0,0"],
                 ["experiment", "compound-poisson", "--lam", "0.5", "--nu",
                  "@{}", "--max-log2", "3"]]
_JUNK = st.one_of(st.none(), st.text(max_size=4),
                  st.dictionaries(st.text(max_size=2), st.floats(0, 1),
                                  max_size=2))


def _paths(obj, path=()):
    """The path of every node of a parsed JSON object, the root first."""
    yield path
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def _mutated(draw, base):
    """``base`` with a key dropped, a list shortened, or a node replaced by
    null, a string or a dict, or the whole object by a list; once or
    twice."""
    obj = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(obj))))
        if not path:
            obj = draw(st.sampled_from([[], [1, 2], [obj]]))
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]]
        how = draw(st.sampled_from(["drop", "shorten", "replace"]))
        if how == "drop" and isinstance(parent, dict):
            del parent[path[-1]]
        elif how == "shorten" and isinstance(node, list) and node:
            del node[draw(st.integers(0, len(node) - 1)):]
        else:
            parent[path[-1]] = draw(_JUNK)
    return obj


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(which=st.sampled_from(["grid", "measure"]), data=st.data())
def test_a_mutated_file_exits_cleanly(which, data):
    base, runs = (_GRID, _GRID_RUNS) if which == "grid" else \
        (_MEASURE, _MEASURE_RUNS)
    obj = data.draw(_mutated(base))
    argv = data.draw(st.sampled_from(runs))
    with tempfile.TemporaryDirectory() as d:
        path = _write(os.path.join(d, "in.json"), obj)
        code, _, err = _run([a.format(path) for a in argv])
    assert code in (0, 1, 2) or (
        code == 4 and err.startswith("error: ") and err.count("\n") == 1), \
        (code, err)
