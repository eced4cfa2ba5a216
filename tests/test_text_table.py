"""The text table behind the artifact writers: each distinct float of a
table formatted once, the same bytes as the stdlib JSON encoder and the
per-cell CSV writer, and no more memory than the per-value writer it
replaced.  Flat float lists build no table, and ``write_grid`` builds one
table for a grid's JSON and CSV together."""

import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bifreemax import (
    AMHCopula,
    CoupledBDF,
    GridBDF,
    GridUDF,
    exponential_free_df,
    materialize,
    uniform_df,
)
from bifreemax import cli
from bifreemax import convolution as cv
from bifreemax import gaussian as ga
from bifreemax import serialize
from bifreemax.serialize import (
    _grid2d_obj,
    _Texts,
    bdf_to_obj,
    dump_json,
    load_json,
    udf_to_obj,
    write_grid,
    write_surface_csv,
)

from test_fast_artifacts import _per_cell_surface_csv


def _stdlib_json(obj):
    return json.dumps(obj, indent=2) + "\n"


def _dumped(path, obj):
    dump_json(obj, path)
    return path.read_bytes().decode("utf-8")


# ---------------------------------------------------------------------------
# grid JSON against json.dumps(indent=2)
# ---------------------------------------------------------------------------

# 1e16 prints as 1e+16; 5e-324 is the least subnormal
_KNOTS = [-1e16, -2.5, -1e-300, 5e-324, 1e-300, 0.1, 1.0 / 3.0, 1.0, 7.5,
          1e16]
_LEVELS = st.sampled_from([-0.0, 0.0, 5e-324, 1e-300, 0.1, 1.0 / 3.0, 0.5,
                           1.0])


@st.composite
def _plateau_grids(draw):
    """Grid DFs whose values run in long plateaus, with -0.0 among the
    x-knots, 0.0 among the y-knots and -0.0 beside 0.0 among the values."""
    xs = sorted(draw(st.sets(st.sampled_from(_KNOTS), max_size=5)) | {-0.0})
    ys = sorted(draw(st.sets(st.sampled_from(_KNOTS), max_size=5)) | {0.0})
    steps = draw(hnp.arrays(np.float64, (len(xs), len(ys)), elements=_LEVELS))
    # sorting both axes makes a DF surface of few levels; copying a row
    # and a column over the lattice stretches the plateaus
    values = np.sort(np.sort(steps, axis=0), axis=1)
    values[draw(st.integers(0, len(xs) - 1)):] = values[-1]
    values[:, :draw(st.integers(1, len(ys)))] = values[:, :1]
    return GridBDF(GridUDF(xs, values[:, -1]), GridUDF(ys, values[-1]),
                   xs, ys, values)


@settings(max_examples=150, deadline=None)
@given(G=_plateau_grids())
def test_plateau_grids_match_the_stdlib(tmp_path_factory, G):
    tmp = tmp_path_factory.mktemp("grid")
    obj = bdf_to_obj(G)
    assert _dumped(tmp / "lists.json", obj) == _stdlib_json(obj)
    # the table the CLI builds from the array writes the same bytes
    assert _dumped(tmp / "table.json", _grid2d_obj(G, _Texts(G.values))) \
        == _stdlib_json(obj)


def test_signed_zeros_and_nan_payloads():
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001,
                     -0x0008000000000000, 0x7FF0000000000001],
                    dtype=np.int64).view(float)
    texts = _Texts(np.concatenate(([0.0, -0.0, 1e16, 0.0, -0.0], nans)))
    assert list(texts.rows()) == [["0.0", "-0.0", "1e+16", "0.0", "-0.0"]
                                  + ["nan"] * 4]
    assert len(texts._reprs) == 4


# ---------------------------------------------------------------------------
# non-finite values: NaN and Infinity in JSON, nan and inf in CSV
# ---------------------------------------------------------------------------

_ODD_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0,
                     5e-324, 1e16]),
)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), nx=st.integers(1, 6), ny=st.integers(1, 6))
def test_nonfinite_surfaces_match_the_per_cell_writer(tmp_path_factory, data,
                                                      nx, ny):
    tmp = tmp_path_factory.mktemp("odd")
    xs = np.arange(nx) / 3.0
    ys = np.arange(ny) * 1e16
    vals = data.draw(hnp.arrays(np.float64, (nx, ny), elements=_ODD_CELLS))
    _per_cell_surface_csv(tmp / "old.csv", xs, ys, vals)
    write_surface_csv(tmp / "new.csv", xs, ys, vals)
    write_surface_csv(tmp / "table.csv", xs, ys, _Texts(vals))
    old = (tmp / "old.csv").read_bytes()
    assert (tmp / "new.csv").read_bytes() == old
    assert (tmp / "table.csv").read_bytes() == old
    obj = {"values": vals.tolist(), "flat": vals.ravel().tolist()}
    assert _dumped(tmp / "v.json", obj) == _stdlib_json(obj)


def test_nonfinite_spellings(tmp_path):
    vals = np.array([[np.nan, np.inf], [-np.inf, -0.0]])
    write_surface_csv(tmp_path / "s.csv", [0.0, 1.0], [0.0, 1.0], vals)
    assert (tmp_path / "s.csv").read_text().splitlines()[1:] == [
        "0.0,0.0,nan", "0.0,1.0,inf", "1.0,0.0,-inf", "1.0,1.0,-0.0"]
    text = _dumped(tmp_path / "s.json", {"values": vals.tolist()})
    assert "NaN" in text and "-Infinity" in text and "nan" not in text


# ---------------------------------------------------------------------------
# flat float lists go to the C encoder, and build no table
# ---------------------------------------------------------------------------

def _spy_on_tables(mp):
    """Record the shape of every text table built while ``mp`` is active."""
    built = []

    class Spy(serialize._Texts):
        __slots__ = ()

        def __init__(self, values):
            built.append(np.shape(values))
            super().__init__(values)

    mp.setattr(serialize, "_Texts", Spy)
    return built


@pytest.mark.parametrize("obj, tables", [
    ({"lower": [0.1, 0.2]}, []),
    ([-0.0, 5e-324, 1e16, float("nan"), float("inf"), float("-inf")], []),
    ({"kind": "grid", "L": None, "knots": [0.0, 1.0], "values": [0.0, 1.0],
      "saturation": 1.0}, []),
    ({"ragged": [[0.5, -0.0], [1e16]], "tuple": (5e-324, float("nan"))},
     []),
    ({"pair": [[0.1, 0.2], [0.3, 0.4]]}, [(2, 2)]),
])
def test_only_tables_build_a_text_table(tmp_path, monkeypatch, obj, tables):
    built = _spy_on_tables(monkeypatch)
    assert _dumped(tmp_path / "v.json", obj) == _stdlib_json(obj)
    assert built == tables


# ---------------------------------------------------------------------------
# write_grid: a grid's JSON and CSV from one table
# ---------------------------------------------------------------------------

def _coupled_grid():
    coupled = CoupledBDF(AMHCopula(0.4), uniform_df(0.0, 1.5),
                         exponential_free_df(1.0))
    return materialize(coupled, np.linspace(-0.1, 1.6, 9),
                       np.linspace(0.0, 4.0, 7))


@pytest.mark.parametrize("G, knot_tables", [
    (_coupled_grid(), []),
    # equal knot counts make the knot pair a table of its own
    (ga.cdf_grid(0.3, resolution=21), [(2, 21)]),
])
def test_write_grid_builds_one_table_for_both_files(tmp_path, monkeypatch, G,
                                                    knot_tables):
    dump_json(bdf_to_obj(G), tmp_path / "ref.json")
    write_surface_csv(tmp_path / "ref.csv", G.xknots, G.yknots, G.values)
    built = _spy_on_tables(monkeypatch)
    write_grid(G, tmp_path / "G.json", tmp_path / "G.csv")
    assert built == [G.values.shape] + knot_tables
    assert (tmp_path / "G.json").read_bytes() == \
        (tmp_path / "ref.json").read_bytes()
    assert (tmp_path / "G.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()


def test_write_grid_writes_only_the_files_it_is_given(tmp_path, monkeypatch):
    G = _coupled_grid()
    dump_json(bdf_to_obj(G), tmp_path / "ref.json")
    write_surface_csv(tmp_path / "ref.csv", G.xknots, G.yknots, G.values)
    built = _spy_on_tables(monkeypatch)
    write_grid(G)
    assert built == []
    write_grid(G, json_path=tmp_path / "a.json")
    write_grid(G, csv_path=tmp_path / "b.csv")
    assert built == [G.values.shape] * 2
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a.json", "b.csv", "ref.csv", "ref.json"]
    assert (tmp_path / "a.json").read_bytes() == \
        (tmp_path / "ref.json").read_bytes()
    assert (tmp_path / "b.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()


# ---------------------------------------------------------------------------
# CLI artifacts written twice from one table
# ---------------------------------------------------------------------------

def test_convolve_json_and_csv_equal_the_references(tmp_path, capsys):
    F_path = tmp_path / "F.json"
    assert cli.main(["--grid", "31", "build", "coupled", "amh:theta=0.5",
                     "uniform:0,1.5", "-o", str(F_path)]) == 0
    h_json, h_csv = tmp_path / "H.json", tmp_path / "H.csv"
    assert cli.main(["convolve", f"@{F_path}", f"@{F_path}", "-o",
                     str(h_json), "--csv", str(h_csv)]) == 0
    F = load_json(F_path)
    H = cv.bifree_maxconv(F, F)
    assert h_json.read_text(encoding="utf-8") == _stdlib_json(bdf_to_obj(H))
    _per_cell_surface_csv(tmp_path / "ref.csv", H.xknots, H.yknots, H.values)
    assert h_csv.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_gaussian_cdf_json_and_csv_equal_the_references(tmp_path, capsys):
    g_json, g_csv = tmp_path / "G.json", tmp_path / "G.csv"
    assert cli.main(["gaussian", "cdf", "0.3", "--resolution", "21", "-o",
                     str(g_json), "--csv", str(g_csv)]) == 0
    G = ga.cdf_grid(0.3, resolution=21)
    assert g_json.read_text(encoding="utf-8") == _stdlib_json(bdf_to_obj(G))
    _per_cell_surface_csv(tmp_path / "ref.csv", G.xknots, G.yknots, G.values)
    assert g_csv.read_bytes() == (tmp_path / "ref.csv").read_bytes()


# ---------------------------------------------------------------------------
# the object builders still hand out plain lists
# ---------------------------------------------------------------------------

def _all_python_floats(rows):
    return all(type(v) is float for row in rows for v in row)


def test_bdf_to_obj_returns_lists_of_python_floats():
    coupled = CoupledBDF(AMHCopula(0.4), uniform_df(0.0, 1.5),
                         exponential_free_df(1.0))
    grid = materialize(coupled, np.linspace(-0.1, 1.6, 9),
                       np.linspace(0.0, 4.0, 7))
    for obj in (bdf_to_obj(grid), bdf_to_obj(coupled, grid.xknots,
                                             grid.yknots)):
        assert type(obj["values"]) is list
        assert all(type(row) is list for row in obj["values"])
        assert _all_python_floats(obj["values"])
        assert _all_python_floats(obj["knots"])
        for m in obj["marginals"]:
            assert type(m["knots"]) is list and type(m["values"]) is list
            assert _all_python_floats([m["knots"], m["values"]])
        json.dumps(obj)


def test_udf_to_obj_returns_lists_of_python_floats():
    for obj in (udf_to_obj(GridUDF([0.0, 1.0, 2.0], [0.0, 0.5, 1.0])),
                udf_to_obj(exponential_free_df(2.0), np.linspace(0, 5, 17))):
        assert type(obj["knots"]) is list and type(obj["values"]) is list
        assert _all_python_floats([obj["knots"], obj["values"]])


# ---------------------------------------------------------------------------
# memory: the writer holds no more than the per-value writer it replaced
# ---------------------------------------------------------------------------

# The traced peak of this test on the per-value writer that the text table
# replaced (CPython 3.11, numpy 2.4): it held the surface as nested Python
# float lists while writing the JSON, 1.24 MB of the 1.31.
_PER_VALUE_WRITER_PEAK = 1_372_351


def test_convolve_writer_peaks_below_the_per_value_writer(tmp_path,
                                                          monkeypatch):
    knots = np.linspace(-0.1, 1.6, 201)
    F = materialize(CoupledBDF(AMHCopula(0.4), uniform_df(0.0, 1.5),
                               uniform_df(0.0, 1.5)), knots, knots)
    H = cv.bifree_maxconv(F, F)
    # parsing and the convolution are not part of writing
    monkeypatch.setattr(cli, "parse_bdf", lambda spec: F)
    monkeypatch.setattr(cv, "bifree_maxconv", lambda a, b: H)
    argv = ["convolve", "F", "F", "-o", str(tmp_path / "H.json"), "--csv",
            str(tmp_path / "H.csv")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= _PER_VALUE_WRITER_PEAK
