"""The artifact writers against the stdlib and per-cell oracles, and the CLI
paths that reuse the parser and a loaded grid."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bifreemax import (
    AMHCopula,
    CoupledBDF,
    DiscreteMeasure,
    GridUDF,
    exponential_free_df,
    materialize,
    uniform_df,
)
from bifreemax import specs
from bifreemax.cli import build_parser, main
from bifreemax.serialize import (
    bdf_to_obj,
    dump_json,
    fmt,
    measure_to_obj,
    udf_to_obj,
    write_surface_csv,
)

from conftest import random_law_bdf


def _stdlib_json(obj):
    return json.dumps(obj, indent=2) + "\n"


def _dumped(tmp_path, obj):
    path = tmp_path / "out.json"
    dump_json(obj, path)
    return path.read_bytes().decode("utf-8")


# ---------------------------------------------------------------------------
# dump_json against json.dumps(indent=2)
# ---------------------------------------------------------------------------

_TRICKY_TEXT = st.sampled_from(
    [", ", "a, b", "1, 2", "[1, 2]", '{"k": 1}', '"', "é, ü",
     "☃", "\\", "\n", ""])

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0,
                     5e-324, 1e-300]),
    st.text(max_size=8),
    _TRICKY_TEXT,
)

_KEYS = st.one_of(
    st.text(max_size=6),
    _TRICKY_TEXT,
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.integers(),
    st.booleans(),
    st.none(),
)

_TREES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(obj=_TREES)
@example(obj=[])
@example(obj={})
@example(obj=[[]])
@example(obj=[{}])
@example(obj=[1, [2, 3]])
@example(obj=[1, [], {}, [[]]])
@example(obj=[1.0, "a, b", 2.0])
@example(obj=[1.0, {"a": [1, 2]}])
@example(obj=[None, True, False, 0, -1])
@example(obj=[np.float64(0.1), float("nan"), float("inf"), float("-inf")])
@example(obj={1.5: 1, 2: [3], True: "x", False: None, None: [[], {}]})
@example(obj={"values": [[0.5, 1.0], [0.25, 1e-300]], "L": [None, 0.0]})
def test_dump_json_matches_the_stdlib(tmp_path_factory, obj):
    tmp = tmp_path_factory.mktemp("dump")
    assert _dumped(tmp, obj) == _stdlib_json(obj)


@settings(max_examples=100, deadline=None)
@given(row=st.lists(st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats().map(np.float64), st.integers(), st.booleans(), st.none()),
    min_size=1, max_size=30))
def test_flat_rows_match_the_stdlib(tmp_path_factory, row):
    tmp = tmp_path_factory.mktemp("rows")
    obj = {"values": [row, row[::-1]], "flat": row}
    assert _dumped(tmp, obj) == _stdlib_json(obj)


def test_unsupported_values_and_keys_raise_like_the_stdlib(tmp_path):
    for obj in ([1.0, object()], {(1, 2): 1.0}, [np.int64(1)]):
        with pytest.raises(TypeError) as ours:
            dump_json(obj, tmp_path / "bad.json")
        with pytest.raises(TypeError) as theirs:
            json.dumps(obj, indent=2)
        assert str(ours.value) == str(theirs.value)


def _real_objects():
    rng = np.random.default_rng(20)
    coupled = CoupledBDF(AMHCopula(0.4), uniform_df(0.0, 1.5),
                         exponential_free_df(1.0))
    grid = materialize(coupled, np.linspace(-0.1, 1.6, 33),
                       np.linspace(0.0, 4.0, 29))
    pts = rng.uniform(0.0, 2.0, size=(7, 2))
    return [
        bdf_to_obj(random_law_bdf(rng)),
        bdf_to_obj(grid),
        bdf_to_obj(coupled, np.linspace(0.0, 1.5, 5),
                   np.linspace(0.0, 3.0, 4)),
        udf_to_obj(exponential_free_df(2.0), np.linspace(0.0, 5.0, 17)),
        udf_to_obj(GridUDF([0.0, 1.0, 2.0], [0.0, 0.5, 1.0])),
        measure_to_obj(DiscreteMeasure(pts, rng.dirichlet(np.ones(7)))),
        {"check": "bifree-maxid", "status": "no", "margin": -0.25,
         "witness": {"x": [0.5, 1.0], "value": float("-inf")}},
    ]


@pytest.mark.parametrize("index", range(7))
def test_real_artifacts_match_the_stdlib(tmp_path, index):
    obj = _real_objects()[index]
    assert _dumped(tmp_path, obj) == _stdlib_json(obj)


# ---------------------------------------------------------------------------
# write_surface_csv against the per-cell writer it replaced
# ---------------------------------------------------------------------------

def _per_cell_surface_csv(path, xs, ys, values):
    values = np.asarray(values)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,value\n")
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                fh.write(f"{fmt(x)},{fmt(y)},{fmt(values[i, j])}\n")


_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e-300, -1e-300, 5e-324, 1.0 / 3.0, 1.0]),
)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), nx=st.integers(0, 7), ny=st.integers(0, 7))
def test_surface_csv_matches_the_per_cell_writer(tmp_path_factory, data,
                                                 nx, ny):
    tmp = tmp_path_factory.mktemp("csv")
    xs = data.draw(hnp.arrays(np.float64, nx, elements=_CELLS))
    ys = data.draw(hnp.arrays(np.float64, ny, elements=_CELLS))
    vals = data.draw(hnp.arrays(np.float64, (nx, ny), elements=_CELLS))
    write_surface_csv(tmp / "new.csv", xs, ys, vals)
    _per_cell_surface_csv(tmp / "old.csv", xs, ys, vals)
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()


@pytest.mark.parametrize("values", [
    np.arange(6).reshape(2, 3),
    np.arange(6, dtype=np.float32).reshape(2, 3) / 7,
    [[0.5, -0.0, 5e-324], [1e-300, 1, 2]],
])
def test_surface_csv_of_other_inputs_matches(tmp_path, values):
    xs, ys = [0, 1], [0.5, 1e-300, -0.0]
    write_surface_csv(tmp_path / "new.csv", xs, ys, values)
    _per_cell_surface_csv(tmp_path / "old.csv", xs, ys, values)
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("shape", [(3, 4), (1, 2), (2, 1), (2,)])
def test_surface_csv_refuses_a_mismatched_shape(tmp_path, shape):
    path = tmp_path / "s.csv"
    with pytest.raises(ValueError, match="shape"):
        write_surface_csv(path, [0, 1], [0, 1], np.ones(shape))
    assert not path.exists()


# ---------------------------------------------------------------------------
# CLI: one formatter for stdout and files, one parser, one load
# ---------------------------------------------------------------------------

@pytest.fixture()
def coupled_file(tmp_path):
    path = tmp_path / "F.json"
    assert main(["--grid", "21", "build", "coupled", "amh:theta=0.5",
                 "uniform:0,1.5", "-o", str(path)]) == 0
    return path


@pytest.mark.parametrize("kind", ["ratio", "tail"])
def test_transform_stdout_equals_the_file(coupled_file, tmp_path, capsys,
                                          kind):
    capsys.readouterr()
    assert main(["transform", kind, str(coupled_file)]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out.csv"
    assert main(["transform", kind, str(coupled_file), "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert printed.encode("utf-8") == out.read_bytes()


def test_experiment_stdout_equals_the_file(tmp_path, capsys):
    argv = ["experiment", "max-stable", "logistic:m=2", "--marginal",
            "pareto:alpha=2"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "ms.csv"
    assert main(argv + ["-o", str(out)]) == 0
    summary = capsys.readouterr().out
    assert printed == out.read_text(encoding="utf-8") + summary
    assert out.read_text(encoding="utf-8").startswith("n,diagnostic,value\n")


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_reused_parser_forgets_the_format(capsys):
    assert main(["--format", "csv", "check", "copula", "amh:theta=0.5"]) == 0
    csv_out = capsys.readouterr().out
    assert csv_out.startswith("check,maxid-coupling\n")
    assert main(["check", "copula", "amh:theta=0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "member"


def test_reused_parser_forgets_the_grid(tmp_path):
    small, default = tmp_path / "small.json", tmp_path / "default.json"
    spec = ["build", "coupled", "amh:theta=0.5", "uniform:0,1"]
    assert main(["--grid", "11"] + spec + ["-o", str(small)]) == 0
    assert main(spec + ["-o", str(default)]) == 0
    assert len(json.loads(small.read_text())["knots"][0]) == 11
    assert len(json.loads(default.read_text())["knots"][0]) == 101


def test_convolve_with_itself_equals_a_copy(coupled_file, tmp_path, capsys,
                                            monkeypatch):
    copy = tmp_path / "G.json"
    copy.write_bytes(coupled_file.read_bytes())
    loads = []
    real_load = specs.load_json
    monkeypatch.setattr(specs, "load_json",
                        lambda path: loads.append(path) or real_load(path))
    capsys.readouterr()
    outputs = []
    for b, tag in ((coupled_file, "self"), (copy, "copy")):
        h, c = tmp_path / f"H_{tag}.json", tmp_path / f"H_{tag}.csv"
        loads.clear()
        assert main(["convolve", f"@{coupled_file}", f"@{b}", "-o", str(h),
                     "--csv", str(c)]) == 0
        outputs.append((capsys.readouterr().out, h.read_bytes(),
                        c.read_bytes(), len(loads)))
    (out1, json1, csv1, n1), (out2, json2, csv2, n2) = outputs
    assert (out1, json1, csv1) == (out2, json2, csv2)
    assert (n1, n2) == (1, 2)
