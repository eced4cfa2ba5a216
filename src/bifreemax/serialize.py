"""JSON and CSV schemas for grids, measures, and report artifacts.

Grid DFs serialize losslessly:

* univariate: ``{"kind": "grid", "L": float, "knots": [...], "values": [...],
  "saturation": float | null}``
* bivariate:  ``{"kind": "grid2d", "L": [l1, l2], "knots": [[x...], [y...]],
  "values": [[...], ...], "marginals": [<grid>, <grid>]}``
* measures:   ``{"kind": "measure", "atoms": [[x, y, mass], ...]}``

Closed-form DFs are sampled onto grids before writing.  Surfaces emit CSV
with header ``x,y,value`` in row-major order; all floats use round-trip
(shortest exact) formatting, so identical inputs produce byte-identical
artifacts.

``dump_json`` writes exactly the bytes of ``json.dump(obj, fh, indent=2)``
followed by a newline.  It lays out dicts and nested lists itself and hands
each flat list of scalars to the C encoder of ``json.dumps``, which
``json.dump`` does not use once ``indent`` is set.  The CSV writers format
each axis value once, not once per cell, and the CLI prints its CSV to
stdout through the same line formatters.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .distributions import DiscreteMeasure, GridBDF, GridUDF, materialize

__all__ = [
    "udf_to_obj",
    "udf_from_obj",
    "bdf_to_obj",
    "bdf_from_obj",
    "measure_to_obj",
    "measure_from_obj",
    "load_json",
    "dump_json",
    "from_json_obj",
    "write_surface_csv",
    "write_report_csv",
    "surface_csv_lines",
    "report_csv_lines",
    "fmt",
]


def fmt(v):
    """Round-trip decimal representation of a float."""
    return repr(float(v))


def _floats(a):
    """An array as nested lists of Python floats."""
    return np.asarray(a, dtype=float).tolist()


def _opt(v):
    return None if not np.isfinite(v) else float(v)


def _grid_udf(F, knots=None):
    if isinstance(F, GridUDF):
        return F
    if knots is None:
        raise ValueError("sampling knots required to serialize a closed form")
    return GridUDF(knots, F.eval(np.asarray(knots, dtype=float)),
                   support_lower=F.support_lower if np.isfinite(F.support_lower)
                   else None,
                   saturation=F.saturation if np.isfinite(F.saturation) else None)


def udf_to_obj(F, knots=None):
    g = _grid_udf(F, knots)
    return {
        "kind": "grid",
        "L": _opt(g.support_lower),
        "knots": _floats(g.knots),
        "values": _floats(g.values),
        "saturation": _opt(g.saturation),
    }


def udf_from_obj(obj):
    if obj.get("kind") != "grid":
        raise ValueError(f"expected kind 'grid', got {obj.get('kind')!r}")
    return GridUDF(obj["knots"], obj["values"], support_lower=obj.get("L"),
                   saturation=obj.get("saturation"))


def bdf_to_obj(F, xknots=None, yknots=None):
    if not isinstance(F, GridBDF):
        if xknots is None or yknots is None:
            raise ValueError("sampling knots required to serialize a closed form")
        F = materialize(F, xknots, yknots)
    m1 = udf_to_obj(F.marginal1, F.xknots)
    m2 = udf_to_obj(F.marginal2, F.yknots)
    return {
        "kind": "grid2d",
        "L": [m1["L"], m2["L"]],
        "knots": [_floats(F.xknots), _floats(F.yknots)],
        "values": _floats(F.values),
        "marginals": [m1, m2],
    }


def bdf_from_obj(obj):
    if obj.get("kind") != "grid2d":
        raise ValueError(f"expected kind 'grid2d', got {obj.get('kind')!r}")
    xk, yk = obj["knots"]
    vals = np.asarray(obj["values"], dtype=float)
    if "marginals" in obj:
        m1 = udf_from_obj(obj["marginals"][0])
        m2 = udf_from_obj(obj["marginals"][1])
    else:
        # derive marginals from the outer row/column of the surface
        m1 = GridUDF(xk, vals[:, -1])
        m2 = GridUDF(yk, vals[-1, :])
    return GridBDF(m1, m2, xk, yk, vals)


def measure_to_obj(m: DiscreteMeasure):
    atoms = [[float(x), float(y), float(w)]
             for (x, y), w in zip(m.points, m.masses)]
    return {"kind": "measure", "atoms": atoms}


def measure_from_obj(obj):
    if obj.get("kind") != "measure":
        raise ValueError(f"expected kind 'measure', got {obj.get('kind')!r}")
    return DiscreteMeasure.from_atoms(obj["atoms"])


def from_json_obj(obj):
    """Dispatch a parsed JSON object on its ``kind`` field."""
    kind = obj.get("kind")
    if kind == "grid":
        return udf_from_obj(obj)
    if kind == "grid2d":
        return bdf_from_obj(obj)
    if kind == "measure":
        return measure_from_obj(obj)
    raise ValueError(f"unknown JSON kind {kind!r}")


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return from_json_obj(json.load(fh))


def _key_text(key):
    """A dict key as the stdlib encoder turns it into a string."""
    if isinstance(key, str):
        return key
    if isinstance(key, (float, int)) or key is None:
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _write_json(obj, write, pad):
    """Write ``obj`` as ``json.dump(indent=2)`` does, at indent ``pad``."""
    if isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key, value in obj.items():
            write(sep + json.dumps(_key_text(key)) + ": ")
            _write_json(value, write, inner)
            sep = ",\n" + inner
        write("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        inner = pad + "  "
        if not isinstance(obj[0], (list, tuple, dict)):
            text = json.dumps(obj)
            # with no string and no nested container other than [] or {}
            # (a non-empty dict shows a quote), the one-line text splits
            # into the indented layout at every ", "
            if text.find("[", 1) < 0 and '"' not in text:
                write("[\n" + inner + text[1:-1].replace(", ", ",\n" + inner)
                      + "\n" + pad + "]")
                return
        sep = "[\n" + inner
        for value in obj:
            write(sep)
            _write_json(value, write, inner)
            sep = ",\n" + inner
        write("\n" + pad + "]")
    else:
        write(json.dumps(obj))


def dump_json(obj, path):
    """Write ``obj`` as ``json.dump(obj, fh, indent=2)`` plus a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_json(obj, fh.write, "")
        fh.write("\n")


def surface_csv_lines(xs, ys, values):
    """The lines of a surface CSV: the header, then one string per x.

    Raises ``ValueError`` unless ``values`` has shape ``(len(xs), len(ys))``.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (len(xs), len(ys)):
        raise ValueError(f"surface values have shape {values.shape}, the "
                         f"axes need ({len(xs)}, {len(ys)})")
    ycells = [fmt(y) + "," for y in ys]
    rows = ("".join([f"{x},{yc}{v!r}\n"
                     for yc, v in zip(ycells, row.tolist())])
            for x, row in zip(map(fmt, xs), values))
    return itertools.chain(["x,y,value\n"], rows)


def write_surface_csv(path, xs, ys, values):
    """Surface CSV: header x,y,value; row-major over the probe lattice.

    A ``values`` shape other than ``(len(xs), len(ys))`` raises
    ``ValueError`` before the file is opened.
    """
    lines = surface_csv_lines(xs, ys, values)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def report_csv_lines(header, rows):
    """The lines of a report CSV: the header, then one string per row."""
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(fmt(v) if isinstance(v, float) else str(v)
                       for v in row) + "\n"


def write_report_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(report_csv_lines(header, rows))
