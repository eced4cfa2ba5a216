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
"""

from __future__ import annotations

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
    "fmt",
]


def fmt(v):
    """Round-trip decimal representation of a float."""
    return repr(float(v))


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
        "knots": [float(k) for k in g.knots],
        "values": [float(v) for v in g.values],
        "saturation": _opt(g.saturation),
    }


def udf_from_obj(obj):
    if obj.get("kind") != "grid":
        raise ValueError(f"expected kind 'grid', got {obj.get('kind')!r}")
    sat = obj.get("saturation")
    lo = obj.get("L")
    return GridUDF(obj["knots"], obj["values"],
                   support_lower=lo if lo is not None else None,
                   saturation=sat if sat is not None else None)


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
        "knots": [[float(k) for k in F.xknots], [float(k) for k in F.yknots]],
        "values": [[float(v) for v in row] for row in F.values],
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


def dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def write_surface_csv(path, xs, ys, values):
    """Surface CSV: header x,y,value; row-major over the probe lattice."""
    values = np.asarray(values)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,value\n")
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                fh.write(f"{fmt(x)},{fmt(y)},{fmt(values[i, j])}\n")


def write_report_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")
