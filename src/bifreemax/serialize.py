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
followed by a newline, and lays the object out itself.  A table, that is a
list of equal-length flat lists of floats (a surface, the knot pair of a
square grid, measure atoms), is formatted through one text table
(``_Texts``): each distinct value once (told apart by bit pattern) with
``float.__repr__``, the text the stdlib encoder writes for a finite float,
and each cell takes its text from the table.  Every flat list goes to the
C encoder of ``json.dumps``.  ``surface_csv_lines`` takes its cells from
the same table, and ``write_grid`` writes one grid DF as JSON and as CSV
from one table of its values.  The CLI prints its CSV to stdout through
the same line formatters.
"""

from __future__ import annotations

import itertools
import json
import operator

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
    "write_grid",
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


# the JSON texts of the non-finite floats, which float.__repr__ spells
# nan, inf and -inf
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_NAN_BITS = np.float64(np.nan).view(np.int64)


class _Texts:
    """The texts of a float array, each distinct value formatted once.

    Values are told apart by their bit pattern, so ``-0.0`` and ``0.0`` keep
    their own texts, and every NaN payload shares the one text ``nan``.
    ``rows`` gathers the texts back into the array's rows.
    """

    __slots__ = ("shape", "_index", "_reprs", "_nonfinite")

    def __init__(self, values):
        a = np.asarray(values, dtype=float)
        bits = a.view(np.int64)
        nan = np.isnan(a)
        if nan.any():
            bits = np.where(nan, _NAN_BITS, bits)
        # a sort and a search: np.unique's hash path is slower here, and its
        # inverse holds several more arrays of the full size
        keys = np.sort(bits, axis=None)
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
        self.shape = a.shape
        self._index = np.searchsorted(keys, bits)
        keys = keys.view(float)
        self._reprs = np.array(list(map(float.__repr__, keys.tolist())),
                               dtype=object)
        self._nonfinite = np.flatnonzero(~np.isfinite(keys))

    def rows(self, for_json=False):
        """Each row's texts as a list of str (a 1-D array is one row);
        ``for_json`` spells NaN and +-inf ``NaN``, ``Infinity`` and
        ``-Infinity``."""
        texts = self._reprs
        if for_json and self._nonfinite.size:
            texts = texts.copy()
            for k in self._nonfinite:
                texts[k] = _JSON_NONFINITE[texts[k]]
        for index in np.atleast_2d(self._index):
            yield texts[index].tolist()


def _float_texts(items):
    """The text table of a list of equal-length non-empty flat lists of
    floats; None for any other non-empty list."""
    width = len(items[0]) if isinstance(items[0], (list, tuple)) else 0
    if not width or any(not isinstance(row, (list, tuple))
                        or len(row) != width for row in items):
        return None
    cells = itertools.chain.from_iterable(items)
    if not all(issubclass(t, float) for t in set(map(type, cells))):
        return None
    return _Texts(items)


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
    return _grid2d_obj(F, _floats(F.values))


def _grid2d_obj(F, values):
    """The ``grid2d`` object of a ``GridBDF`` with ``values`` as its surface:
    nested lists, or the ``_Texts`` of ``F.values``."""
    m1 = udf_to_obj(F.marginal1, F.xknots)
    m2 = udf_to_obj(F.marginal2, F.yknots)
    return {
        "kind": "grid2d",
        "L": [m1["L"], m2["L"]],
        "knots": [_floats(F.xknots), _floats(F.yknots)],
        "values": values,
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
        if vals.ndim != 2 or vals.size == 0:
            raise ValueError("grid2d values must be a nonempty 2-D table")
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


def _block(texts, pad):
    """Encoded items laid out one per line in brackets at indent ``pad``."""
    inner = pad + "  "
    return "[\n" + inner + (",\n" + inner).join(texts) + "\n" + pad + "]"


def _write_json(obj, write, pad):
    """Write ``obj`` as ``json.dump(indent=2)`` does, at indent ``pad``.

    A non-empty 2-D ``_Texts`` stands for the nested lists of its values."""
    if isinstance(obj, (list, tuple)) and obj:
        obj = _float_texts(obj) or obj
    if isinstance(obj, _Texts):
        inner = pad + "  "
        sep = "[\n" + inner
        for texts in obj.rows(for_json=True):
            write(sep + _block(texts, inner))
            sep = ",\n" + inner
        write("\n" + pad + "]")
    elif isinstance(obj, dict):
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
                write(_block(text[1:-1].split(", "), pad))
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


def write_grid(F, json_path=None, csv_path=None):
    """Write a ``GridBDF``'s ``grid2d`` JSON to ``json_path`` and its surface
    CSV to ``csv_path``, where given, from one text table of its values: the
    bytes of ``dump_json(bdf_to_obj(F))`` and ``write_surface_csv``, with
    each distinct value formatted once for both files."""
    if not (json_path or csv_path):
        return
    texts = _Texts(F.values)
    if json_path:
        dump_json(_grid2d_obj(F, texts), json_path)
    if csv_path:
        write_surface_csv(csv_path, F.xknots, F.yknots, texts)


def surface_csv_lines(xs, ys, values):
    """The lines of a surface CSV: the header, then one string per x.

    ``values`` is an array or the ``_Texts`` of one.  Raises ``ValueError``
    unless it has shape ``(len(xs), len(ys))``.
    """
    texts = values if isinstance(values, _Texts) else _Texts(values)
    if texts.shape != (len(xs), len(ys)):
        raise ValueError(f"surface values have shape {texts.shape}, the "
                         f"axes need ({len(xs)}, {len(ys)})")
    ycells = [fmt(y) + "," for y in ys]

    def row(x, cells):
        head = fmt(x) + ","
        body = ("\n" + head).join(map(operator.add, ycells, cells))
        return head + body + "\n" if body else ""

    return itertools.chain(["x,y,value\n"], map(row, xs, texts.rows()))


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
