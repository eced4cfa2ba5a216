"""Family-spec mini-grammar shared by the CLI.

A spec is ``name`` or ``name:arg,arg,key=val,...`` with numeric arguments,
or ``@file.json`` to load a serialized grid or measure.  Nested specs keep
everything after the first colon, e.g. ``ev-pickands:logistic:m=2``.  Each
kind reads one table of ``name -> (constructor, parameters, defaults)``.

Marginal families: ``uniform[:a,b]``  ``dirac:x``  ``exponential[:loc,scale]``
``pareto:alpha[,scale]``  ``beta:alpha[,upper,scale]``  ``semicircle``
``gev:xi[,m,sigma]``  ``gumbel[:m,sigma]``  ``frechet:alpha``
``weibull:alpha`` (alpha > 0)  ``@file.json``  (exponential/pareto/beta are
the freely max-stable types; gev/gumbel/frechet/weibull the classical ones).

Copula families: ``independence``  ``comonotone``  ``amh:theta``
``fgm:theta``  ``clayton:p``  ``lomax:p,theta``  ``gumbel-mixed:theta``
``logistic:m``  ``marshall-olkin:theta,phi``  ``ev-pickands:<A>``
``bifree-pickands:<A>``  ``survival-of:<copula>``

Pickands specs: ``one`` or ``independence``  ``lower`` or ``comonotone``
``gumbel-mixed:theta``  ``logistic:m``  ``marshall-olkin:theta,phi``
``pickands-spectral:<measure>`` or ``spectral:<measure>``

Measures: ``dirac:x,y[,mass]``  ``@file.json``.  Bivariate DFs:
``dirac:x,y``  ``@file.json``  ``file.json``.
"""

from __future__ import annotations

from . import copulas as cp
from . import distributions as ds
from . import extremes as ex
from .serialize import load_json

__all__ = [
    "SpecError",
    "parse_spec",
    "parse_marginal",
    "parse_copula",
    "parse_pickands",
    "parse_measure",
    "parse_bdf",
]


class SpecError(ValueError):
    """Malformed or unknown family spec string."""


def parse_spec(text):
    """Split ``name:args`` into (name, positional floats, keyword floats)."""
    text = text.strip()
    if not text:
        raise SpecError("empty spec")
    name, _, rest = text.partition(":")
    args, kwargs = [], {}
    if rest:
        for part in rest.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" in part:
                k, _, v = part.partition("=")
                kwargs[k.strip()] = _num(v)
            else:
                args.append(_num(part))
    return name.strip().lower(), args, kwargs


def _num(text):
    try:
        return float(text)
    except ValueError as exc:
        raise SpecError(f"expected a number, got {text!r}") from exc


def _take(args, kwargs, names, defaults):
    """Bind positional/keyword numbers to parameter names."""
    out = []
    required = len(names) - len(defaults)
    for i, name in enumerate(names):
        if name in kwargs:
            out.append(kwargs.pop(name))
        elif args:
            out.append(args.pop(0))
        elif i >= required:
            out.append(defaults[i - required])
        else:
            raise SpecError(f"missing parameter {name!r}")
    if args or kwargs:
        extra = list(args) + list(kwargs)
        raise SpecError(f"unexpected parameters {extra!r}")
    return out


def _load(path, cls, what):
    obj = load_json(path)
    if not isinstance(obj, cls):
        raise SpecError(f"{path} does not hold a {what}")
    return obj


def _lookup(table, what, text):
    """Build the table entry named by ``text`` from its bound parameters."""
    name, args, kwargs = parse_spec(text)
    if name not in table:
        raise SpecError(f"unknown {what} {text!r}")
    ctor, names, defaults = table[name]
    return ctor(*_take(args, kwargs, names, defaults))


def _gev_index(alpha, sign):
    """Frechet (sign 1) or Weibull (sign -1) type of index alpha > 0."""
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    return ex.gev_df(xi=sign / alpha, m=sign, sigma=1.0 / alpha)


# name -> (constructor, parameter names, defaults of the trailing parameters)
_MARGINALS = {
    "uniform": (ds.uniform_df, ("a", "b"), (0.0, 1.0)),
    "dirac": (ds.dirac_df, ("x",), ()),
    "exponential": (ds.exponential_free_df, ("loc", "scale"), (0.0, 1.0)),
    "pareto": (ds.pareto_free_df, ("alpha", "scale"), (1.0,)),
    "beta": (ds.beta_free_df, ("alpha", "upper", "scale"), (0.0, 1.0)),
    "semicircle": (ds.semicircle_df, (), ()),
    "gev": (lambda xi, m, sigma: ex.gev_df(xi=xi, m=m, sigma=sigma),
            ("xi", "m", "sigma"), (0.0, 1.0)),
    "gumbel": (lambda m, sigma: ex.gev_df(xi=0.0, m=m, sigma=sigma),
               ("m", "sigma"), (0.0, 1.0)),
    "frechet": (lambda alpha: _gev_index(alpha, 1.0), ("alpha",), ()),
    "weibull": (lambda alpha: _gev_index(alpha, -1.0), ("alpha",), ()),
}

_PICKANDS = {
    "one": (cp.pickands_one, (), ()),
    "independence": (cp.pickands_one, (), ()),
    "lower": (cp.pickands_lower, (), ()),
    "comonotone": (cp.pickands_lower, (), ()),
    "gumbel-mixed": (cp.gumbel_mixed_pickands, ("theta",), ()),
    "logistic": (cp.logistic_pickands, ("m",), ()),
    "marshall-olkin": (cp.marshall_olkin_pickands, ("theta", "phi"), ()),
}

_COPULAS = {
    "independence": (cp.IndependenceCopula, (), ()),
    "comonotone": (cp.ComonotoneCopula, (), ()),
    "amh": (cp.AMHCopula, ("theta",), ()),
    "fgm": (cp.FGMCopula, ("theta",), ()),
    "clayton": (cp.ClaytonCopula, ("p",), ()),
    "lomax": (cp.LomaxCopula, ("p", "theta"), ()),
    "gumbel-mixed": (cp.GumbelMixedCopula, ("theta",), ()),
    "logistic": (cp.LogisticCopula, ("m",), ()),
    "marshall-olkin": (cp.MarshallOlkinCopula, ("theta", "phi"), ()),
}

_MEASURES = {
    "dirac": (lambda x, y, mass: ds.DiscreteMeasure([[x, y]], [mass]),
              ("x", "y", "mass"), (1.0,)),
}

_BDFS = {
    "dirac": (lambda x, y: ds.bdf_from_law(ds.DiscreteMeasure([[x, y]], [1.0])),
              ("x", "y"), ()),
}


def parse_marginal(text):
    if text.startswith("@"):
        return _load(text[1:], ds.UnivariateDF, "univariate grid DF")
    return _lookup(_MARGINALS, "marginal family", text)


def parse_pickands(text):
    if text.startswith("pickands-spectral:") or text.startswith("spectral:"):
        _, _, rest = text.partition(":")
        return cp.pickands_from_measure(parse_measure(rest))
    return _lookup(_PICKANDS, "Pickands family", text)


def parse_copula(text):
    head, _, rest = text.partition(":")
    nested = _NESTED_COPULAS.get(head.strip().lower())
    if nested is not None:
        return nested(rest)
    return _lookup(_COPULAS, "copula family", text)


# copula heads that wrap the spec after their colon
_NESTED_COPULAS = {
    "ev-pickands": lambda rest: cp.ev_copula(parse_pickands(rest)),
    "bifree-pickands": lambda rest: cp.bifree_copula(parse_pickands(rest)),
    "survival-of": lambda rest: cp.survival_copula(parse_copula(rest)),
}


def parse_measure(text):
    if text.startswith("@"):
        return _load(text[1:], ds.DiscreteMeasure, "discrete measure")
    return _lookup(_MEASURES, "measure spec", text)


def parse_bdf(text):
    if text.startswith("@") or text.endswith(".json"):
        # a file may hold any table; only a DF goes on to be judged
        return _load(text.removeprefix("@"), ds.GridBDF,
                     "bivariate grid DF").validate()
    return _lookup(_BDFS, "bivariate DF spec", text)
