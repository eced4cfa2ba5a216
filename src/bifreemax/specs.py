"""Family-spec mini-grammar shared by the CLI.

A spec is ``name`` or ``name:arg,arg,key=val,...`` with numeric arguments,
or ``@file.json`` to load a serialized grid or measure.  Nested specs keep
everything after the first colon, e.g. ``ev-pickands:logistic:m=2``.

Marginal families: ``uniform:a,b``  ``dirac:x``  ``exponential[:loc,scale]``
``pareto:alpha[,scale]``  ``beta:alpha[,upper,scale]``  ``semicircle``
``gev:xi,m,sigma``  ``gumbel[:m,sigma]``  ``frechet:alpha``
``weibull:alpha``  (exponential/pareto/beta are the freely max-stable
types; gev/gumbel/frechet/weibull are the classical ones).

Copula families: ``independence``  ``comonotone``  ``amh:theta``
``fgm:theta``  ``clayton:p``  ``lomax:p,theta``  ``gumbel-mixed:theta``
``logistic:m``  ``marshall-olkin:theta,phi``  ``ev-pickands:<A>``
``bifree-pickands:<A>``  ``survival-of:<copula>``

Pickands specs: ``one``  ``lower``  ``gumbel-mixed:theta``  ``logistic:m``
``marshall-olkin:theta,phi``  ``pickands-spectral:@file.json``
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


def _take(args, kwargs, names, defaults=()):
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


def parse_marginal(text):
    if text.startswith("@"):
        obj = load_json(text[1:])
        if not isinstance(obj, ds.UnivariateDF):
            raise SpecError(f"{text[1:]} does not hold a univariate grid DF")
        return obj
    name, args, kwargs = parse_spec(text)
    if name == "uniform":
        a, b = _take(args, kwargs, ("a", "b"), (0.0, 1.0))
        return ds.uniform_df(a, b)
    if name == "dirac":
        (a,) = _take(args, kwargs, ("x",))
        return ds.dirac_df(a)
    if name == "exponential":
        loc, scale = _take(args, kwargs, ("loc", "scale"), (0.0, 1.0))
        return ds.exponential_free_df(loc, scale)
    if name == "pareto":
        alpha, scale = _take(args, kwargs, ("alpha", "scale"), (1.0,))
        return ds.pareto_free_df(alpha, scale)
    if name == "beta":
        alpha, upper, scale = _take(args, kwargs,
                                    ("alpha", "upper", "scale"), (0.0, 1.0))
        return ds.beta_free_df(alpha, upper, scale)
    if name == "semicircle":
        _take(args, kwargs, ())
        return ds.semicircle_df()
    if name == "gev":
        xi, m, sigma = _take(args, kwargs, ("xi", "m", "sigma"), (0.0, 1.0))
        return ex.gev_df(xi=xi, m=m, sigma=sigma)
    if name == "gumbel":
        m, sigma = _take(args, kwargs, ("m", "sigma"), (0.0, 1.0))
        return ex.gev_df(xi=0.0, m=m, sigma=sigma)
    if name == "frechet":
        (alpha,) = _take(args, kwargs, ("alpha",))
        return ex.gev_df(xi=1.0 / alpha, m=1.0, sigma=1.0 / alpha)
    if name == "weibull":
        (alpha,) = _take(args, kwargs, ("alpha",))
        return ex.gev_df(xi=-1.0 / alpha, m=-1.0, sigma=1.0 / alpha)
    raise SpecError(f"unknown marginal family {text!r}")


def parse_pickands(text):
    if text.startswith("pickands-spectral:") or text.startswith("spectral:"):
        _, _, rest = text.partition(":")
        return cp.pickands_from_measure(parse_measure(rest))
    name, args, kwargs = parse_spec(text)
    if name in ("one", "independence"):
        _take(args, kwargs, ())
        return cp.pickands_one()
    if name in ("lower", "comonotone"):
        _take(args, kwargs, ())
        return cp.pickands_lower()
    if name == "gumbel-mixed":
        (theta,) = _take(args, kwargs, ("theta",))
        return cp.gumbel_mixed_pickands(theta)
    if name == "logistic":
        (m,) = _take(args, kwargs, ("m",))
        return cp.logistic_pickands(m)
    if name == "marshall-olkin":
        theta, phi = _take(args, kwargs, ("theta", "phi"))
        return cp.marshall_olkin_pickands(theta, phi)
    raise SpecError(f"unknown Pickands family {text!r}")


def parse_copula(text):
    head, _, rest = text.partition(":")
    head = head.strip().lower()
    if head == "ev-pickands":
        return cp.ev_copula(parse_pickands(rest))
    if head == "bifree-pickands":
        return cp.bifree_copula(parse_pickands(rest))
    if head == "survival-of":
        return cp.survival_copula(parse_copula(rest))
    name, args, kwargs = parse_spec(text)
    if name == "independence":
        _take(args, kwargs, ())
        return cp.IndependenceCopula()
    if name == "comonotone":
        _take(args, kwargs, ())
        return cp.ComonotoneCopula()
    if name == "amh":
        (theta,) = _take(args, kwargs, ("theta",))
        return cp.AMHCopula(theta)
    if name == "fgm":
        (theta,) = _take(args, kwargs, ("theta",))
        return cp.FGMCopula(theta)
    if name == "clayton":
        (p,) = _take(args, kwargs, ("p",))
        return cp.ClaytonCopula(p)
    if name == "lomax":
        p, theta = _take(args, kwargs, ("p", "theta"))
        return cp.LomaxCopula(p, theta)
    if name == "gumbel-mixed":
        (theta,) = _take(args, kwargs, ("theta",))
        return cp.GumbelMixedCopula(theta)
    if name == "logistic":
        (m,) = _take(args, kwargs, ("m",))
        return cp.LogisticCopula(m)
    if name == "marshall-olkin":
        theta, phi = _take(args, kwargs, ("theta", "phi"))
        return cp.MarshallOlkinCopula(theta, phi)
    raise SpecError(f"unknown copula family {text!r}")


def parse_measure(text):
    if text.startswith("@"):
        obj = load_json(text[1:])
        if not isinstance(obj, ds.DiscreteMeasure):
            raise SpecError(f"{text[1:]} does not hold a discrete measure")
        return obj
    name, args, kwargs = parse_spec(text)
    if name == "dirac":
        x, y, mass = _take(args, kwargs, ("x", "y", "mass"), (1.0,))
        return ds.DiscreteMeasure([[x, y]], [mass])
    raise SpecError(f"unknown measure spec {text!r}")


def parse_bdf(text):
    if text.startswith("@"):
        obj = load_json(text[1:])
        if not isinstance(obj, ds.GridBDF):
            raise SpecError(f"{text[1:]} does not hold a bivariate grid DF")
        return obj
    if text.endswith(".json"):
        return parse_bdf("@" + text)
    name, args, kwargs = parse_spec(text)
    if name == "dirac":
        x, y = _take(args, kwargs, ("x", "y"))
        return ds.bdf_from_law(ds.DiscreteMeasure([[x, y]], [1.0]))
    raise SpecError(f"unknown bivariate DF spec {text!r}")
