"""Every family spec is one entry of a per-kind table in ``bifreemax.specs``:
each entry parses, refuses missing and extra parameters, and the module
docstring and the README name exactly the table keys."""

import pathlib
import re

import pytest

from bifreemax import specs
from bifreemax.cli import main
from bifreemax.copulas import Copula, PickandsFn
from bifreemax.distributions import (
    DiscreteMeasure,
    GridBDF,
    GridUDF,
    UnivariateDF,
)
from bifreemax.extremes import gev_df
from bifreemax.serialize import dump_json, measure_to_obj, udf_to_obj

# one valid value per parameter name, shared by every family that uses it
_SAMPLE = {"a": 0.0, "b": 2.0, "x": 1.0, "y": 2.0, "mass": 0.5, "loc": 0.0,
           "scale": 1.5, "alpha": 2.0, "upper": 1.0, "xi": 0.2, "m": 2.0,
           "sigma": 1.5, "theta": 0.5, "p": 0.5, "phi": 0.25}

# kind -> (table, parser, result type, doc section label, README label)
_KINDS = {
    "marginal": (specs._MARGINALS, specs.parse_marginal, UnivariateDF,
                 "Marginal families:", "Marginals:"),
    "copula": (specs._COPULAS, specs.parse_copula, Copula,
               "Copula families:", "Copulas:"),
    "pickands": (specs._PICKANDS, specs.parse_pickands, PickandsFn,
                 "Pickands specs:", "Pickands functions:"),
    "measure": (specs._MEASURES, specs.parse_measure, DiscreteMeasure,
                "Measures:", "Measures ("),
    "bdf": (specs._BDFS, specs.parse_bdf, GridBDF,
            "Bivariate DFs:", "Bivariate DFs ("),
}

_ENTRIES = [(kind, name) for kind, (table, *_) in _KINDS.items()
            for name in table]


def _spec(name, params):
    return name + ":" + ",".join(f"{p}={_SAMPLE[p]!r}" for p in params)


@pytest.mark.parametrize("kind,name", _ENTRIES)
def test_every_entry_parses_by_keyword_and_position(kind, name):
    table, parse, cls, *_ = _KINDS[kind]
    _, params, _ = table[name]
    by_keyword = parse(_spec(name, params))
    assert isinstance(by_keyword, cls)
    positional = ",".join(repr(_SAMPLE[p]) for p in params)
    by_position = parse(f"{name}:{positional}" if params else name)
    assert type(by_position) is type(by_keyword)
    assert getattr(by_position, "params", None) == \
        getattr(by_keyword, "params", None)


@pytest.mark.parametrize("kind,name", _ENTRIES)
def test_every_entry_refuses_missing_and_extra_parameters(kind, name):
    table, parse, *_ = _KINDS[kind]
    _, params, defaults = table[name]
    required = params[:len(params) - len(defaults)]
    if required:
        with pytest.raises(specs.SpecError, match="missing parameter"):
            parse(_spec(name, params[:len(required) - 1]))
    with pytest.raises(specs.SpecError, match="unexpected parameters"):
        parse(_spec(name, params) + ("," if params else "") + "extra=1")


@pytest.mark.parametrize("kind", list(_KINDS))
def test_unknown_name_is_refused(kind):
    _, parse, *_ = _KINDS[kind]
    with pytest.raises(specs.SpecError, match="unknown"):
        parse("no-such-family:1")


def _named(section, tick):
    return set(re.findall(tick + r"([a-z][a-z-]*)(?=[:\[" + tick[0] + "])",
                          section))


def _sections(text, labels, end):
    out = {}
    for kind, label in labels.items():
        rest = text.split(label, 1)[1]
        cut = min((rest.index(other) for other in list(labels.values()) + [end]
                   if other != label and other in rest), default=len(rest))
        out[kind] = rest[:cut]
    return out


def _expected_names(kind):
    names = set(_KINDS[kind][0])
    if kind == "copula":
        names |= set(specs._NESTED_COPULAS)
    if kind == "pickands":
        names |= {"pickands-spectral", "spectral"}
    return names


@pytest.mark.parametrize("kind", list(_KINDS))
def test_module_docstring_lists_the_table(kind):
    labels = {k: v[3] for k, v in _KINDS.items()}
    section = _sections(specs.__doc__, labels, "\0")[kind]
    assert _named(section, "``") == _expected_names(kind)


@pytest.mark.parametrize("kind", list(_KINDS))
def test_readme_lists_the_table(kind):
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    text = text[text.index("Family specs use"):]
    labels = {k: v[4] for k, v in _KINDS.items()}
    section = _sections(text, labels, "Exit codes:")[kind]
    assert _named(section, "`") == _expected_names(kind)


class TestAliases:
    def test_pickands_aliases(self):
        t = [0.0, 0.3, 1.0]
        assert list(specs.parse_pickands("independence").eval(t)) == \
            list(specs.parse_pickands("one").eval(t))
        assert list(specs.parse_pickands("comonotone").eval(t)) == \
            list(specs.parse_pickands("lower").eval(t))

    def test_spectral_prefixes(self):
        a = specs.parse_pickands("spectral:dirac:0.5,0.5,2")
        b = specs.parse_pickands("pickands-spectral:dirac:0.5,0.5,2")
        # one atom at (1/2, 1/2) of mass 2: A(t) = max(t, 1 - t)
        assert a.eval(0.25) == b.eval(0.25) == 0.75

    def test_nested_copula_heads(self):
        assert specs.parse_copula("ev-pickands:lower").family == "ev-pickands"
        assert specs.parse_copula("bifree-pickands:one").eval(0.3, 0.5) == \
            pytest.approx(0.15)
        s = specs.parse_copula("survival-of:survival-of:fgm:0.2")
        assert s.eval(0.3, 0.6) == pytest.approx(
            specs.parse_copula("fgm:0.2").eval(0.3, 0.6))


class TestGevIndex:
    def test_frechet_and_weibull_types(self):
        f = specs.parse_marginal("frechet:2")
        w = specs.parse_marginal("weibull:2")
        assert f.params == gev_df(xi=0.5, m=1.0, sigma=0.5).params
        assert w.params == gev_df(xi=-0.5, m=-1.0, sigma=0.5).params

    @pytest.mark.parametrize("spec", ["frechet:0", "weibull:0",
                                      "frechet:-1", "weibull:alpha=-2"])
    def test_nonpositive_alpha_is_refused(self, spec):
        with pytest.raises(ValueError, match="alpha must be positive"):
            specs.parse_marginal(spec)

    @pytest.mark.parametrize("family", ["frechet", "weibull"])
    def test_cli_exit_four(self, family, capsys):
        assert main(["build", "coupled", "amh:0.5", f"{family}:0"]) == 4
        assert "alpha must be positive" in capsys.readouterr().err


class TestFileSpecs:
    def test_marginal_from_file(self, tmp_path):
        f = GridUDF([0.0, 1.0, 2.5], [0.2, 0.7, 1.0])
        path = tmp_path / "m.json"
        dump_json(udf_to_obj(f), path)
        g = specs.parse_marginal(f"@{path}")
        assert isinstance(g, GridUDF)
        assert list(g.eval([-1.0, 0.5, 1.0, 3.0])) == [0.0, 0.2, 0.7, 1.0]

    def test_file_of_another_kind_is_refused(self, tmp_path):
        path = tmp_path / "tau.json"
        dump_json(measure_to_obj(DiscreteMeasure([[1.0, 1.0]], [0.5])), path)
        assert specs.parse_measure(f"@{path}").total_mass == 0.5
        with pytest.raises(specs.SpecError, match="univariate grid DF"):
            specs.parse_marginal(f"@{path}")
        with pytest.raises(specs.SpecError, match="bivariate grid DF"):
            specs.parse_bdf(str(path))
