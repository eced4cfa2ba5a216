"""Each law and constructor is defined once: the constructor spellings are
the classes themselves, and every exported name imports."""

import importlib

import pytest

import bifreemax
from bifreemax import convolution, copulas

MODULES = ["cli", "convolution", "copulas", "distributions", "extremes",
           "gaussian", "quadrature", "serialize", "specs"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_imports(name):
    mod = importlib.import_module(f"bifreemax.{name}")
    for attr in getattr(mod, "__all__", []):
        assert hasattr(mod, attr), attr


def test_constructor_spellings_are_the_classes():
    assert bifreemax.ev_copula is bifreemax.EVCopula
    assert bifreemax.bifree_copula is bifreemax.BiFreeCopula
    assert bifreemax.survival_copula is bifreemax.SurvivalCopula
    assert bifreemax.from_exponent_measure is bifreemax.MeasureBDF
    assert bifreemax.maxid_from_tail_functional is convolution.ExpTailBDF
    assert copulas.FuncPickands is copulas.PickandsFn
