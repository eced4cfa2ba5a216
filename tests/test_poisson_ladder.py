"""The compound-Poisson ladder read off one set of quadrant sums of nu.

Rung n of ``compound_poisson_limit`` is the law (1 - s)*delta_p + s*nu with
s = lam/n.  Its gap to the limit on the knot lattice has a closed form in
the masses of nu's quadrants, so the ladder builds no step DF of nu and no
step DF or power per rung, and the limit is built once.  Against the
per-rung oracle (the power of each rung's own step DF) the distances agree
to 1e-13 on rungs up to 64, where the oracle rounds within a few n ulps.
The limit, its lower corner and its ``--limit-output`` bytes keep the bits
they had when every rung was built.
"""

import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bifreemax import (
    DiscreteMeasure,
    GridUDF,
    MeasureBDF,
    bdf_from_law,
    compound_poisson_limit,
    law_from_bdf,
)
from bifreemax import cli
from bifreemax import convolution as cv
from bifreemax.serialize import dump_json, measure_to_obj

from test_ratio_kernels import _ladder_per_n

THREE = DiscreteMeasure([[1.0, 2.0], [2.0, 1.0], [0.5, 0.5]], [0.4, 0.4, 0.2])
FIVE = DiscreteMeasure([[0.25, 2.5], [1.0, 1.75], [1.5, 0.5], [2.25, 2.0],
                        [2.75, 1.25]], [0.1, 0.3, 0.2, 0.25, 0.15])


def _law(seed, k):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 3.0, size=(k, 2))
    if rng.integers(2):
        # shared coordinates: atoms on a half-unit lattice
        pts = np.round(2.0 * pts) / 2.0
    return DiscreteMeasure(pts, rng.dirichlet(np.ones(k)))


def _corner(nu, where, seed):
    lo, hi = nu.points.min(axis=0), nu.points.max(axis=0)
    if where == "origin":
        return (0.0, 0.0)
    if where == "below":
        return (float(lo[0]) - 0.5, float(lo[1]) - 1.0)
    rng = np.random.default_rng(seed + 1)
    return tuple(float(v) for v in rng.uniform(lo, hi))


def _digest(values):
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# the ladder against one power per rung
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 2), k=st.integers(1, 25),
       lam=st.one_of(st.floats(0.05, 0.95), st.just(1.0),
                     st.floats(1.05, 9.0)),
       where=st.sampled_from(["origin", "inside", "below"]),
       as_grid=st.booleans())
def test_the_ladder_matches_one_power_per_rung(seed, k, lam, where, as_grid):
    nu = _law(seed, k)
    p = _corner(nu, where, seed)
    first = math.ceil(lam)
    ns = [first] + [2 ** j for j in range(1, 7) if 2 ** j > first]
    given_nu = bdf_from_law(nu) if as_grid else nu
    limit, report = compound_poisson_limit(lam, given_nu, p, ns=ns)
    law = law_from_bdf(given_nu) if as_grid else nu
    want = np.array(_ladder_per_n(lam, law, p, ns, limit))
    assert report.ns == tuple(ns)
    assert np.max(np.abs(np.array(report.distances) - want)) <= 1e-13
    assert report.final == report.distances[-1]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 2), k=st.integers(1, 25),
       lam=st.floats(0.05, 9.0),
       where=st.sampled_from(["origin", "inside", "below"]))
def test_the_limit_is_the_powered_measure_law(seed, k, lam, where):
    nu = _law(seed, k)
    p = _corner(nu, where, seed)
    limit, _ = compound_poisson_limit(lam, nu, p, ns=[math.ceil(lam)])
    want = MeasureBDF(nu, p).power(lam)
    assert limit.lower == want.lower
    xs = np.linspace(-1.5, 4.0, 45)
    x, y = xs[:, None], xs[None, :]
    assert _digest(limit.eval(x, y)) == _digest(want.eval(x, y))


@pytest.mark.parametrize("lam, nu, p, lower, digest", [
    (0.8, THREE, (0.0, 0.0), (0.0, 0.0),
     "9c6f39080a8fb6c15b1e255c4b60a970c10caa6cb4f9e52f26d66aeab72e2668"),
    (1.6, FIVE, (0.5, 0.25), (1.0, 1.75),
     "57f459fa7221e3f552e343034d1d713bfd5a2f3ead7a9741d114dc548268916e"),
])
def test_the_limit_keeps_its_bits(lam, nu, p, lower, digest):
    # digests of the limit's values when every rung built its own power
    limit, _ = compound_poisson_limit(lam, nu, p, ns=[2, 4])
    assert limit.lower == lower
    xs = np.linspace(-0.5, 3.5, 33)
    assert _digest(limit.eval(xs[:, None], xs[None, :])) == digest


@settings(max_examples=60, deadline=None)
@given(p=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       offset=st.tuples(st.sampled_from([0.0, 0.25, 1.0]),
                        st.floats(0.0, 2.0)),
       num=st.integers(1, 63), log2_den=st.integers(0, 5))
def test_a_single_atom_is_its_limit_at_every_rung(p, offset, num, log2_den):
    # a dyadic rate and power-of-two rungs make every rung mass exact
    lam = num / 2.0 ** log2_den
    nu = DiscreteMeasure([[p[0] + offset[0], p[1] + offset[1]]], [1.0])
    ns = [2 ** j for j in range(11) if 2 ** j >= lam]
    _, report = compound_poisson_limit(lam, nu, p, ns=ns)
    assert report.distances == (0.0,) * len(ns)


# ---------------------------------------------------------------------------
# one set of quadrant sums per call, and the limit built once
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("as_grid", [False, True])
def test_one_step_df_and_no_power_whatever_the_ladder(monkeypatch, as_grid):
    nu = _law(11, 20)
    given_nu = bdf_from_law(nu) if as_grid else nu
    counts = {"bdf_from_law": 0, "PowerBDF": 0, "GridUDF": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # every module of the package that binds bdf_from_law
    for module in [m for name, m in sys.modules.items()
                   if name.split(".")[0] == "bifreemax"
                   and hasattr(m, "bdf_from_law")]:
        monkeypatch.setattr(module, "bdf_from_law",
                            counting("bdf_from_law", module.bdf_from_law))
    monkeypatch.setattr(cv.PowerBDF, "__init__",
                        counting("PowerBDF", cv.PowerBDF.__init__))
    monkeypatch.setattr(GridUDF, "__init__",
                        counting("GridUDF", GridUDF.__init__))
    seen = []
    for ns in ([2], [2, 4, 8], [2 ** j for j in range(1, 11)]):
        for name in counts:
            counts[name] = 0
        compound_poisson_limit(0.7, given_nu, (0.0, 0.0), ns=ns)
        assert counts["bdf_from_law"] == 0
        assert counts["PowerBDF"] == 0
        seen.append(counts["GridUDF"])
    # the two marginals of the limit, whatever the number of rungs: no step
    # DF of nu and no MeasureBDF(nu, p) to be powered
    assert seen == [2, 2, 2]


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nu_spec, lam, p, digest", [
    ("dirac:1,1", "0.5", "0,0",
     "eca574436643174dc946683fe89bd16f5d7dbbeb5247ff2389b66597952ee77d"),
    (THREE, "0.8", "0,0",
     "b3ac9f093bf918cae44814e996c08b1bd5c26ab614dad95df7165ca9c61e29ff"),
    (FIVE, "1.6", "0.5,0.25",
     "1eeacc7d5062cf1e1044ce0e376bdf23a0500828eb574ecf8d741c3e48a99fc0"),
])
def test_limit_output_keeps_its_bytes(tmp_path, capsys, nu_spec, lam, p,
                                      digest):
    # digests of the files written when every rung built its own power
    if isinstance(nu_spec, DiscreteMeasure):
        dump_json(measure_to_obj(nu_spec), tmp_path / "nu.json")
        nu_spec = f"@{tmp_path / 'nu.json'}"
    out = tmp_path / "limit.json"
    assert cli.main(["experiment", "compound-poisson", "--lam", lam, "--nu",
                     nu_spec, "--p", p, "-o", str(tmp_path / "cp.csv"),
                     "--limit-output", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
