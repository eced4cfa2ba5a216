"""The compound-Poisson ladder against exact rational arithmetic.

On dyadic laws (atoms on a half-unit lattice, masses k/1024) the rungs, the
limit and their gaps are rational, and ``exact_ladder`` computes them with
``fractions.Fraction`` from the definitions.  Every distance of
``compound_poisson_limit`` must lie within 1e-14 relative or 1e-16 absolute
of the exact one, at every rung up to n = 2^60, for rates on both sides of
1 and corners at the origin, inside the atoms and below them.
"""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bifreemax import DiscreteMeasure, compound_poisson_limit

import exact_ladder

_DENOM = 1024
_RUNGS = (2, 8, 64, 1024, 2 ** 20, 2 ** 40, 2 ** 60)
_RATES = [0.3, 0.5, 0.75, 1.0, 1.6, 3.0, 7.0]

_atoms = st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8),
                            st.integers(1, 200)), min_size=0, max_size=5)
_pad = st.tuples(st.integers(0, 8), st.integers(0, 8))


def _law(atoms, pad):
    """Atoms on the half-unit lattice with masses k/1024, padded with one
    atom to total mass 1."""
    cells = atoms + [(*pad, _DENOM - sum(m for _, _, m in atoms))]
    return [(0.5 * i, 0.5 * j, m / _DENOM) for i, j, m in cells]


def _corner(law, where, pick):
    """p at the origin, below every atom, or at a half-unit point inside the
    atoms' bounding box."""
    if where == "origin":
        return (0.0, 0.0)
    lo = [min(a[axis] for a in law) for axis in (0, 1)]
    hi = [max(a[axis] for a in law) for axis in (0, 1)]
    if where == "below":
        return (lo[0] - 0.5, lo[1] - 1.0)
    steps = [int(2 * (h - l)) + 1 for l, h in zip(lo, hi)]
    return (lo[0] + 0.5 * (pick % steps[0]), hi[1] - 0.5 * (pick % steps[1]))


def _ladder(lam):
    return sorted({math.ceil(lam), *_RUNGS} - {n for n in _RUNGS if n < lam})


def test_the_reference_is_exact_on_a_single_atom():
    # rung n of a single atom is its limit: the gap is 0 at every n
    atoms = [(1.0, 1.0, 1.0)]
    target = exact_ladder.limit(atoms, 0.5, (0.0, 0.0))
    half = Fraction(1, 2)
    assert target == [[half, half], [half, 1]]
    assert all(exact_ladder.gap(atoms, 0.5, (0.0, 0.0), n, target) == 0
               for n in (1, 2, 1024))


@settings(max_examples=60, deadline=None)
@given(atoms=_atoms, pad=_pad, lam=st.sampled_from(_RATES),
       where=st.sampled_from(["origin", "inside", "below"]),
       pick=st.integers(0, 64))
def test_every_distance_is_exact_to_a_few_ulps(atoms, pad, lam, where, pick):
    law = _law(atoms, pad)
    p = _corner(law, where, pick)
    ns = _ladder(lam)
    nu = DiscreteMeasure([[x, y] for x, y, _ in law], [m for _, _, m in law])
    limit, report = compound_poisson_limit(lam, nu, p, ns=ns)
    assert limit.lower == tuple(float(v) for v in
                                exact_ladder.corner(law, lam, p))
    target = exact_ladder.limit(law, lam, p)
    for n, d in zip(report.ns, report.distances):
        want = float(exact_ladder.gap(law, lam, p, n, target))
        assert math.isclose(d, want, rel_tol=1e-14, abs_tol=1e-16), \
            (n, d, want)


def test_the_dirac_ladder_is_zero_to_two_to_the_sixty():
    # one atom: every rung is its limit, at every n
    nu = DiscreteMeasure([[1.0, 1.0]], [1.0])
    ns = [2 ** k for k in range(1, 61)]
    _, report = compound_poisson_limit(1.0, nu, (0.0, 0.0), ns=ns)
    assert report.distances == (0.0,) * len(ns)


def test_the_rate_of_the_gap_is_its_closed_form_constant():
    # n*gap -> lam^2*H1*H2*c1*c2/D^2 at the knot of the greatest gap
    law = [(0.5, 1.5, 0.25), (1.0, 0.5, 0.5), (2.0, 2.0, 0.25)]
    nu = DiscreteMeasure([[x, y] for x, y, _ in law], [m for _, _, m in law])
    lam, p = 0.75, (0.0, 0.0)
    _, report = compound_poisson_limit(lam, nu, p, ns=[2 ** 30, 2 ** 40])
    want = float(exact_ladder.rate(law, lam, p))
    for n, dist in zip(report.ns, report.distances):
        assert math.isclose(n * dist, want, rel_tol=1e-8)
