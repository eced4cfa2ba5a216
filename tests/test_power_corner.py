"""The lower corner of a powered exponent-measure law, as a property: the
compound-Poisson limit of (1 - lam/n)*delta_p + (lam/n)*nu and
MeasureBDF(nu, p).power(lam) both sit above
L_j = max(p_j, inf{F_nu_j > 1 - 1/lam}) for lam > 1, and above p otherwise.

The atoms lie on a 0.5-lattice and carry masses m/64, padded with one atom
to total mass 1, so every partial sum of the masses is exact in floating
point and the strict inequality meets its ties."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bifreemax import DiscreteMeasure, MeasureBDF, compound_poisson_limit

_DENOM = 64
_atoms = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6),
                            st.integers(1, 10)), min_size=0, max_size=6)
_pad = st.tuples(st.integers(0, 6), st.integers(0, 6))
_corner = st.tuples(st.integers(-2, 8), st.integers(-2, 8))
_rates = st.sampled_from([0.25, 0.5, 1.0, 1.6, 2.0, 4.0, 8.0, 16.0, 20.0])


def _oracle(atoms, lam, p):
    """max(p_j, inf{F_nu_j > 1 - 1/lam}) per axis, on exact masses."""
    if not lam > 1.0:
        return p
    c = Fraction(1.0 - 1.0 / lam)
    corner = []
    for axis in range(2):
        coords = sorted({a[axis] for a in atoms})
        first = next(x for x in coords
                     if sum(a[2] for a in atoms if a[axis] <= x) > c)
        corner.append(max(p[axis], first))
    return tuple(corner)


@settings(max_examples=300, deadline=None)
@given(atoms=_atoms, pad=_pad, lam=_rates, corner=_corner)
def test_powered_corner_matches_the_exact_quantile(atoms, pad, lam, corner):
    rest = _DENOM - sum(m for _, _, m in atoms)
    atoms = atoms + [(*pad, rest)]
    exact = [(0.5 * i, 0.5 * j, Fraction(m, _DENOM)) for i, j, m in atoms]
    nu = DiscreteMeasure([[x, y] for x, y, _ in exact],
                         [float(m) for _, _, m in exact])
    p = (0.5 * corner[0], 0.5 * corner[1])
    want = _oracle(exact, lam, p)
    limit, _ = compound_poisson_limit(lam, nu, p, ns=[32])
    assert limit.lower == want
    assert MeasureBDF(nu, p).power(lam).lower == want
