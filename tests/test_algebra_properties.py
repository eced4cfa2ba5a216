"""Algebraic laws as properties: bi-free max-convolution of step DFs of
atomic laws is commutative and associative, and real convolution powers of
coupled laws form a semigroup, (F^(s))^(t) = F^(s*t), above both sides'
marginal lower bounds."""

import numpy as np
from hypothesis import given, settings, strategies as st

from bifreemax import (
    AMHCopula,
    CoupledBDF,
    DiscreteMeasure,
    GumbelMixedCopula,
    IndependenceCopula,
    LogisticCopula,
    bdf_from_law,
    bifree_maxconv,
    bifree_power,
    exponential_free_df,
    sup_distance,
    uniform_df,
)

# atoms on a 0.5-lattice of [0, 3]^2, so coordinates tie across laws
_atoms = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6),
                            st.integers(1, 20)), min_size=1, max_size=8)


def _law(atoms):
    a = np.array(atoms, dtype=float)
    return bdf_from_law(DiscreteMeasure(0.5 * a[:, :2], a[:, 2] / a[:, 2].sum()))


# every knot of the lattice, the points between them, and beyond it
PROBE = (np.linspace(-0.5, 3.5, 33), np.linspace(-0.5, 3.5, 33))


@settings(max_examples=60, deadline=None)
@given(a=_atoms, b=_atoms, c=_atoms)
def test_maxconv_of_laws_is_commutative_and_associative(a, b, c):
    F, G, K = _law(a), _law(b), _law(c)
    assert sup_distance(bifree_maxconv(F, G), bifree_maxconv(G, F), PROBE) \
        < 1e-12
    left = bifree_maxconv(bifree_maxconv(F, G), K)
    right = bifree_maxconv(F, bifree_maxconv(G, K))
    assert sup_distance(left, right, PROBE) < 1e-12


_copulas = st.one_of(
    st.just(IndependenceCopula()),
    st.floats(0.0, 1.0).map(AMHCopula),
    st.floats(0.0, 1.0).map(GumbelMixedCopula),
    st.floats(1.0, 4.0).map(LogisticCopula),
)
_marginals = st.sampled_from([uniform_df(0.0, 1.0), exponential_free_df(),
                              uniform_df(-1.0, 2.0)])
_powers = st.floats(0.2, 4.0)


def _axis(m1, m2):
    """Probe points above both lower bounds, out past the saturation.  The
    two sides are different representatives below the larger bound: for
    s > 1 > s*t, (F^(s))^(t) starts at the lower bound of F^(s), F^(s*t) at
    that of F."""
    lo = max(m1.support_lower, m2.support_lower)
    sat = m1.saturation
    hi = sat if np.isfinite(sat) else lo + 6.0
    return lo + (hi - lo) * np.concatenate([np.linspace(1e-3, 1.0, 24),
                                            [1.5, 3.0]])


@settings(max_examples=80, deadline=None)
@given(C=_copulas, m1=_marginals, m2=_marginals, s=_powers, t=_powers)
def test_powers_of_coupled_laws_form_a_semigroup(C, m1, m2, s, t):
    F = CoupledBDF(C, m1, m2)
    twice = bifree_power(bifree_power(F, s), t)
    once = bifree_power(F, s * t)
    probe = (_axis(twice.marginal1, once.marginal1),
             _axis(twice.marginal2, once.marginal2))
    assert sup_distance(twice, once, probe) <= 1e-9
