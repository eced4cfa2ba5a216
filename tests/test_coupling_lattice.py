"""One denominator lattice per coupling check.

``check_maxid_coupling`` evaluates f once on its probe lattice; every family
reads its positivity off that f, as uv / f by the rule of a ratio form's
``eval``, and the probe axes come from a read-only cache per ``grid_n``.
Every verdict must keep the ``repr`` of the list-based oracle of
``test_streamed_checks.py``, for the ratio forms and for the survival, EV,
grid and comonotone families.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bifreemax import (
    AMHCopula,
    ClaytonCopula,
    ComonotoneCopula,
    EVCopula,
    FGMCopula,
    GridCopula,
    GumbelMixedCopula,
    LogisticCopula,
    LomaxCopula,
    SupportError,
    SurvivalCopula,
    check_maxid_coupling,
    gumbel_mixed_pickands,
    logistic_pickands,
    marshall_olkin_pickands,
    pickands_lower,
    pickands_one,
    power_transform,
)
from bifreemax.copulas import _FFormCopula, _probe_axes

from test_streamed_checks import (
    LATTICE_101,
    _bits,
    _copula_id,
    _outcome,
    _peak_bytes,
    oracle_check_maxid_coupling,
)


# ---------------------------------------------------------------------------
# the verdicts of the list-based oracle
# ---------------------------------------------------------------------------

unit = st.floats(0.0, 1.0)
signed = st.floats(-1.0, 1.0)


@st.composite
def lomax(draw):
    p = draw(st.floats(0.05, 4.0))
    return LomaxCopula(p, draw(st.floats(-p, 1.0)))


ratio_forms = st.one_of(
    signed.map(AMHCopula),
    signed.map(FGMCopula),
    st.floats(0.05, 4.0).map(ClaytonCopula),
    lomax(),
    unit.map(GumbelMixedCopula),
    st.floats(1.0, 6.0).map(LogisticCopula),
)
copulas = st.one_of(
    ratio_forms,
    st.tuples(ratio_forms, st.floats(0.05, 1.0)).map(
        lambda bp: power_transform(*bp)),
)


@settings(max_examples=120, deadline=None)
@given(copulas, st.integers(3, 120), st.sampled_from(["grid", "smooth"]))
def test_verdicts_match_the_list_oracle(C, grid_n, mode):
    assert _outcome(check_maxid_coupling, C, mode=mode, grid_n=grid_n) == \
        _outcome(oracle_check_maxid_coupling, C, mode=mode, grid_n=grid_n)


@st.composite
def grid_copulas(draw):
    """The checkerboard of a ratio form tabulated on drawn knots."""
    C = draw(ratio_forms)
    inner = draw(st.lists(st.floats(0.01, 0.99), max_size=8, unique=True))
    knots = np.unique(np.concatenate(([0.0, 1.0], inner)))
    return GridCopula(knots, knots, C.eval(knots[:, None], knots[None, :]))


# families without a closed-form f: positivity is read off the generic f
non_ratio = st.one_of(
    copulas.map(SurvivalCopula),
    st.one_of(
        st.just(pickands_one()),
        st.just(pickands_lower()),
        unit.map(gumbel_mixed_pickands),
        st.floats(1.0, 6.0).map(logistic_pickands),
        st.tuples(unit, unit).map(lambda tp: marshall_olkin_pickands(*tp)),
    ).map(EVCopula),
    st.just(ComonotoneCopula()),
    grid_copulas(),
    # the checkerboard of the lower Frechet bound, zero near the origin
    st.just(GridCopula([0.0, 0.5, 1.0], [0.0, 0.5, 1.0],
                       [[0.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.5, 1.0]])),
)


@settings(max_examples=80, deadline=None)
@given(non_ratio, st.integers(3, 60), st.sampled_from(["grid", "smooth"]))
def test_non_ratio_verdicts_match_the_list_oracle(C, grid_n, mode):
    # smooth mode refuses a kinked family with the oracle's ValueError
    assert _outcome(check_maxid_coupling, C, mode=mode, grid_n=grid_n) == \
        _outcome(oracle_check_maxid_coupling, C, mode=mode, grid_n=grid_n)


def test_infinite_stencil_probes_fail_without_a_warning():
    # f is +inf on both probes of the first df/du stencil: their difference
    # is NaN, which fails the check, and no RuntimeWarning is raised
    C = SurvivalCopula(power_transform(AMHCopula(-1.0), 0.5))
    verdict = check_maxid_coupling(C, mode="smooth", grid_n=3)
    assert not verdict.member
    assert verdict.witness.check == "df/du lower"
    assert verdict.witness.point == (2e-05, 2e-05)
    assert np.isnan(verdict.witness.quantity)
    assert repr(verdict) == repr(
        oracle_check_maxid_coupling(C, mode="smooth", grid_n=3))


def test_grid_n_keys_the_axes_as_an_integer():
    # an integer numpy scalar shares the int's axes; a float stays refused
    # once the int's axes are cached
    C = AMHCopula(0.5)
    for mode in ("grid", "smooth"):
        want = repr(check_maxid_coupling(C, mode=mode, grid_n=41))
        assert repr(check_maxid_coupling(C, mode=mode,
                                         grid_n=np.int64(41))) == want
        with pytest.raises(TypeError):
            check_maxid_coupling(C, mode=mode, grid_n=41.0)


# ---------------------------------------------------------------------------
# one f per lattice
# ---------------------------------------------------------------------------

class _CountingAMH(AMHCopula):
    def __init__(self, theta):
        super().__init__(theta)
        self.f_calls = 0
        self.eval_calls = 0

    def _f(self, u, v):
        self.f_calls += 1
        return super()._f(u, v)

    def eval(self, u, v):
        self.eval_calls += 1
        return super().eval(u, v)


class _CountingSurvival(SurvivalCopula):
    eval_calls = 0

    def eval(self, u, v):
        self.eval_calls += 1
        return super().eval(u, v)


@pytest.mark.parametrize("mode, f_calls", [("grid", 1), ("smooth", 9)])
def test_a_ratio_form_evaluates_f_once_per_lattice(mode, f_calls):
    # the lattice, and in smooth mode the eight shifted lattices of the
    # stencil; positivity comes from the lattice's f, not from eval
    C = _CountingAMH(0.5)
    got = check_maxid_coupling(C, mode=mode)
    assert (C.f_calls, C.eval_calls) == (f_calls, 0)
    assert repr(got) == repr(check_maxid_coupling(AMHCopula(0.5), mode=mode))


def test_other_families_test_positivity_through_eval():
    # one eval, under the generic denominator; positivity is read off f
    C = _CountingSurvival(AMHCopula(0.5))
    got = check_maxid_coupling(C)
    assert C.eval_calls == 1
    assert repr(got) == repr(oracle_check_maxid_coupling(
        SurvivalCopula(AMHCopula(0.5))))


class _InfRow(_FFormCopula):
    """A smooth ratio family whose denominator is +inf on one probe row,
    where uv / f is 0."""

    family = "inf-row"
    smooth = True

    def _f(self, u, v):
        out = 1.0 - 0.5 * (1.0 - u) * (1.0 - v)
        return np.where(np.abs(u - 0.5) < 0.02, np.inf, out)


@pytest.mark.parametrize("mode", ["grid", "smooth"])
def test_an_infinite_denominator_row_is_not_positive(mode):
    with pytest.raises(SupportError, match="strictly positive"):
        check_maxid_coupling(_InfRow(), mode=mode)
    assert _outcome(oracle_check_maxid_coupling, _InfRow(), mode=mode) \
        .startswith("SupportError")


# ---------------------------------------------------------------------------
# the cached probe axes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("grid_n", [3, 12, 101])
def test_probe_axes_are_the_fresh_axes(grid_n):
    h = 1e-5
    (us,) = _probe_axes(grid_n, False)
    assert np.array_equal(_bits(us), _bits(np.linspace(0.0, 1.0, grid_n)[1:]))
    us2, ps, Pa, Pb, Qa, Qb = _probe_axes(grid_n, True)
    want = np.unique(np.clip(np.linspace(0.0, 1.0, grid_n), 2 * h, 1.0 - h))
    assert np.array_equal(_bits(us2), _bits(us))
    assert np.array_equal(_bits(ps), _bits(want))
    P, Q = want[:, None], want[None, :]
    for got, fresh in ((Pa, P + h), (Pb, P - h), (Qa, Q + h), (Qb, Q - h)):
        assert got.shape == fresh.shape
        assert np.array_equal(_bits(got), _bits(fresh))


@pytest.mark.parametrize("mode", ["grid", "smooth"])
def test_probe_axes_are_read_only_and_kept(mode):
    C = ClaytonCopula(1.5)
    axes = _probe_axes(101, mode == "smooth")
    before = [a.copy() for a in axes]
    check_maxid_coupling(C, mode=mode)
    again = _probe_axes(101, mode == "smooth")
    assert all(a is b for a, b in zip(again, axes))
    for a, b in zip(axes, before):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 0.5
        assert np.array_equal(_bits(a), _bits(b))


# ---------------------------------------------------------------------------
# live lattices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("C", [AMHCopula(0.5), FGMCopula(-0.5),
                               ClaytonCopula(1.5), LomaxCopula(2.0, 0.5)],
                         ids=_copula_id)
@pytest.mark.parametrize("mode", ["grid", "smooth"])
def test_coupling_check_holds_five_lattices(C, mode):
    # smooth mode peaks at 3.7 to 4.7 lattices and grid mode at 4.6; a
    # smooth check that kept f through the stencil would reach 5.8
    peak = _peak_bytes(lambda: check_maxid_coupling(C, mode=mode))
    assert peak <= 5 * LATTICE_101, peak / LATTICE_101
