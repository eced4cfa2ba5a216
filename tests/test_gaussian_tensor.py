"""The blocked tensor rule and the lean Gaussian integrand: agreement with
the dense one-shot rule, bounded memory, and unchanged verdicts."""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bifreemax import quadrature
from bifreemax.gaussian import (_cdf_values, _phi_edges_from_knots,
                                _weighted_kernel, cdf_grid,
                                kernel_denominator, maxid_verdict)
from bifreemax.quadrature import panel_nodes, tensor_cells


def dense_tensor_cells(f, xedges, yedges, order=16):
    """The unblocked rule: every integrand value of the lattice at once."""
    nx, wx = panel_nodes(xedges, order)
    ny, wy = panel_nodes(yedges, order)
    vals = f(nx[:, :, None, None], ny[None, None, :, :])
    return np.einsum("ab,cd,abcd->ac", wx, wy, vals)


def dense_cdf_values(c, xknots, yknots, order=16):
    """CDF values from the square-root integrand on the dense rule."""
    pa = _phi_edges_from_knots(xknots)
    pb = _phi_edges_from_knots(yknots)
    scale = (1.0 - c * c) / (4.0 * math.pi ** 2)

    def integrand(phi, psi):
        s = 2.0 * np.sin(phi)
        t = 2.0 * np.sin(psi)
        jac = 4.0 * np.cos(phi) * np.cos(psi)
        return scale * np.sqrt(4.0 - s * s) * np.sqrt(4.0 - t * t) \
            / kernel_denominator(c, s, t) * jac

    cells = dense_tensor_cells(integrand, pa, pb, order=order)
    vals = np.zeros((len(xknots), len(yknots)))
    vals[1:, 1:] = cells.cumsum(axis=0).cumsum(axis=1)
    return np.clip(vals, 0.0, 1.0)


def sine_knots(n):
    knots = 2.0 * np.sin(np.linspace(-math.pi / 2.0, math.pi / 2.0, n))
    knots[0], knots[-1] = -2.0, 2.0
    return knots


class TestDenseOracle:
    @pytest.mark.parametrize("n", [61, 101])
    @pytest.mark.parametrize("c", [-0.95, -0.5, -1e-8, 1e-8, 0.3, 0.95])
    def test_sine_knots(self, c, n):
        k = sine_knots(n)
        got = _cdf_values(c, k, k)
        assert np.max(np.abs(got - dense_cdf_values(c, k, k))) <= 1e-12

    @pytest.mark.parametrize("c", [-0.5, 1e-8, 0.3, 0.95])
    def test_tail_witness_knots(self, c):
        # the deeper corner probe of maxid_verdict: depth 1e-6, order 24
        k = np.concatenate(([-2.0], -2.0 + np.geomspace(1e-6, 1.2, 49)))
        got = _cdf_values(c, k, k, order=24)
        ref = dense_cdf_values(c, k, k, order=24)
        assert np.all(got[ref == 0.0] == 0.0)
        inside = ref > 0.0
        rel = np.abs(got[inside] - ref[inside]) / ref[inside]
        assert np.max(rel) <= 1e-9


class TestBlocks:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=9, unique=True),
           st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=9, unique=True),
           st.integers(1, 6), st.integers(1, 300))
    def test_small_blocks_match_one_block(self, xe, ye, order, block):
        xe, ye = np.sort(xe), np.sort(ye)

        def f(x, y):
            return np.exp(np.sin(3.0 * x) * y) + x * x

        whole = tensor_cells(f, xe, ye, order=order)
        calls = []

        def counted(x, y):
            calls.append(x.shape[0])
            return f(x, y)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadrature, "_BLOCK", block)
            parts = tensor_cells(counted, xe, ye, order=order)
        step = max(1, block // (order * order * (len(ye) - 1)))
        assert sum(calls) == len(xe) - 1
        assert calls[:-1] == [step] * (len(calls) - 1)
        np.testing.assert_allclose(parts, whole, rtol=0, atol=1e-13)

    def test_empty_axis(self):
        cells = tensor_cells(lambda x, y: x + y, [0.0, 0.5, 1.0], [0.0])
        assert cells.shape == (2, 0)

    def test_one_block_matches_dense_rule(self):
        xe = np.linspace(-1.0, 1.0, 9)
        ye = np.linspace(-0.5, 1.5, 6)

        def f(x, y):
            return np.cos(x - y) / (2.0 + x * y)

        np.testing.assert_allclose(tensor_cells(f, xe, ye, order=5),
                                   dense_tensor_cells(f, xe, ye, order=5),
                                   rtol=0, atol=1e-15)


def _symmetric_f(x, y):
    return np.exp(np.sin(3.0 * x) * np.sin(3.0 * y)) + x * y


class TestSymmetric:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=9, unique=True),
           st.integers(1, 6), st.integers(1, 300))
    def test_matches_full_rule(self, edges, order, block):
        e = np.sort(edges)
        n = len(e) - 1
        values = []

        def counted(x, y):
            values.append(x.size * y.size)
            return _symmetric_f(x, y)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadrature, "_BLOCK", block)
            whole = tensor_cells(_symmetric_f, e, e, order=order)
            half = tensor_cells(counted, e, e, order=order, symmetric=True)
        np.testing.assert_allclose(half, whole, rtol=0, atol=1e-13)
        assert np.array_equal(half, half.T)
        # each block of x-panels starting at lo meets the y-panels from lo on
        step = max(1, block // (order * order * n))
        assert sum(values) == order ** 2 * sum(
            min(step, n - lo) * (n - lo) for lo in range(0, n, step))
        if step == 1:
            assert sum(values) == order ** 2 * n * (n + 1) // 2

    def test_cdf_lattice_integrates_about_half(self):
        pa = _phi_edges_from_knots(sine_knots(161))
        f = _weighted_kernel(0.3, 1.0)
        values = []

        def counted(x, y):
            values.append(x.size * y.size)
            return f(x, y)

        half = tensor_cells(counted, pa, pa, symmetric=True)
        np.testing.assert_allclose(half, tensor_cells(f, pa, pa),
                                   rtol=1e-13, atol=0)
        assert sum(values) <= 0.6 * (160 * 16) ** 2


@pytest.mark.parametrize("c", [-0.95, -1e-8, 1e-8, 0.3, 0.95])
def test_rank3_integrand_matches_kernel_denominator(c):
    rng = np.random.default_rng(14)
    phi = rng.uniform(-1.57, 1.57, (30, 16, 1, 1))
    psi = rng.uniform(-1.57, 1.57, (1, 1, 20, 16))
    scale = (1.0 - c * c) / (4.0 * math.pi ** 2)
    got = _weighted_kernel(c, scale)(phi, psi)
    s, t = 2.0 * np.sin(phi), 2.0 * np.sin(psi)
    d = kernel_denominator(c, s, t)
    ref = scale * 4.0 * np.cos(phi) ** 2 * 4.0 * np.cos(psi) ** 2 / d
    assert got.shape == (30, 16, 20, 16)
    # D_c is a sum of terms that cancel near the corners (s, t) = (2, -2)
    # for c < 0 and (2, 2) for c > 0, where both forms lose the same digits:
    # the bound is 1e-13 relative times the condition number of that sum
    cond = ((1.0 - c * c) ** 2 + np.abs(c * (1.0 + c * c) * s * t)
            + c * c * (s * s + t * t)) / d
    assert np.all(np.abs(got - ref) <= 1e-13 * cond * ref)
    well = cond <= 10.0
    np.testing.assert_allclose(got[well], ref[well], rtol=1e-12, atol=0)


@pytest.mark.parametrize("c, resolution", [("0.4", "161"), ("-0.5", "101")])
def test_cdf_artifact_independent_of_blas_threads(c, resolution, tmp_path):
    # the kernel is a BLAS matrix product: its thread count must not move bytes
    src = os.path.dirname(os.path.dirname(quadrature.__file__))
    digests = set()
    for threads in ("1", "2"):
        out = tmp_path / f"G{threads}.json"
        table = tmp_path / f"G{threads}.csv"
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        run = subprocess.run(
            [sys.executable, "-m", "bifreemax.cli", "gaussian", "cdf", c,
             "--resolution", resolution, "-o", str(out), "--csv", str(table)],
            capture_output=True, text=True, env=env, check=False)
        assert run.returncode == 0, run.stderr
        digests.add(hashlib.sha256(out.read_bytes()
                                   + table.read_bytes()).hexdigest())
    assert len(digests) == 1


def test_cdf_grid_peak_memory():
    # the dense rule peaked at about 328 MB here
    cdf_grid(0.3, resolution=11)
    tracemalloc.start()
    try:
        cdf_grid(0.3, resolution=201)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


# maxid_verdict(c, resolution=r) before the blocked rule: c, r, status, and
# the witness x_low, x_high, y, low_value, high_value
VERDICTS = [
    (-0.95, 41, 'not-maxid', -0.4668907277118108, -0.31286893008046174, -1.8477590650225735, 79.89560533084894, 74.25664384631831),
    (-0.9, 41, 'not-maxid', -0.4668907277118108, -0.31286893008046174, -1.8477590650225735, 37.01914295661233, 34.4163302192198),
    (-0.85, 41, 'not-maxid', -0.4668907277118108, -0.31286893008046174, -1.8477590650225735, 22.855150162374787, 21.259227289446518),
    (-0.8, 41, 'not-maxid', -0.4668907277118108, -0.31286893008046174, -1.8477590650225735, 15.865538498669554, 14.769193584077769),
    (-0.75, 41, 'not-maxid', -0.4668907277118108, -0.31286893008046174, -1.8477590650225735, 11.742688746352188, 10.942998551805616),
    (-0.7, 41, 'not-maxid', -0.4668907277118108, -0.31286893008046174, -1.8477590650225735, 9.050727100385652, 8.446230932394615),
    (-0.65, 41, 'not-maxid', -0.4668907277118108, -0.31286893008046174, -1.8477590650225735, 7.174279290029707, 6.707000499539183),
    (-0.6, 41, 'not-maxid', -0.4668907277118108, -0.31286893008046174, -1.8477590650225735, 5.805659556362516, 5.439364126972115),
    (-0.55, 41, 'not-maxid', -0.4668907277118108, -0.31286893008046174, -1.8477590650225735, 4.773934159737228, 4.484468515377053),
    (-0.5, 41, 'not-maxid', -0.4668907277118108, -0.31286893008046174, -1.8477590650225735, 3.9765473595594276, 3.747008044836901),
    (-0.45, 41, 'not-maxid', -0.4668907277118108, -0.31286893008046174, -1.8477590650225735, 3.3482429403134852, 3.1663427710253087),
    (-0.4, 41, 'not-maxid', -0.4668907277118108, -0.31286893008046174, -1.8477590650225735, 2.8455256294364815, 2.702058204418947),
    (-0.35, 41, 'not-maxid', -0.4668907277118108, -0.31286893008046174, -1.8477590650225735, 2.438294823025505, 2.326190531714046),
    (-0.3, 41, 'not-maxid', -0.4668907277118108, -0.31286893008046174, -1.8477590650225735, 2.1050644753216337, 2.0187845025348663),
    (-0.25, 41, 'not-maxid', -0.4668907277118108, -0.31286893008046174, -1.8477590650225735, 1.830095571581747, 1.7652286210421182),
    (-0.2, 41, 'not-maxid', -0.4668907277118108, -0.31286893008046174, -1.8477590650225735, 1.6016043419019874, 1.5545899006104327),
    (-0.15, 41, 'not-maxid', -0.4668907277118108, -0.31286893008046174, -1.8477590650225735, 1.4106031295851424, 1.3785363855612276),
    (-0.1, 41, 'not-maxid', -0.4668907277118108, -0.31286893008046174, -1.8477590650225735, 1.250127709466563, 1.2306186325400328),
    (-0.05, 41, 'not-maxid', -0.4668907277118108, -0.31286893008046174, -1.8477590650225735, 1.1147084841704271, 1.1057776750915116),
    (0.0, 41, 'maxid', None, None, None, None, None),
    (0.05, 41, 'not-maxid', -1.9890455488498966, -1.985308537295602, -1.9999, 1.81690433639235, 1.8169727944175593),
    (0.1, 41, 'not-maxid', -1.964560443466791, -1.9524705605115475, -1.9999, 1.6648044514710807, 1.66521251206943),
    (0.15, 41, 'not-maxid', -1.936256323750282, -1.914510747327116, -1.9999, 1.5391228708450044, 1.5401496406011728),
    (0.2, 41, 'not-maxid', -1.8853468649354759, -1.8462339888450854, -1.9999, 1.4369116724074549, 1.438730842538878),
    (0.25, 41, 'not-maxid', -1.8462339888450854, -1.7937781101826213, -1.9999, 1.3527228784318046, 1.3553842774942826),
    (0.3, 41, 'not-maxid', -1.8462339888450854, -1.7937781101826213, -1.9999, 1.2813078337303603, 1.2847797841264104),
    (0.35, 41, 'not-maxid', -1.7937781101826213, -1.7234273847618646, -1.9999, 1.2263337076306196, 1.2304793972355101),
    (0.4, 41, 'not-maxid', -1.7937781101826213, -1.7234273847618646, -1.9999, 1.1782211139115746, 1.1828448829787832),
    (0.45, 41, 'not-maxid', -1.7234273847618646, -1.6290771480787023, -1.9999, 1.143716700037221, 1.148561289835662),
    (0.5, 41, 'not-maxid', -1.7234273847618646, -1.6290771480787023, -1.9999, 1.111777511148826, 1.1167446100097105),
    (0.55, 41, 'not-maxid', -1.7234273847618646, -1.6290771480787023, -1.9999, 1.0858886171620283, 1.090747847749059),
    (0.6, 41, 'not-maxid', -1.7234273847618646, -1.6290771480787023, -1.9999, 1.0650644003922218, 1.0696304680050792),
    (0.65, 41, 'not-maxid', -1.7234273847618646, -1.6290771480787023, -1.9999, 1.048451935940969, 1.052582125345594),
    (0.7, 41, 'not-maxid', -1.7234273847618646, -1.6290771480787023, -1.9999, 1.035314704660128, 1.0389063876379832),
    (0.75, 41, 'not-maxid', -1.7234273847618646, -1.6290771480787023, -1.9999, 1.025019496996138, 1.0280072834952776),
    (0.8, 41, 'not-maxid', -1.6290771480787023, -1.502540184757749, -1.9999, 1.0193779003183367, 1.0217564118060072),
    (0.85, 41, 'not-maxid', -1.6290771480787023, -1.502540184757749, -1.9999, 1.012590390574546, 1.0143428154003589),
    (0.9, 41, 'not-maxid', -1.6290771480787023, -1.502540184757749, -1.9999, 1.0072868896816807, 1.0084220159477586),
    (0.95, 41, 'not-maxid', -1.6290771480787023, -1.502540184757749, -1.9999, 1.0031710150894089, 1.0037173559839738),
    (-0.95, 61, 'not-maxid', -0.5176380902050418, -0.4158233816355188, -1.8671608529944035, 82.44140889790516, 78.66731995325297),
    (-0.9, 61, 'not-maxid', -0.5176380902050418, -0.4158233816355188, -1.8671608529944035, 38.19389624420691, 36.45182888760441),
    (-0.85, 61, 'not-maxid', -0.5176380902050418, -0.4158233816355188, -1.8671608529944035, 23.575090432684735, 22.506897212550257),
    (-0.8, 61, 'not-maxid', -0.5176380902050418, -0.4158233816355188, -1.8671608529944035, 16.359735988798285, 15.625884068024678),
    (-0.75, 61, 'not-maxid', -0.5176380902050418, -0.4158233816355188, -1.8671608529944035, 12.102782012126927, 11.567461382689324),
    (-0.7, 61, 'not-maxid', -0.5176380902050418, -0.4158233816355188, -1.8671608529944035, 9.322545575781877, 8.917853904045383),
    (-0.65, 61, 'not-maxid', -0.5176380902050418, -0.4158233816355188, -1.8671608529944035, 7.384021082129037, 7.071159581346187),
    (-0.6, 61, 'not-maxid', -0.5176380902050418, -0.4158233816355188, -1.8671608529944035, 5.969707954135313, 5.724430102735798),
    (-0.55, 61, 'not-maxid', -0.5176380902050418, -0.4158233816355188, -1.8671608529944035, 4.903220274229872, 4.709364911230773),
    (-0.5, 61, 'not-maxid', -0.5176380902050418, -0.4158233816355188, -1.8671608529944035, 4.078731103048983, 3.9249893710618595),
    (-0.45, 61, 'not-maxid', -0.5176380902050418, -0.4158233816355188, -1.8671608529944035, 3.4289022271786385, 3.3070545379040923),
    (-0.4, 61, 'not-maxid', -0.5176380902050418, -0.4158233816355188, -1.8671608529944035, 2.9088495815522557, 2.8127376710303436),
    (-0.35, 61, 'not-maxid', -0.5176380902050418, -0.4158233816355188, -1.8671608529944035, 2.4875098119970294, 2.4124046693432235),
    (-0.3, 61, 'not-maxid', -0.4158233816355188, -0.31286893008046174, -1.8671608529944035, 2.0849034727854487, 2.02709437445709),
    (-0.25, 61, 'not-maxid', -0.4158233816355188, -0.31286893008046174, -1.8671608529944035, 1.8147406026815018, 1.7712643834134543),
    (-0.2, 61, 'not-maxid', -0.4158233816355188, -0.31286893008046174, -1.8671608529944035, 1.590316876767853, 1.5587955403380787),
    (-0.15, 61, 'not-maxid', -0.4158233816355188, -0.31286893008046174, -1.8671608529944035, 1.4027860320916787, 1.3812793800566967),
    (-0.1, 61, 'not-maxid', -0.4158233816355188, -0.31286893008046174, -1.8671608529944035, 1.2452938420013684, 1.232205187522601),
    (-0.05, 61, 'not-maxid', -0.4158233816355188, -0.31286893008046174, -1.8671608529944035, 1.1124573523864048, 1.1064638444896513),
    (0.0, 61, 'maxid', None, None, None, None, None),
    (0.05, 61, 'not-maxid', -1.9890455488498966, -1.985308537295602, -1.9999, 1.81690433639235, 1.8169727944175593),
    (0.1, 61, 'not-maxid', -1.964560443466791, -1.9524705605115475, -1.9999, 1.6648044514710807, 1.66521251206943),
    (0.15, 61, 'not-maxid', -1.936256323750282, -1.914510747327116, -1.9999, 1.5391228708450044, 1.5401496406011728),
    (0.2, 61, 'not-maxid', -1.8853468649354759, -1.8462339888450854, -1.9999, 1.4369116724074549, 1.438730842538878),
    (0.25, 61, 'not-maxid', -1.8462339888450854, -1.7937781101826213, -1.9999, 1.3527228784318046, 1.3553842774942826),
    (0.3, 61, 'not-maxid', -1.8462339888450854, -1.7937781101826213, -1.9999, 1.2813078337303603, 1.2847797841264104),
    (0.35, 61, 'not-maxid', -1.7937781101826213, -1.7234273847618646, -1.9999, 1.2263337076306196, 1.2304793972355101),
    (0.4, 61, 'not-maxid', -1.7937781101826213, -1.7234273847618646, -1.9999, 1.1782211139115746, 1.1828448829787832),
    (0.45, 61, 'not-maxid', -1.7234273847618646, -1.6290771480787023, -1.9999, 1.143716700037221, 1.148561289835662),
    (0.5, 61, 'not-maxid', -1.7234273847618646, -1.6290771480787023, -1.9999, 1.111777511148826, 1.1167446100097105),
    (0.55, 61, 'not-maxid', -1.7234273847618646, -1.6290771480787023, -1.9999, 1.0858886171620283, 1.090747847749059),
    (0.6, 61, 'not-maxid', -1.7234273847618646, -1.6290771480787023, -1.9999, 1.0650644003922218, 1.0696304680050792),
    (0.65, 61, 'not-maxid', -1.7234273847618646, -1.6290771480787023, -1.9999, 1.048451935940969, 1.052582125345594),
    (0.7, 61, 'not-maxid', -1.7234273847618646, -1.6290771480787023, -1.9999, 1.035314704660128, 1.0389063876379832),
    (0.75, 61, 'not-maxid', -1.7234273847618646, -1.6290771480787023, -1.9999, 1.025019496996138, 1.0280072834952776),
    (0.8, 61, 'not-maxid', -1.6290771480787023, -1.502540184757749, -1.9999, 1.0193779003183367, 1.0217564118060072),
    (0.85, 61, 'not-maxid', -1.6290771480787023, -1.502540184757749, -1.9999, 1.012590390574546, 1.0143428154003589),
    (0.9, 61, 'not-maxid', -1.6290771480787023, -1.502540184757749, -1.9999, 1.0072868896816807, 1.0084220159477586),
    (0.95, 61, 'not-maxid', -1.6290771480787023, -1.502540184757749, -1.9999, 1.0031710150894089, 1.0037173559839738),
]


@pytest.mark.parametrize("c,r,status,x_low,x_high,y,low,high", VERDICTS)
def test_verdict_sweep_unchanged(c, r, status, x_low, x_high, y, low, high):
    v = maxid_verdict(c, resolution=r)
    assert v.status == status
    w = v.witness
    if x_low is None:
        assert w is None
        return
    assert w.mechanism == ("ratio-decreasing-in-x" if c < 0
                           else "tail-functional-increasing-in-x")
    assert (w.x_low, w.x_high, w.y) == (x_low, x_high, y)
    assert w.low_value == pytest.approx(low, rel=1e-10, abs=0)
    assert w.high_value == pytest.approx(high, rel=1e-10, abs=0)
