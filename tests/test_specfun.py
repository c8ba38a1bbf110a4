import math

import numpy as np
import pytest
from scipy import integrate, special

from irislab import specfun as sf

# frozen with a 30-digit mpmath run; the live mpmath cross-checks below keep
# the oracle honest without trusting these literals alone
HYP2F2_11_22_M1 = 0.79659959929705313428
HYP2F2_SPEC = 0.78968480989322073816


def test_hyp2f2_empty_sum():
    r = sf.hyp2f2(1.3, 2.4, 3.5, 4.6, 0.0)
    assert r.value == 1.0 and r.terms_used == 0


def test_hyp2f2_alternating_series_value():
    r = sf.hyp2f2(1.0, 1.0, 2.0, 2.0, -1.0)
    assert r.terms_used >= 8
    assert r.value == pytest.approx(HYP2F2_11_22_M1, rel=1e-12)


def test_hyp2f2_against_arbitrary_precision():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    r = sf.hyp2f2(2.0, 2.667, 3.0, 3.667, -0.5)
    assert r.value == pytest.approx(HYP2F2_SPEC, rel=1e-10)
    for args in [(0.5, 1.3, 2.2, 4.4, 3.0), (2.0, 2.667, 3.0, 3.667, -6.0)]:
        ref = float(mp.hyper([args[0], args[1]], [args[2], args[3]], args[4]))
        assert sf.hyp2f2(*args).value == pytest.approx(ref, rel=1e-11)


def test_hyp2f2_collapses_to_1f1():
    # a1 == b1 cancels, leaving the confluent series
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    rng = np.random.default_rng(2024)
    for _ in range(10):
        a2 = rng.uniform(0.3, 5.0)
        b2 = rng.uniform(0.5, 6.0)
        c = rng.uniform(0.4, 3.0)
        z = rng.uniform(-5.0, 5.0)
        got = sf.hyp2f2(c, a2, c, b2, z).value
        ref = float(mp.hyp1f1(a2, b2, z))
        assert got == pytest.approx(ref, rel=1e-10)


def test_hyp2f2_gamma_repr_matches_series():
    # both paths live, compare them on the host-integral parameter family
    a, d = 3.0, 0.6
    for y in (2.0, 5.0, 7.9):
        series = sf._hyp_series((a, a + d), (a + 1.0, a + d + 1.0), -y, 1e-13, 10 ** 6)[0]
        repr_ = sf._hyp2f2_gamma_repr(a, a + d, -y).value
        assert repr_ == pytest.approx(series, rel=1e-10)


def test_hyp2f2_switches_method_for_large_negative_z():
    r = sf.hyp2f2(3.0, 3.6, 4.0, 4.6, -120.0)
    assert r.method == "gamma_repr"
    assert r.value > 0.0


def test_hyp2f2_error_bound_is_honest():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    r = sf.hyp2f2(1.2, 0.7, 2.9, 3.1, -4.0)
    ref = float(mp.hyper([1.2, 0.7], [2.9, 3.1], -4.0))
    assert abs(r.value - ref) <= max(r.abs_error_bound, 1e-13 * abs(ref)) * 10


def test_hyp2f2_rejects_bad_denominator():
    with pytest.raises(ValueError):
        sf.hyp2f2(1.0, 1.0, -2.0, 3.0, 0.5)


def test_hyp2f2_cancellation_without_fallback_raises():
    # outside the host-integral family there is no safe large-negative path
    with pytest.raises(sf.ConvergenceError):
        sf.hyp2f2(1.0, 2.0, 3.0, 4.0, -60.0)


def test_hyp_series_term_cap_raises():
    # a 2F2 at z = 40 needs about a hundred terms
    with pytest.raises(sf.ConvergenceError):
        sf._hyp_series((1.0, 2.0), (2.0, 3.0), 40.0, 1e-12, 10)


def test_eval_result_rejects_nonfinite():
    with pytest.raises(sf.ConvergenceError):
        sf.EvalResult(float("nan"), 0.0, 1)
    with pytest.raises(sf.ConvergenceError):
        sf.EvalResult(float("inf"), 0.0, 1)


# ---------------------------------------------------------------------------
# Meijer-G
# ---------------------------------------------------------------------------

def _quad_plain_oracle(a, z):
    """Direct quadrature of int_0^inf Gamma_u(a, z x) / (1 + x) dx."""
    hi = (a + 40 * math.sqrt(a) + 60) / z
    val, _ = integrate.quad(
        lambda u: special.gammaincc(a, z * math.exp(u)) * math.gamma(a)
        * math.exp(u) / (1 + math.exp(u)),
        math.log(1e-12), math.log(hi), limit=400, epsabs=1e-12, epsrel=1e-11)
    return val + math.log1p(1e-12) * math.gamma(a)


def test_meijer_pattern_a_unit_point():
    # Gamma_u(2, x) = (1+x) e^-x, so the host integral collapses to 1
    got = sf.meijer_g_3123(0.0, 0.0, 2.0, 0.0, 1.0, 1.0)
    oracle, _ = integrate.quad(lambda x: math.exp(-x), 0, np.inf)
    assert got.value == pytest.approx(oracle, rel=1e-10)
    assert got.value == pytest.approx(_quad_plain_oracle(2.0, 1.0), rel=1e-8)


def test_meijer_pattern_a_small_z_tracks_host_integral():
    for z in (1e-4, 1e-2):
        got = sf.meijer_g_3123(0.0, 0.0, 4.0, 0.0, 1.0, z)
        assert got.value == pytest.approx(_quad_plain_oracle(4.0, z), rel=1e-7)


def test_meijer_pattern_b_small_z_approaches_finite_limit():
    # weighted host integral -> Gamma(a + d2) Gamma(d2) Gamma(1 - d2) as z -> 0
    a, d2 = 4.0, 2.0 / 3.0
    limit = math.gamma(a + d2) * math.gamma(d2) * math.gamma(1.0 - d2)
    assert limit == pytest.approx(53.367073252202066444, rel=1e-12)
    got = sf.meijer_g_3123(d2, 0.0, a + d2, d2, 1.0, 1e-10)
    assert got.value == pytest.approx(limit, rel=1e-5)


def test_meijer_dual_path_self_consistency():
    # non-integer order separations: both paths valid, must agree to 1e-6
    d2 = 2.0 / 3.0
    for a in (4.3, 7.77, 12.9):
        dual = sf.meijer_g_3123(d2, 0.0, a + d2, d2, 1.0, 0.5, method="dual")
        contour = sf.meijer_g_3123(d2, 0.0, a + d2, d2, 1.0, 0.5, method="contour")
        assert dual.value == pytest.approx(contour.value, rel=1e-6)


def test_meijer_integer_order_uses_contour_fallback():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    d2 = 2.0 / 3.0
    got = sf.meijer_g_3123(d2, 0.0, 4.0 + d2, d2, 1.0, 0.5)
    assert got.method == "contour"
    ref = float(mp.meijerg([[d2], [1]], [[d2, 0, 4.0 + d2], []], 0.5))
    assert got.value == pytest.approx(ref, rel=1e-9)
    with pytest.raises(sf.ParameterPatternError):
        sf.meijer_g_3123(d2, 0.0, 4.0 + d2, d2, 1.0, 0.5, method="slater")


def test_meijer_against_mpmath_family():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for (a1, b3, z) in [(0.0, 2.0, 1e-6), (0.0, 8.0, 0.3), (0.8, 9.3, 2.0),
                        (0.5, 23.0, 1e-5), (0.6667, 3.1, 14.0)]:
        got = sf.meijer_g_3123(a1, 0.0, b3, a1, 1.0, z)
        ref = float(mp.meijerg([[a1], [1]], [[a1, 0, b3], []], z))
        assert got.value == pytest.approx(ref, rel=1e-8)


def test_meijer_rejects_unsupported_patterns():
    with pytest.raises(sf.ParameterPatternError):
        sf.meijer_g_3123(0.3, 0.1, 2.0, 0.3, 1.0, 1.0)   # b2 != 0
    with pytest.raises(sf.ParameterPatternError):
        sf.meijer_g_3123(0.3, 0.0, 2.0, 0.4, 1.0, 1.0)   # b_top != a1
    with pytest.raises(sf.ParameterPatternError):
        sf.meijer_g_3123(0.3, 0.0, 2.0, 0.3, 2.0, 1.0)   # a2 != 1
    with pytest.raises(ValueError):
        sf.meijer_g_3123(0.0, 0.0, 2.0, 0.0, 1.0, -1.0)  # z <= 0


# (b_top, b2, b3, a1, a2): integer and non-integer shapes of both rate patterns;
# all but the last have coinciding poles (b_top = b2, or an integer b3 - b_top)
# and take the contour at every z, the last takes Slater up to z = 30
_RATE_PARAMS = [(0.0, 0.0, 4.0, 0.0, 1.0), (0.0, 0.0, 4.3, 0.0, 1.0),
                (2.0 / 3.0, 0.0, 4.0 + 2.0 / 3.0, 2.0 / 3.0, 1.0),
                (2.0 / 3.0, 0.0, 4.3 + 2.0 / 3.0, 2.0 / 3.0, 1.0)]
_ZS = (45.0, 0.5, 1e-3, 20.0, 300.0, 0.5)       # both sides of the Slater limit z = 30


def test_meijer_shared_nodes_give_the_fresh_results():
    for params in _RATE_PARAMS:
        nodes = {}
        for method in ("auto", "contour", "dual"):
            for z in _ZS:
                fresh = sf.meijer_g_3123(*params, z, method=method)
                shared = sf.meijer_g_3123(*params, z, method=method, nodes=nodes)
                assert shared == fresh
        # every method reached the contour at some z, so the table holds its nodes
        bs, a1, a2 = params[:3], params[3], params[4]
        assert list(nodes) == [(bs, a1, a2)] and nodes[bs, a1, a2]


def test_meijer_nodes_shared_by_interleaved_parameter_sets():
    # pairs of the sets differ only in b3, or only in a1 and b_top
    nodes = {}
    for z in _ZS:
        for params in _RATE_PARAMS:
            assert (sf.meijer_g_3123(*params, z, nodes=nodes)
                    == sf.meijer_g_3123(*params, z))
    assert len(nodes) == len(_RATE_PARAMS)
