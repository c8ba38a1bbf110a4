import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special
from scipy.special import cython_special

from irislab import analysis as an, specfun as sf

# frozen with a 30-digit mpmath run; the live mpmath cross-checks below keep
# the oracle honest without trusting these literals alone
HYP2F2_11_22_M1 = 0.79659959929705313428
HYP2F2_SPEC = 0.78968480989322073816


def _series(num, den, z):
    """(sum, tail bound, terms, max partial) of ``_hyp_series`` at the
    tolerance and term cap the Slater terms use."""
    return sf._hyp_series(num, den, z, 1e-12, 10 ** 6)


def test_hyp_series_empty_sum():
    assert _series((1.3, 2.4), (3.5, 4.6), 0.0) == (1.0, 0.0, 1, 1.0)


def test_hyp_series_alternating_value():
    value, _, terms, _ = _series((1.0, 1.0), (2.0, 2.0), -1.0)
    assert terms >= 8
    assert value == pytest.approx(HYP2F2_11_22_M1, rel=1e-12, abs=0.0)


def test_hyp2f2_against_arbitrary_precision():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    r = sf.hyp2f2(2.0, 2.667, -0.5)
    assert r.value == pytest.approx(HYP2F2_SPEC, rel=1e-10)
    ref = float(mp.hyper([2.0, 2.667], [3.0, 3.667], -6.0))
    assert sf.hyp2f2(2.0, 2.667, -6.0).value == pytest.approx(ref, rel=1e-11)


def test_hyp_series_against_arbitrary_precision():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    ref = float(mp.hyper([0.5, 1.3], [2.2, 4.4], 3.0))
    assert _series((0.5, 1.3), (2.2, 4.4), 3.0)[0] == pytest.approx(ref, rel=1e-11)


def test_hyp_series_collapses_to_1f1():
    # a1 == b1 cancels, leaving the confluent series
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    rng = np.random.default_rng(2024)
    for _ in range(10):
        a2 = rng.uniform(0.3, 5.0)
        b2 = rng.uniform(0.5, 6.0)
        c = rng.uniform(0.4, 3.0)
        z = rng.uniform(-5.0, 5.0)
        got = _series((c, a2), (c, b2), z)[0]
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
    r = sf.hyp2f2(3.0, 3.6, -120.0)
    assert r.method == "gamma_repr"
    assert r.value > 0.0


_LN_HYP2F2_CASES = [
    (98.8, 98.8 + 2.0 / 5.9, -3.8e6, 1e-12),     # exp(lp) underflows
    # gammainc(p, -z) underflows: Kummer's series.  The value, 4.3e-267, is
    # 1.9e-10 off: -expm1(lq - lp) takes the difference of two logarithms
    # that each carry about 1e-12 absolute rounding at p near 2000
    (2160.0, 2160.35, -614.0, 2e-10),
    (2.0, 2.5, -30.0, 1e-12),                    # both normal
]


@pytest.mark.parametrize("p,q,z,value_rel", _LN_HYP2F2_CASES,
                         ids=[f"{p}-{q}-{z}" for p, q, z, _ in _LN_HYP2F2_CASES])
def test_ln_hyp2f2_offset_against_mpmath(p, q, z, value_rel):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    ref = float(mp.log(mp.hyp2f2(p, q, p + 1, q + 1, z)))
    assert sf.ln_hyp2f2_offset(p, q, z) == pytest.approx(ref, rel=1e-12)
    value = sf.hyp2f2(p, q, z).value
    assert value == (0.0 if ref < -745.2 else
                     pytest.approx(math.exp(ref), rel=value_rel, abs=0.0))


# op_gamma_approx and the 2F2 gamma path call the gammainc ufunc on scalars;
# scipy's scalar cython_special.gammainc, which they once called, runs the same
# routine, so the ufunc keeps their bits
_ARGS_A = st.floats(1e-3, 2e3)
_ARGS_X = st.one_of(st.floats(0.0, 1e5), st.floats(0.0, 2.0 ** -1022, exclude_max=True))


@given(a=_ARGS_A, x=_ARGS_X)
def test_scalar_gammainc_equals_the_ufunc_bit_for_bit(a, x):
    gammainc = sf.special_ufuncs().gammainc
    assert cython_special.gammainc(a, x).hex() == float(gammainc(a, x)).hex()


@pytest.mark.parametrize("a,x", [
    (1.0, 0.0), (2.5, math.inf), (2.5, math.nan), (math.nan, 1.0), (2.5, 5e-324),
    (1e-3, 5e-324), (2e3, 2.0 ** -1030), (170.0, 0.0), (170.0, 1.0), (170.0, 170.0),
    (170.0, 1e5), (170.0, math.inf),
])
def test_scalar_gammainc_equals_the_ufunc_at_the_edges(a, x):
    gammainc = sf.special_ufuncs().gammainc
    assert cython_special.gammainc(a, x).hex() == float(gammainc(a, x)).hex()


def test_scalar_gammainc_equals_the_ufunc_on_random_pairs():
    # the ufunc runs the same loop on an array as on a scalar
    rng = np.random.default_rng(20261019)
    n = 150_000
    a = np.exp(rng.uniform(math.log(1e-3), math.log(2e3), 2 * n))
    x = np.concatenate([np.exp(rng.uniform(math.log(1e-300), math.log(1e5), n)),
                        a[n:] * np.exp(rng.uniform(-1.0, 1.0, n))])     # around x = a
    got = np.array([cython_special.gammainc(*ax) for ax in zip(a.tolist(), x.tolist())])
    gammainc = sf.special_ufuncs().gammainc
    assert np.array_equal(got.view(np.uint64), gammainc(a, x).view(np.uint64))


def test_hyp2f2_gamma_repr_equals_its_scalar_routine_form(monkeypatch):
    cases = [(3.0, 3.6, -120.0), (1.5, 2.0 + 2.0 / 3.0, -9.0), (0.5, 0.9, -1e4), (2.0, 170.0, -8.5)]
    got = [sf._hyp2f2_gamma_repr(*case).value for case in cases]
    monkeypatch.setattr(sf, "special_ufuncs", lambda: cython_special)
    assert [v.hex() for v in got] == [sf._hyp2f2_gamma_repr(*c).value.hex() for c in cases]


_UFUNCS = {"loggamma", "gamma", "gammainc", "gammaincc", "hyp2f1", "psi", "kv"}


def test_each_ufunc_the_package_calls_is_scipy_specials_own():
    # the same objects, so every value keeps the bits of the public functions
    source = "".join(Path(m.__file__).read_text(encoding="utf-8") for m in (sf, an))
    assert set(re.findall(r"special_ufuncs\(\)\.(\w+)", source)) == _UFUNCS
    for name in _UFUNCS:
        assert getattr(sf.special_ufuncs(), name) is getattr(special, name)
    assert sf.special_ufuncs().psi is special.digamma
    assert sf.special_ufuncs() is sys.modules["scipy.special._special_ufuncs"]


def test_a_missing_extension_fails_by_name():
    with pytest.raises(ModuleNotFoundError, match="scipy.special._no_such_extension"):
        sf._scipy_extension("special", "_no_such_extension")


def test_hyp_series_error_bound_is_honest():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    value, tail, _, _ = _series((1.2, 0.7), (2.9, 3.1), -4.0)
    ref = float(mp.hyper([1.2, 0.7], [2.9, 3.1], -4.0))
    assert abs(value - ref) <= max(tail, 1e-13 * abs(ref)) * 10


@pytest.mark.parametrize("p,q", [(0.0, 1.0), (-0.5, 1.0), (1.0, 1.0), (2.0, 1.5)])
def test_hyp2f2_rejects_parameters_outside_its_family(p, q):
    with pytest.raises(ValueError, match=rf"^hyp2f2 needs 0 < p < q, got p={p}, q={q}$"):
        sf.hyp2f2(p, q, 0.5)


def test_hyp_series_reports_cancellation():
    # at z = -60 the partial sums pass the sum by more than the guard, and
    # max_partial says so; a caller of the bare series must not trust it
    value, _, _, max_partial = _series((1.0, 2.0), (3.0, 4.0), -60.0)
    assert abs(value) * sf._CANCEL_GUARD < max_partial


def test_hyp_series_term_cap_raises():
    # a 2F2 at z = 40 needs about a hundred terms
    with pytest.raises(sf.ConvergenceError):
        sf._hyp_series((1.0, 2.0), (2.0, 3.0), 40.0, 1e-12, 10)


def _hyp_series_generic(num, den, z, rtol, max_terms):
    """The series as a loop over any number of parameters: the reference for
    the bits of ``_hyp_series``, which unrolls it for two and two."""
    total = 1.0
    comp = 0.0
    term = 1.0
    max_partial = 1.0
    k_safe = 2.0 * abs(z) + sum(abs(p) for p in num) + sum(abs(p) for p in den) + 10.0
    for k in range(max_terms):
        ratio = z / (k + 1.0)
        for p in num:
            ratio *= p + k
        for q in den:
            ratio /= q + k
        term *= ratio
        if term == 0.0:
            return total, 0.0, k + 1, max_partial
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        max_partial = max(max_partial, abs(total))
        if k >= k_safe:
            nxt = abs(z) / (k + 2.0)
            for p in num:
                nxt *= abs(p + k + 1.0)
            for q in den:
                nxt /= abs(q + k + 1.0)
            rhat = nxt * (1.0 + 6.0 / (k + 1.0))
            if rhat < 1.0 - 1e-6:
                tail = abs(term) * rhat / (1.0 - rhat)
                if tail <= rtol * max(abs(total), 1e-300):
                    return total, tail, k + 1, max_partial
    raise sf.ConvergenceError(f"hypergeometric series exceeded {max_terms} terms (z={z})")


def _series_bits(series, num, den, z, rtol=1e-12, max_terms=4000):
    """(sum, tail, terms, max_partial) with the floats as hex, or the error."""
    try:
        total, tail, terms, max_partial = series(num, den, z, rtol, max_terms)
    except sf.ConvergenceError as exc:
        return "ConvergenceError", str(exc)
    return total.hex(), tail.hex(), terms, max_partial.hex()


_NUM = st.floats(-6.0, 12.0)
# no caller passes a nonpositive-integer denominator (each of Slater's is 1
# plus a non-integer); near them the first terms overflow, and both loops
# give the same NaN run
_DEN = st.floats(-5.9, 14.0).filter(lambda q: q >= 1e-3 or abs(q - round(q)) > 1e-3)
_Z = st.floats(-8.0, 30.0)


@given(num=st.tuples(_NUM, _NUM), den=st.tuples(_DEN, _DEN), z=_Z,
       rtol=st.sampled_from([1e-12, 1e-13]))
def test_hyp_series_equals_the_generic_loop_bit_for_bit(num, den, z, rtol):
    # a series that does not terminate can only return through the tail
    # bound, which starts at k >= k_safe
    got = _series_bits(sf._hyp_series, num, den, z, rtol)
    assert got == _series_bits(_hyp_series_generic, num, den, z, rtol)
    if got[0] != "ConvergenceError" and got[1] != (0.0).hex():
        assert got[2] - 1 >= 2.0 * abs(z) + sum(map(abs, num)) + sum(map(abs, den)) + 10.0


@given(m=st.integers(0, 12), p2=_NUM, den=st.tuples(_DEN, _DEN), z=_Z, swap=st.booleans())
def test_terminating_hyp_series_equals_the_generic_loop_bit_for_bit(m, p2, den, z, swap):
    num = (p2, -float(m)) if swap else (-float(m), p2)
    got = _series_bits(sf._hyp_series, num, den, z)
    assert got == _series_bits(_hyp_series_generic, num, den, z)
    if z != 0.0:
        assert got[1] == (0.0).hex() and got[2] <= m + 1


@given(num=st.tuples(st.floats(0.1, 12.0),
                    st.one_of(st.integers(-6, 12).map(float), st.floats(0.1, 12.0))),
       den=st.tuples(_DEN, _DEN), z=st.floats(10.0, 30.0), max_terms=st.integers(1, 30))
def test_hyp_series_stops_at_the_term_cap_like_the_generic_loop(num, den, z, max_terms):
    # k_safe >= 2 z + 10 >= 30 here, so the tail bound is never tried; only a
    # nonpositive-integer numerator can end the series before the cap
    got = _series_bits(sf._hyp_series, num, den, z, max_terms=max_terms)
    assert got == _series_bits(_hyp_series_generic, num, den, z, max_terms=max_terms)
    p2 = num[1]
    if not (p2 <= 0.0 and p2.is_integer() and -p2 < max_terms):
        assert got == ("ConvergenceError",
                       f"hypergeometric series exceeded {max_terms} terms (z={z})")


def test_eval_result_rejects_nonfinite():
    with pytest.raises(sf.ConvergenceError):
        sf.EvalResult(float("nan"), 0.0, 1)
    with pytest.raises(sf.ConvergenceError):
        sf.EvalResult(float("inf"), 0.0, 1)
    with pytest.raises(ValueError, match="abs_error_bound must be nonnegative"):
        sf.EvalResult(1.0, float("nan"), 0)


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
    got = sf.meijer_g_3123(0.0, 2.0, 1.0)
    oracle, _ = integrate.quad(lambda x: math.exp(-x), 0, np.inf)
    assert got.value == pytest.approx(oracle, rel=1e-10)
    assert got.value == pytest.approx(_quad_plain_oracle(2.0, 1.0), rel=1e-8)


def test_meijer_pattern_a_small_z_tracks_host_integral():
    for z in (1e-4, 1e-2):
        got = sf.meijer_g_3123(0.0, 4.0, z)
        assert got.value == pytest.approx(_quad_plain_oracle(4.0, z), rel=1e-7)


def test_meijer_pattern_b_small_z_approaches_finite_limit():
    # weighted host integral -> Gamma(a + d2) Gamma(d2) Gamma(1 - d2) as z -> 0
    a, d2 = 4.0, 2.0 / 3.0
    limit = math.gamma(a + d2) * math.gamma(d2) * math.gamma(1.0 - d2)
    assert limit == pytest.approx(53.367073252202066444, rel=1e-12)
    got = sf.meijer_g_3123(d2, a + d2, 1e-10)
    assert got.value == pytest.approx(limit, rel=1e-5)


def test_meijer_dual_path_self_consistency():
    # non-integer order separations: both paths valid, must agree to 1e-6
    d2 = 2.0 / 3.0
    for a in (4.3, 7.77, 12.9):
        slater = sf.meijer_g_3123(d2, a + d2, 0.5)
        assert slater.method == "slater"
        contour, _ = sf._meijer_contour(d2, a + d2, 0.5)
        assert slater.value == pytest.approx(contour, rel=1e-6)


def test_meijer_integer_order_uses_contour_fallback():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    d2 = 2.0 / 3.0
    got = sf.meijer_g_3123(d2, 4.0 + d2, 0.5)
    assert got.method == "contour"
    ref = float(mp.meijerg([[d2], [1]], [[d2, 0, 4.0 + d2], []], 0.5))
    assert got.value == pytest.approx(ref, rel=1e-9)


def test_meijer_against_mpmath_family():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for (a1, b3, z) in [(0.0, 2.0, 1e-6), (0.0, 8.0, 0.3), (0.8, 9.3, 2.0),
                        (0.5, 23.0, 1e-5), (0.6667, 3.1, 14.0)]:
        got = sf.meijer_g_3123(a1, b3, z)
        ref = float(mp.meijerg([[a1], [1]], [[a1, 0, b3], []], z))
        assert got.value == pytest.approx(ref, rel=1e-8)


def test_meijer_rejects_unsupported_patterns():
    unsupported = r"^unsupported Meijer-G parameters: a1=.*, b3=.*$"
    with pytest.raises(ValueError, match=unsupported):
        sf.meijer_g_3123(-0.1, 2.0, 1.0)    # a1 < 0
    with pytest.raises(ValueError, match=unsupported):
        sf.meijer_g_3123(1.0, 2.0, 1.0)     # a1 >= 1
    with pytest.raises(ValueError, match=unsupported):
        sf.meijer_g_3123(0.3, 0.3, 1.0)     # b3 <= a1
    for a1, b3 in ((math.nan, 2.5), (0.5, math.nan), (0.5, math.inf)):
        with pytest.raises(ValueError, match=unsupported):
            sf.meijer_g_3123(a1, b3, 1.0)
    for z in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"^meijer_g_3123 requires finite z > 0, got "):
            sf.meijer_g_3123(0.0, 2.0, z)


def test_meijer_slater_guard_does_not_overflow():
    # Slater terms near 1e305 at the rate's shape cap (t1=2, N=339): the guard
    # once scaled the sum by 1e8 and overflowed; the values are unchanged
    d2 = 2.0 / 3.0
    want = {6.2946270589708306e-06: 3.643462277684924e+305,
            0.00019905358527674846: 3.6433112527321354e+305,
            6.29462705897083: 3.4781236200587917e+305}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z, value in want.items():
            got = sf.meijer_g_3123(d2, 169.5 + d2, z)
            assert (got.method, got.value) == ("slater", value)
            contour, _ = sf._meijer_contour(d2, 169.5 + d2, z)
            assert got.value == pytest.approx(contour, rel=1e-12)


def test_meijer_slater_term_that_cancels_yields_the_contour(monkeypatch):
    # at b3 - a1 = 1.5, z = 0.5 the first term's partial sums reach 3.6 times
    # its sum and the other two terms' never pass theirs: a guard of 2 makes
    # that one term report lost digits, and the contour takes the point
    d2, a, z = 2.0 / 3.0, 1.5, 0.5
    assert sf.meijer_g_3123(d2, a + d2, z).method == "slater"
    monkeypatch.setattr(sf, "_CANCEL_GUARD", 2.0)
    got = sf.meijer_g_3123(d2, a + d2, z)
    assert got.method == "contour"
    assert got.value == sf._meijer_contour(d2, a + d2, z)[0]


def _pairwise_slater_rule(bs, z):
    """Slater's rule over the pairwise distances of the b parameters
    ``bs = (a1, 0, b3)``: the reference for ``meijer_g_3123``'s check of
    a1, b3 - a1 and b3."""
    if z > 30.0:  # positive-argument 2F2 growth would start cancelling
        return False
    for i in range(3):
        for j in range(i + 1, 3):
            d = abs(bs[i] - bs[j])
            if abs(d - round(d)) < 1e-6:
                return False
    return True


def _near_integers(lo):
    """Floats within 2e-6 of an integer in [lo, 200], on both sides of the
    rule's 1e-6."""
    return st.builds(lambda n, eps: n + eps, st.integers(lo, 200), st.floats(-2e-6, 2e-6))


@st.composite
def _rate_family(draw):
    """(a1, b3) with a1 in {0} or [0, 1) and b3 > a1, where a1, b3 - a1 and
    b3 each often lie near an integer."""
    if draw(st.booleans()):
        a1 = draw(st.floats(0.0, 1.0, exclude_max=True))
    else:
        a1 = draw(st.one_of(st.just(0.0), st.floats(0.0, 2e-6),
                            st.floats(1.0 - 2e-6, 1.0, exclude_max=True)))
    if draw(st.booleans()):
        b3 = draw(st.floats(a1, 200.0, exclude_min=True))
    else:
        b3 = draw(st.one_of(_near_integers(1), _near_integers(0).map(lambda d: a1 + d)))
    assume(b3 > a1)
    return a1, b3


@settings(max_examples=400)
@example(a1_b3=(5e-7, 2.5), z=1.0)
@example(a1_b3=(0.25, 3.25 + 5e-7), z=1.0)
@example(a1_b3=(0.25, 4.0 - 5e-7), z=29.0)
@example(a1_b3=(0.25, 2.5), z=30.0)
@example(a1_b3=(0.25, 2.5), z=math.nextafter(30.0, math.inf))
@given(a1_b3=_rate_family(),
       z=st.one_of(st.floats(1e-6, 30.0), st.floats(30.0, 1e3),
                   st.sampled_from([30.0, math.nextafter(30.0, math.inf)])))
def test_simple_pole_rule_matches_the_pairwise_rule(a1_b3, z):
    a1, b3 = a1_b3
    with mock.patch.object(sf, "_meijer_slater", lambda a1, b3, z: (1.0, 0.0, 0)), \
            mock.patch.object(sf, "_meijer_contour", lambda a1, b3, z: (2.0, 0.0)):
        method = sf.meijer_g_3123(a1, b3, z).method
    assert (method == "slater") == _pairwise_slater_rule((a1, 0.0, b3), z)


# (a1, b3): integer and non-integer shapes of both rate patterns; all but the
# last have coinciding poles (a1 = 0 = b2, or an integer b3 - a1) and take the
# contour at every z, the last takes Slater up to z = 30
_RATE_PARAMS = [(0.0, 4.0), (0.0, 4.3), (2.0 / 3.0, 4.0 + 2.0 / 3.0),
                (2.0 / 3.0, 4.3 + 2.0 / 3.0)]
_ZS = (45.0, 0.5, 1e-3, 20.0, 300.0, 0.5)       # both sides of the Slater limit z = 30


def _clear_contour_tables():
    sf._contour_line.cache_clear()


def _cold(params, z):
    _clear_contour_tables()
    return sf.meijer_g_3123(*params, z)


def test_meijer_shared_nodes_give_the_fresh_results(contour_traffic):
    for params in _RATE_PARAMS:
        for evaluate in (sf.meijer_g_3123, sf._meijer_contour):
            cold = []
            for z in _ZS:
                _clear_contour_tables()
                cold.append(evaluate(*params, z))
            cold_terms = contour_traffic.loggamma.count(0)
            contour_traffic.clear()
            _clear_contour_tables()
            warm = [evaluate(*params, z) for z in _ZS]
            assert warm == cold
            # both reached the contour at some z: a repeated (a1, b3) fills
            # nothing after the first, and later z reused its nodes
            assert contour_traffic.fills == 1
            assert contour_traffic.loggamma.count(0) < cold_terms


def test_meijer_nodes_shared_by_interleaved_parameter_sets(contour_traffic):
    # a line keeps the heads of one b3: sets that differ only in a1 keep
    # theirs, sets on one line refill its heads at each switch of b3 (the
    # last set reaches the contour at z = 45, 20 and 300 only)
    for sets, fills in ((_RATE_PARAMS[:2], 12), (_RATE_PARAMS[::2], 2), (_RATE_PARAMS, 19)):
        cold = [_cold(params, z) for z in _ZS for params in sets]
        _clear_contour_tables()
        contour_traffic.clear()
        warm = [sf.meijer_g_3123(*params, z) for z in _ZS for params in sets]
        assert warm == cold
        assert contour_traffic.fills == contour_traffic.switches == fills
        assert sf._contour_line.cache_info().misses == len({a1 for a1, _ in sets})


def _five_term_head(a1, b3, t):
    """The contour integrand's loggamma sum at node t, one scalar call per term."""
    bs, a2 = (a1, 0.0, b3), 1.0
    s = complex(0.5 * ((a1 - 1.0) + min(bs)), t)
    h = (special.loggamma(bs[0] - s) + special.loggamma(bs[1] - s)
         + special.loggamma(bs[2] - s) + special.loggamma(1.0 - a1 + s)
         - special.loggamma(a2 - s))
    return float(h.real).hex(), float(h.imag).hex()


def _hex_heads(heads):
    return {t: (x.hex(), y.hex()) for t, (x, y) in heads.items()}


def _visit_nodes(a1, b3, ts):
    """Run the contour integrand of (a1, b3) at exactly the nodes ts."""
    def quadpack(f, lo, hi, *args):
        for t in ts:
            f(t)
        return 0.0, 0.0, 0
    with mock.patch.object(sf, "quadpack", quadpack):
        sf._meijer_contour(a1, b3, 1.0)


_LINES = st.sampled_from([0.0, 2.0 / 2.5, 2.0 / 3.0, 2.0 / 4.0])


@given(a1=_LINES, data=st.data(),
       ts=st.lists(st.floats(0.0, 48.0), max_size=40).map(
           lambda ts: [0.0, 5e-324, 1e-300, 1e-12, 48.0, *ts]))
def test_contour_table_fill_equals_the_scalar_five_term_head(a1, data, ts):
    # the first b3 visits every node on the scalar path, the second refills
    # the heads from the line with one array loggamma; both equal the five terms
    b3s = data.draw(st.lists(st.floats(a1, 169.0, exclude_min=True),
                             min_size=2, max_size=2, unique=True))
    _clear_contour_tables()
    _visit_nodes(a1, b3s[0], ts)
    line = sf._contour_line(a1)
    assert len(line) == len(set(ts))
    for b3 in b3s:
        assert _hex_heads(line.heads_of(b3)) == {t: _five_term_head(a1, b3, t) for t in ts}


_ORDER_CASES = [(a1, b3, z) for a1, b3 in _RATE_PARAMS + [(0.8, 3.8), (0.0, 169.0)]
                for z in (1e-3, 0.5, 45.0)]


def test_meijer_results_do_not_depend_on_the_call_order():
    want = [_cold(case[:2], case[2]) for case in _ORDER_CASES]
    assert "contour" in {r.method for r in want}
    rng = np.random.default_rng(20261019)
    for clear in (True, False):
        for _ in range(3):
            order = rng.permutation(len(_ORDER_CASES))
            got = [None] * len(order)
            for i in order:
                a1, b3, z = _ORDER_CASES[i]
                if clear:
                    _clear_contour_tables()
                got[i] = sf.meijer_g_3123(a1, b3, z)
            assert got == want


def test_new_b3_reuses_the_loggamma_terms_of_its_line(contour_traffic):
    # a new b3 fills its heads with one array call (the first, on an empty
    # line, too); only a node new to the line pays the five scalar calls
    calls = contour_traffic.loggamma
    _clear_contour_tables()
    sf._meijer_contour(0.0, 4.0, 0.5)
    line = sf._contour_line(0.0)
    seen = set(line)
    assert calls == [1] + [0] * 5 * len(seen)
    calls.clear()
    sf._meijer_contour(0.0, 4.3, 0.5)
    new = set(line) - seen
    assert calls == [1] + [0] * 5 * len(new)
    assert list(line.heads) == list(line) and 5 * len(new) < len(line) / 4
    calls.clear()
    before = len(line)
    sf._meijer_contour(0.0, 4.3, 20.0)         # a repeated (a1, b3) fills nothing
    assert calls == [0] * 5 * (len(line) - before)


def test_contour_tables_stop_growing_at_their_bound(monkeypatch):
    want = [_cold(params, z) for params in _RATE_PARAMS[:2] for z in _ZS]
    monkeypatch.setattr(sf, "_TABLE_NODES", 50)
    _clear_contour_tables()
    assert [sf.meijer_g_3123(*params, z) for params in _RATE_PARAMS[:2] for z in _ZS] == want
    line = sf._contour_line(0.0)
    assert len(line) == 50 and list(line.heads) == list(line)


def test_line_arrays_are_rebuilt_only_after_the_line_grew(monkeypatch):
    # a b3 new to an unchanged line fills from the line's arrays as they are;
    # a line that gained nodes rebuilds them once, in the order of its nodes
    fromiter = mock.Mock(wraps=np.fromiter)
    monkeypatch.setattr(sf.np, "fromiter", fromiter)
    rng = np.random.default_rng(23)
    first, more = rng.uniform(0.0, 48.0, 30).tolist(), rng.uniform(0.0, 48.0, 20).tolist()
    a1 = 2.0 / 3.0
    _clear_contour_tables()
    _visit_nodes(a1, a1 + 4.0, first)
    line = sf._contour_line(a1)
    assert set(line) == {0.0, *first}      # t = 0 sets the quadrature's scale
    fromiter.reset_mock()                  # the empty line's arrays, for the first b3
    for b3 in (a1 + 4.3, a1 + 4.6):
        line.heads_of(b3)
    assert fromiter.call_count == 1
    _visit_nodes(a1, a1 + 4.6, more)
    assert set(line) == {0.0, *first, *more} and fromiter.call_count == 1
    for b3 in (a1 + 4.9, a1 + 5.2):
        heads = line.heads_of(b3)
        assert list(heads) == list(line)
        assert _hex_heads(heads) == {t: _five_term_head(a1, b3, t) for t in line}
    assert fromiter.call_count == 2


# ---------------------------------------------------------------------------
# Contour integrand in real arithmetic
# ---------------------------------------------------------------------------

class _Spy:
    """``module`` with its function ``name`` recording each call's first argument."""

    def __init__(self, module, name):
        self.calls, self._module, self._name = [], module, name

    def __getattr__(self, attr):
        value = getattr(self._module, attr)
        if attr != self._name:
            return value

        def spy(x, *args, **kw):
            self.calls.append(x)
            return value(x, *args, **kw)
        return spy


def test_unscaled_exp_cos_equals_numpy_complex_exp_bit_for_bit():
    # the contour integrand's value at x <= 709, where numpy does not rescale
    rng = np.random.default_rng(20261018)
    n = 200_000
    x = rng.uniform(-745.0, 709.0, n)
    y = rng.uniform(-400.0, 400.0, n)
    y[: n // 10] *= 1e-303                # |y| < 1e-300
    y[n // 10: n // 5] *= 1e-320          # subnormal y
    x[-n // 20:] = rng.uniform(700.0, 709.0, n // 20)   # up to numpy's rescaled range
    x[-1] = 709.0
    xs, ys = x.tolist(), y.tolist()
    ref = [np.exp(complex(a, b)).real for a, b in zip(xs, ys)]
    got = [math.exp(a) * math.cos(b) for a, b in zip(xs, ys)]
    assert [(a, b) for a, b, g, r in zip(xs, ys, got, ref) if g != r] == []


def _contour_integrand(a1, b3, z):
    """The integrand ``_meijer_contour`` hands to QUADPACK for (a1, b3) at z."""
    handed = []

    def quadpack(f, lo, hi, *args):
        handed.append(f)
        return 0.0, 0.0, 0
    with mock.patch.object(sf, "quadpack", quadpack):
        sf._meijer_contour(a1, b3, z)
    return handed[0]


def test_contour_integrand_switches_to_numpy_just_above_709(monkeypatch):
    # at z = 1 a node's (x, y) is its head, planted here next to the line
    real_exp = _Spy(math, "exp")
    monkeypatch.setattr(sf, "math", real_exp)
    _clear_contour_tables()
    try:
        f = _contour_integrand(0.0, 4.0, 1.0)
        heads = sf._contour_line(0.0).heads
        real_exp.calls.clear()
        above = math.nextafter(709.0, math.inf)
        for t, (x, y) in enumerate([(709.0, 0.3), (709.0, -2.0), (above, 0.3), (above, -2.0)]):
            heads[t + 1.0] = (x, y)
            with np.errstate(over="ignore"):
                assert f(t + 1.0) == np.exp(complex(x, y)).real
        assert real_exp.calls == [709.0, 709.0]
        # numpy's rescaled range: a finite real part beside an infinite imaginary
        # one, and an infinite real part, both without a warning
        with np.errstate(over="ignore"):
            assert np.isinf(np.exp(complex(710.0, math.pi / 2)).imag)
        heads[5.0], heads[6.0] = (710.0, math.pi / 2), (800.0, 0.3)
        assert (f(5.0), f(6.0)) == (1.3679272698459398e+292, math.inf)
    finally:
        _clear_contour_tables()    # the planted heads are not loggamma sums


@given(a1=_LINES, z=st.floats(1e-6, 300.0), data=st.data())
def test_contour_integrand_equals_numpy_complex_exp_on_both_sides_of_709(a1, z, data):
    # exp(x) cos(y) is returned in place at x <= 709; above it numpy's exp runs
    _clear_contour_tables()
    b3 = a1 + 3.5
    f = _contour_integrand(a1, b3, z)
    heads = sf._contour_line(a1).heads
    lnz = math.log(z)
    c0lnz = 0.5 * (a1 - 1.0) * lnz
    edge = 709.0 - c0lnz
    steps = [-4, 4] + data.draw(st.lists(st.integers(-4, 4), max_size=6))
    offsets = data.draw(st.lists(st.floats(-60.0, 40.0), max_size=6))
    hit, miss = data.draw(st.lists(st.floats(0.0, 48.0), min_size=2, max_size=2, unique=True))
    sides, scaled = [], _Spy(np, "exp")
    try:
        with mock.patch.object(sf, "np", scaled), np.errstate(over="ignore"):
            for h0 in [edge + k * math.ulp(edge) for k in steps] + [edge + o for o in offsets]:
                heads[hit] = (h0, data.draw(st.floats(-400.0, 400.0)))
                x, y = h0 + c0lnz, heads[hit][1] + hit * lnz
                assert f(hit).hex() == np.exp(complex(x, y)).real.hex()
                sides.append(x <= 709.0)
            heads.pop(miss, None)
            got = f(miss)          # a node new to the table: its head is computed first
            x, y = heads[miss][0] + c0lnz, heads[miss][1] + miss * lnz
            assert got.hex() == np.exp(complex(x, y)).real.hex()
            sides.append(x <= 709.0)
    finally:
        _clear_contour_tables()    # the planted heads are not loggamma sums
    assert sides[:2] == [True, False]
    assert len(scaled.calls) == sides.count(False)


_Z_NEAR_CAP = (1e-30, 1e-20, 1e-10, 1e-5, 1.0, 31.0, 50.0)

# (shape, d2) -> (value, abs_error_bound) of the contour path at each z above,
# recorded while the integrand still ran through numpy's complex exp; None where
# that run raised on a non-finite integral.  (169, 0.8) at z=1e-20 is finite
# although one node's real part overflowed to inf.
_CONTOUR_NEAR_CAP = {
    (150.0, 0.0): [
        (1.7034693809272418e+262, 8.659347350929844e+262),
        (1.944787892688015e+262, 7.709367612899342e+257),
        (1.0677609652258266e+262, 4.358899486024497e+252),
        (6.292425436934984e+261, 1.0376099883230768e+250),
        (1.9097888951292276e+261, 3.217582855692382e+247),
        (6.712166028144498e+260, 8.935713822528979e+246),
        (5.273153717121162e+260, 6.108298073130472e+246),
    ],
    (150.0, 0.8): [
        (1.1204045851768117e+263, 8.189622453687484e+252),
        (1.1204045851890423e+263, 8.392561136980834e+251),
        (1.1204045851421405e+263, 8.059431197367574e+250),
        (1.1204041090743645e+263, 2.3835774293613767e+250),
        (1.1156575723122734e+263, 8.587387113798506e+250),
        (1.0522024868390835e+263, 1.230194518683471e+249),
        (1.0249467572149296e+263, 1.0704700578063843e+249),
    ],
    (165.0, 0.0): [
        None,
        (1.6815710136004236e+295, 7.276690611598027e+290),
        (9.246539265074018e+294, 4.3061337031209867e+285),
        (5.461989029084475e+294, 1.321927436390972e+283),
        (1.679437031114522e+294, 2.894150877209133e+280),
        (6.054993178268637e+293, 8.057738112926058e+279),
        (4.78892454889621e+293, 5.527321172665525e+279),
    ],
    (165.0, 0.8): [
        (1.0436058076499239e+296, 8.807336359349442e+285),
        (1.0436058076547233e+296, 9.885020565076085e+284),
        (1.0436058076154428e+296, 6.023059718285076e+283),
        (1.0436053967543422e+296, 2.0626992682333258e+283),
        (1.0395078762700834e+296, 1.225119873218821e+282),
        (9.843172497135416e+295, 1.0938480322828863e+282),
        (9.603315831434239e+295, 1.1147325467629113e+282),
    ],
    (169.0, 0.0): [
        None,
        None,
        None,
        (4.203355367171474e+303, 1.0630973631436639e+292),
        (1.2966023077341658e+303, 2.331684437546092e+289),
        (4.7041046498625076e+302, 6.251274842488196e+288),
        (3.726689985634496e+302, 4.197725286901431e+288),
    ],
    (169.0, 0.8): [
        None,
        (-1.0405271001954226e+307, 2.0532293511627974e+307),
        (8.174881359809284e+304, 4.573919638642374e+292),
        (8.174878202530699e+304, 1.8389710889116518e+292),
        (8.143388627423351e+304, 9.94056885515093e+290),
        (7.718488053854017e+304, 9.435131065394264e+290),
        (7.533306408092415e+304, 8.372542011667186e+290),
    ],
}


@pytest.mark.parametrize("shape,d2", list(_CONTOUR_NEAR_CAP))
def test_meijer_contour_near_the_shape_cap_keeps_values_and_names_overflow(shape, d2):
    for z, want in zip(_Z_NEAR_CAP, _CONTOUR_NEAR_CAP[shape, d2]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if want is None:
                with pytest.raises(sf.ConvergenceError) as err:
                    sf._meijer_contour(d2, shape + d2, z)
                assert str(err.value).startswith("contour integral overflows (")
                assert f"a1={d2}, b3={shape + d2}, z={z}" in str(err.value)
            else:
                assert sf._meijer_contour(d2, shape + d2, z) == want


# shape 169 at z = 2e-8: the integrand peaks at 1.5e308 and QUADPACK flags its
# own estimate; this term is one of the four rates of ergodic_vs_snr at t1=2,
# N=338, 10 dBm
_FLAGGED = (0.0, 169.0, 1.9905358527674848e-08)


def test_meijer_flagged_contour_keeps_its_value_under_a_covering_bound():
    mp = pytest.importorskip("mpmath")
    got = sf.meijer_g_3123(*_FLAGGED)
    assert got.method == "contour" and got.value == 5.774410625122379e+303
    a1, b3, z = _FLAGGED
    ref = float(mp.meijerg([[a1], [1]], [[a1, 0, b3], []], z))
    assert abs(got.value - ref) <= got.abs_error_bound <= 1e-2 * got.value


def test_meijer_flagged_contour_without_a_second_evaluation_raises(monkeypatch):
    # the run at unit scale flags too: nothing covers the first estimate
    calls, real = [], sf.quadpack

    def flag_the_scaled_run(f, a, b, epsabs, epsrel, limit):
        calls.append(epsabs)
        val, err, ier = real(f, a, b, epsabs, epsrel, limit)
        return val, err, ier if len(calls) == 1 else 2

    monkeypatch.setattr(sf, "quadpack", flag_the_scaled_run)
    with pytest.raises(sf.ConvergenceError,
                       match=r"contour integral unresolved \(QUADPACK flag 2 at unit scale\)"):
        sf.meijer_g_3123(*_FLAGGED)
    assert len(calls) == 2 and calls[1] == 1e-12


def test_meijer_flagged_contour_loads_no_scipy_package():
    # the second run is QUADPACK's compiled routine again: the flagged term
    # loads the two extensions and no module of scipy.integrate's package or
    # of the scipy.optimize that package imports
    code = ("import sys\nfrom irislab import specfun as sf\n"
            f"assert sf.meijer_g_3123(*{_FLAGGED!r}).method == 'contour'\n"
            "print(*sorted(n for n in sys.modules if n.startswith('scipy.')))")
    env = {**os.environ, "PYTHONPATH": str(Path(sf.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = [n for n in proc.stdout.split() if n.startswith(("scipy.integrate", "scipy.optimize"))]
    assert loaded == ["scipy.integrate._quadpack"]
