import math
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, special
from scipy.special import cython_special

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


# op_gamma_approx and the 2F2 gamma path call scipy's scalar gammainc in
# place of the ufunc: the same routine, so the same bits
_ARGS_A = st.floats(1e-3, 2e3)
_ARGS_X = st.one_of(st.floats(0.0, 1e5), st.floats(0.0, 2.0 ** -1022, exclude_max=True))


@given(a=_ARGS_A, x=_ARGS_X)
def test_scalar_gammainc_equals_the_ufunc_bit_for_bit(a, x):
    assert cython_special.gammainc(a, x).hex() == float(special.gammainc(a, x)).hex()


@pytest.mark.parametrize("a,x", [
    (1.0, 0.0), (2.5, math.inf), (2.5, math.nan), (math.nan, 1.0), (2.5, 5e-324),
    (1e-3, 5e-324), (2e3, 2.0 ** -1030), (170.0, 0.0), (170.0, 1.0), (170.0, 170.0),
    (170.0, 1e5), (170.0, math.inf),
])
def test_scalar_gammainc_equals_the_ufunc_at_the_edges(a, x):
    assert cython_special.gammainc(a, x).hex() == float(special.gammainc(a, x)).hex()


def test_scalar_gammainc_equals_the_ufunc_on_random_pairs():
    # the ufunc runs the same loop on an array as on a scalar
    rng = np.random.default_rng(20261019)
    n = 150_000
    a = np.exp(rng.uniform(math.log(1e-3), math.log(2e3), 2 * n))
    x = np.concatenate([np.exp(rng.uniform(math.log(1e-300), math.log(1e5), n)),
                        a[n:] * np.exp(rng.uniform(-1.0, 1.0, n))])     # around x = a
    got = np.array([cython_special.gammainc(*ax) for ax in zip(a.tolist(), x.tolist())])
    assert np.array_equal(got.view(np.uint64), special.gammainc(a, x).view(np.uint64))


def test_hyp2f2_gamma_repr_equals_its_ufunc_form(monkeypatch):
    cases = [(3.0, 3.6, -120.0), (1.5, 2.0 + 2.0 / 3.0, -9.0), (0.5, 0.9, -1e4), (2.0, 170.0, -8.5)]
    got = [sf._hyp2f2_gamma_repr(*case).value for case in cases]
    monkeypatch.setattr(cython_special, "gammainc", special.gammainc)
    assert [v.hex() for v in got] == [sf._hyp2f2_gamma_repr(*c).value.hex() for c in cases]


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
# hyp2f2 rejects nonpositive-integer denominators before the series; near
# them the first terms overflow, and both loops give the same NaN run
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
    with pytest.raises(sf.ParameterPatternError):
        sf.meijer_g_3123(-0.1, 2.0, 1.0)    # a1 < 0
    with pytest.raises(sf.ParameterPatternError):
        sf.meijer_g_3123(1.0, 2.0, 1.0)     # a1 >= 1
    with pytest.raises(sf.ParameterPatternError):
        sf.meijer_g_3123(0.3, 0.3, 1.0)     # b3 <= a1
    with pytest.raises(ValueError):
        sf.meijer_g_3123(0.0, 2.0, -1.0)    # z <= 0


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


# (a1, b3): integer and non-integer shapes of both rate patterns; all but the
# last have coinciding poles (a1 = 0 = b2, or an integer b3 - a1) and take the
# contour at every z, the last takes Slater up to z = 30
_RATE_PARAMS = [(0.0, 4.0), (0.0, 4.3), (2.0 / 3.0, 4.0 + 2.0 / 3.0),
                (2.0 / 3.0, 4.3 + 2.0 / 3.0)]
_ZS = (45.0, 0.5, 1e-3, 20.0, 300.0, 0.5)       # both sides of the Slater limit z = 30


def _clear_contour_tables():
    sf._contour_line.cache_clear()
    sf._contour_heads.cache_clear()


def _cold(params, z):
    _clear_contour_tables()
    return sf.meijer_g_3123(*params, z)


def test_meijer_shared_nodes_give_the_fresh_results():
    for params in _RATE_PARAMS:
        for evaluate in (sf.meijer_g_3123, sf._meijer_contour):
            cold = []
            for z in _ZS:
                _clear_contour_tables()
                cold.append(evaluate(*params, z))
            _clear_contour_tables()
            warm = [evaluate(*params, z) for z in _ZS]
            assert warm == cold
            # both reached the contour at some z, so later z reused nodes
            assert sf._contour_heads.cache_info().hits > 0


def test_meijer_nodes_shared_by_interleaved_parameter_sets():
    # pairs of the sets differ only in b3, or only in a1: a pair keeps both its
    # tables in the two-table cache, four sets evict each other's at every call
    # and build each new table from its line, which no set evicts
    for sets in (_RATE_PARAMS[:2], _RATE_PARAMS[::2], _RATE_PARAMS):
        cold = [_cold(params, z) for z in _ZS for params in sets]
        _clear_contour_tables()
        warm = [sf.meijer_g_3123(*params, z) for z in _ZS for params in sets]
        assert warm == cold
        assert (sf._contour_heads.cache_info().hits > 0) == (len(sets) == 2)
        assert sf._contour_line.cache_info().misses == len({a1 for a1, _ in sets})


def _five_term_head(a1, b3, t):
    """The contour integrand's loggamma sum at node t, one scalar call per term."""
    bs, a2 = (a1, 0.0, b3), 1.0
    s = complex(0.5 * ((a1 - 1.0) + min(bs)), t)
    h = (special.loggamma(bs[0] - s) + special.loggamma(bs[1] - s)
         + special.loggamma(bs[2] - s) + special.loggamma(1.0 - a1 + s)
         - special.loggamma(a2 - s))
    return float(h.real).hex(), float(h.imag).hex()


def _visit_nodes(a1, b3, ts):
    """Run the contour integrand of (a1, b3) at exactly the nodes ts."""
    def quad(f, lo, hi, **kw):
        for t in ts:
            f(t)
        return 0.0, 0.0, {}
    with mock.patch.object(sf.integrate, "quad", quad):
        sf._meijer_contour(a1, b3, 1.0)


_LINES = st.sampled_from([0.0, 2.0 / 2.5, 2.0 / 3.0, 2.0 / 4.0])


@given(a1=_LINES, data=st.data(),
       ts=st.lists(st.floats(0.0, 48.0), max_size=40).map(
           lambda ts: [0.0, 5e-324, 1e-300, 1e-12, 48.0, *ts]))
def test_contour_table_fill_equals_the_scalar_five_term_head(a1, data, ts):
    # the first b3 visits every node on the scalar path, the second starts its
    # table from the line with one array loggamma; both equal the five terms
    b3s = data.draw(st.lists(st.floats(a1, 169.0, exclude_min=True),
                             min_size=2, max_size=2, unique=True))
    _clear_contour_tables()
    _visit_nodes(a1, b3s[0], ts)
    assert len(sf._contour_line(a1)) == len(set(ts))
    for b3 in b3s:
        heads = sf._contour_heads(a1, b3)
        assert {t: (x.hex(), y.hex()) for t, (x, y) in heads.items()} == {
            t: _five_term_head(a1, b3, t) for t in ts}


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


def test_new_b3_reuses_the_loggamma_terms_of_its_line(monkeypatch):
    calls = []

    class _Special:
        def __getattr__(self, name):
            return getattr(special, name)

        def loggamma(self, x):
            calls.append(np.ndim(x))
            return special.loggamma(x)

    monkeypatch.setattr(sf, "sp", _Special())
    _clear_contour_tables()
    sf._meijer_contour(0.0, 4.0, 0.5)
    seen = set(sf._contour_line(0.0))
    assert calls == [0] * 5 * len(seen)
    calls.clear()
    sf._meijer_contour(0.0, 4.3, 0.5)
    new = set(sf._contour_line(0.0)) - seen
    visited = set(sf._contour_heads(0.0, 4.3))
    # one array call for the nodes of the line, five scalar calls per new node
    assert calls == [1] + [0] * 5 * len(new)
    assert new <= visited and 5 * len(new) < len(visited) / 4


def test_contour_tables_stop_growing_at_their_bound(monkeypatch):
    want = [_cold(params, z) for params in _RATE_PARAMS[:2] for z in _ZS]
    monkeypatch.setattr(sf, "_TABLE_NODES", 50)
    _clear_contour_tables()
    assert [sf.meijer_g_3123(*params, z) for params in _RATE_PARAMS[:2] for z in _ZS] == want
    assert len(sf._contour_line(0.0)) == 50
    assert len(sf._contour_heads(*_RATE_PARAMS[1])) <= 50


def test_line_arrays_are_rebuilt_only_after_the_line_grew(monkeypatch):
    # a b3 new to an unchanged line starts from the line's arrays as they are;
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
    for b3 in (a1 + 4.3, a1 + 4.6):
        sf._contour_heads(a1, b3)
    assert fromiter.call_count == 1
    _visit_nodes(a1, a1 + 4.6, more)
    assert set(line) == {0.0, *first, *more} and fromiter.call_count == 1
    for b3 in (a1 + 4.9, a1 + 5.2):
        heads = sf._contour_heads(a1, b3)
        assert list(heads) == list(line)
        assert {t: (x.hex(), y.hex()) for t, (x, y) in heads.items()} == {
            t: _five_term_head(a1, b3, t) for t in line}
    assert fromiter.call_count == 2


# ---------------------------------------------------------------------------
# Contour integrand in real arithmetic
# ---------------------------------------------------------------------------

def test_exp_real_equals_numpy_complex_exp_bit_for_bit():
    rng = np.random.default_rng(20261018)
    n = 200_000
    x = rng.uniform(-745.0, 709.0, n)
    y = rng.uniform(-400.0, 400.0, n)
    y[: n // 10] *= 1e-303                # |y| < 1e-300
    y[n // 10: n // 5] *= 1e-320          # subnormal y
    x[-n // 20:] = rng.uniform(709.0, 745.0, n // 20)   # numpy's rescaled range
    xs, ys = x.tolist(), y.tolist()
    with np.errstate(over="ignore"):
        ref = [np.exp(complex(a, b)).real for a, b in zip(xs, ys)]
    got = [sf._exp_real(a, b) for a, b in zip(xs, ys)]
    assert [(a, b) for a, b, g, r in zip(xs, ys, got, ref) if g != r] == []


def test_exp_real_switches_to_numpy_just_above_709(monkeypatch):
    real_exp = []

    class _Math:
        def __getattr__(self, name):
            return getattr(math, name)

        def exp(self, x):
            real_exp.append(x)
            return math.exp(x)

    monkeypatch.setattr(sf, "math", _Math())
    above = math.nextafter(709.0, math.inf)
    for x, y in [(709.0, 0.3), (709.0, -2.0), (above, 0.3), (above, -2.0)]:
        with np.errstate(over="ignore"):
            assert sf._exp_real(x, y) == np.exp(complex(x, y)).real
    assert real_exp == [709.0, 709.0]
    # numpy's rescaled range: a finite real part beside an infinite imaginary
    # one, and an infinite real part, both without a warning
    with np.errstate(over="ignore"):
        assert np.isinf(np.exp(complex(710.0, math.pi / 2)).imag)
    assert sf._exp_real(710.0, math.pi / 2) == 1.3679272698459398e+292
    assert sf._exp_real(800.0, 0.3) == math.inf


def _contour_integrand(a1, b3, z):
    """The integrand ``_meijer_contour`` hands to quad for (a1, b3) at z."""
    handed = []

    def quad(f, lo, hi, **kw):
        handed.append(f)
        return 0.0, 0.0, {}
    with mock.patch.object(sf.integrate, "quad", quad):
        sf._meijer_contour(a1, b3, z)
    return handed[0]


@given(a1=_LINES, z=st.floats(1e-6, 300.0), data=st.data())
def test_contour_integrand_equals_numpy_complex_exp_on_both_sides_of_709(a1, z, data):
    # exp(x) cos(y) is returned in place at x <= 709; above it _exp_real runs
    _clear_contour_tables()
    b3 = a1 + 3.5
    f = _contour_integrand(a1, b3, z)
    heads = sf._contour_heads(a1, b3)
    lnz = math.log(z)
    c0lnz = 0.5 * (a1 - 1.0) * lnz
    edge = 709.0 - c0lnz
    steps = [-4, 4] + data.draw(st.lists(st.integers(-4, 4), max_size=6))
    offsets = data.draw(st.lists(st.floats(-60.0, 40.0), max_size=6))
    hit, miss = data.draw(st.lists(st.floats(0.0, 48.0), min_size=2, max_size=2, unique=True))
    sides = []
    try:
        with (mock.patch.object(sf, "_exp_real", wraps=sf._exp_real) as scaled,
              np.errstate(over="ignore")):
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
    assert scaled.call_count == sides.count(False)


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
    bs = (d2, 0.0, shape + d2)
    for z, want in zip(_Z_NEAR_CAP, _CONTOUR_NEAR_CAP[shape, d2]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if want is None:
                with pytest.raises(sf.ConvergenceError) as err:
                    sf._meijer_contour(d2, shape + d2, z)
                assert str(err.value).startswith("contour integral overflows (")
                assert f"bs={bs}, a1={d2}, a2=1.0, z={z}" in str(err.value)
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
    def unresolved(*args, **kwargs):
        return math.nan, math.nan, SimpleNamespace(success=False, message="forced")

    monkeypatch.setattr(sf.integrate, "quad_vec", unresolved)
    with pytest.raises(sf.ConvergenceError, match=r"contour integral unresolved \(forced\)"):
        sf.meijer_g_3123(*_FLAGGED)
