import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, special

from irislab import analysis as an
from irislab import cli, harness
from irislab import geometry as geo
from irislab import specfun as sf

PRODUCT_MEAN_21 = 0.83304055090469367132   # E|g| E|h| at (t1, t2) = (2, 1)


def _cfg(**kw):
    base = dict(M=1, K=1, N=2, t1=2.0, t2=1.0, p_b=1.0)
    base.update(kw)
    return geo.NetworkConfig(**base)


# ---------------------------------------------------------------------------
# Channel statistics
# ---------------------------------------------------------------------------

def test_m_tilde_values():
    # closed forms: for t_s = 1 the constant reduces to 2 t_l / (t_l - 1)
    assert an.m_tilde(2.0, 1.0) == pytest.approx(4.0, rel=1e-14)
    assert an.m_tilde(1.0, 2.0) == pytest.approx(4.0, rel=1e-14)
    assert an.m_tilde(3.0, 1.0) == pytest.approx(3.0, rel=1e-14)
    with pytest.raises(ValueError):
        an.m_tilde(2.0, 2.0)


def test_m_tilde_log_domain_against_arbitrary_precision():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    for (t1, t2) in [(3.0, 1.0), (3.3, 0.7), (4.0, 3.6), (0.9, 0.5)]:
        ts, tl = min(t1, t2), max(t1, t2)
        ref = float(2 * mp.gamma(tl - ts) * (mp.mpf(ts) * tl) ** ts * mp.gamma(2 * ts)
                    / (mp.gamma(ts) * mp.gamma(tl)))
        assert an.m_tilde(t1, t2) == pytest.approx(ref, rel=1e-12)


def test_m_tilde_is_the_sampled_tail_coefficient():
    # F(u) -> m_tilde u^(2 ts) / Gamma(2 ts + 1) as u -> 0; 16/15 would be 3.75x off
    rng = geo.stream(31, 0)
    x = np.sort(np.sqrt(rng.gamma(2.0, 0.5, 10 ** 6)) * np.sqrt(rng.gamma(1.0, 1.0, 10 ** 6)))
    u = 0.05
    emp = np.searchsorted(x, u) / len(x)
    tail = an.m_tilde(2.0, 1.0) * u ** 2 / math.gamma(3.0)
    assert emp == pytest.approx(tail, rel=0.10)


def test_high_snr_pdf_cdf_shape():
    st = an.high_snr_stats(2.0, 1.0, 2)
    assert st.t_s == 1.0 and st.t_l == 2.0 and st.a == 4.0
    assert an.high_snr_pdf(0.0, st) == 0.0            # a > 1
    xs = np.linspace(0.0, 5.0, 50)
    cdf = an.high_snr_cdf(xs, st)
    assert cdf[0] == 0.0
    assert np.all(np.diff(cdf) >= 0.0)
    # saturation: integral of the pdf over (0, inf) is the model mass, not 1
    mass, _ = integrate.quad(lambda v: an.high_snr_pdf(v, st), 0, np.inf)
    assert mass == pytest.approx(st.mass, rel=1e-10)
    assert an.high_snr_cdf(1e9, st) == pytest.approx(st.mass, rel=1e-12)
    assert st.mass == pytest.approx(0.25, rel=1e-12)


def test_high_snr_cdf_matches_small_quantiles():
    # tail approximation: checked only at the 0.1% quantile, wide band
    st = an.high_snr_stats(2.0, 1.0, 1)
    rng = geo.stream(17, 0)
    draws = np.sort(np.sqrt(rng.gamma(2.0, 0.5, 10 ** 6))
                    * np.sqrt(rng.gamma(1.0, 1.0, 10 ** 6)))
    q = draws[int(0.001 * len(draws))]
    assert an.high_snr_cdf(q, st) == pytest.approx(0.001, rel=0.25)


def test_laplace_normalization_at_zero():
    val, _ = integrate.quad(lambda x: an.product_nakagami_pdf(x, 2.0, 1.0), 0, np.inf)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_laplace_exact_against_quadrature():
    for s in (0.5, 5.0, 50.0):
        # substitution x = u/s keeps the integrand well scaled at large s
        val, _ = integrate.quad(
            lambda u: math.exp(-u) * an.product_nakagami_pdf(u / s, 2.0, 1.0) / s,
            0, 200.0, limit=400, epsabs=1e-14, epsrel=1e-12)
        assert an.laplace_exact(s, 2.0, 1.0) == pytest.approx(val, rel=1e-8)
        assert an.laplace_exact(s, 2.0, 1.0) <= 1.0


def test_laplace_ratio_tends_to_one():
    r = an.laplace_exact(1e4, 2.0, 1.0) / an.laplace_high_snr(1e4, 2.0, 1.0)
    assert abs(r - 1.0) < 0.01
    r3 = an.laplace_exact(3e4, 3.3, 0.7) / an.laplace_high_snr(3e4, 3.3, 0.7)
    assert abs(r3 - 1.0) < 0.01


def test_product_pdf_moments_and_kernel():
    mean, _ = integrate.quad(lambda x: x * an.product_nakagami_pdf(x, 2.0, 1.0), 0, np.inf)
    assert mean == pytest.approx(PRODUCT_MEAN_21, rel=1e-9)
    # the second-kind kernel equals the reflection combination of I_nu
    # (checked at small arguments; the difference is ill-conditioned for y >> 1)
    for (t1, t2, x) in [(2.3, 1.0, 0.2), (3.7, 1.2, 0.4)]:
        ts, tl = min(t1, t2), max(t1, t2)
        nu = tl - ts
        y = 2.0 * math.sqrt(ts * tl) * x
        k_from_i = (math.pi * float(special.iv(-nu, y) - special.iv(nu, y))
                    / (2.0 * math.sin(math.pi * nu)))
        assert float(special.kv(nu, y)) == pytest.approx(k_from_i, rel=1e-8)
    with pytest.raises(ValueError):
        an.product_nakagami_pdf(0.0, 2.0, 1.0)


def test_product_pdf_matches_sampled_histogram():
    rng = geo.stream(101, 0)
    n = 10 ** 6
    draws = np.sort(np.sqrt(rng.gamma(2.0, 0.5, n)) * np.sqrt(rng.gamma(1.0, 1.0, n)))
    grid = np.linspace(1e-6, draws[-1] + 1.0, 4001)
    pdf = an.product_nakagami_pdf(grid, 2.0, 1.0)
    cdf = integrate.cumulative_trapezoid(pdf, grid, initial=0.0)
    model = np.interp(draws, grid, cdf)
    emp = (np.arange(n) + 0.5) / n
    assert np.max(np.abs(model - emp)) < 0.004


# ---------------------------------------------------------------------------
# Outage probability
# ---------------------------------------------------------------------------

def test_op_closed_form_limits():
    assert an.op_closed_form(_cfg(p_b=1e9)) < 1e-20
    # degenerate annulus
    near = an.op_closed_form(_cfg(R=1.0 + 1e-9))
    assert abs(near) < 1e-9


def test_op_closed_form_equals_quadrature():
    rng = np.random.default_rng(7)
    for _ in range(8):
        t1 = rng.uniform(0.5, 4.0)
        t2 = t1
        while abs(t2 - t1) < 0.3:
            t2 = rng.uniform(0.5, 4.0)
        cfg = _cfg(N=int(rng.integers(1, 9)), t1=t1, t2=t2,
                   alpha=rng.uniform(2.5, 4.0), p_b=10.0 ** rng.uniform(-3, 3))
        cf = an.op_closed_form(cfg)
        q = an.op_quadrature(cfg)
        if q > 1e-300:
            assert cf == pytest.approx(q, rel=1e-8)


def test_op_asymptotic_leading_term():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    cfg = _cfg(p_b=30.0)
    got = an.op_asymptotic(cfg, n_max=0)
    s, b = an._tail_model(cfg)
    phi = (2 * mp.mpf(s.m_tilde) ** s.n * (4 * mp.mpf(s.t_s) * s.t_l) ** (-s.t_s * s.n)
           / (mp.gamma(s.a) * (mp.mpf(cfg.R) ** 2 - cfg.r0 ** 2)))
    aa2 = cfg.alpha * s.a + 2
    lead = phi * mp.mpf(b) ** s.a / (s.a * aa2) * (
        mp.mpf(cfg.R) ** aa2 - mp.mpf(cfg.r0) ** aa2)
    assert got == pytest.approx(float(lead), rel=1e-12)


def test_op_asymptotic_converges_to_closed_form():
    # pick the power so that b R^alpha is about one half
    cfg = _cfg()
    cfg = _cfg(p_b=cfg.p_b * (an._tail_model(cfg)[1] * cfg.R ** 3 / 0.5))
    assert an._tail_model(cfg)[1] * cfg.R ** 3 == pytest.approx(0.5, rel=1e-12)
    cf = an.op_closed_form(cfg)
    asy = an.op_asymptotic(cfg, n_max=30)
    assert asy == pytest.approx(cf, rel=1e-6)
    with pytest.raises(ValueError):
        an.op_asymptotic(_cfg(p_b=1e-6))


def _op_asymptotic_per_term_logs(cfg, n_max):
    """The high-SNR series with every logarithm taken inside its term: the
    reference for the bits of ``op_asymptotic``, which takes them once."""
    stats, b = an._tail_model(cfg)
    R, r0, alpha = cfg.R, cfg.r0, cfg.alpha
    ln_phi = an._ln_phi(stats, cfg)
    a, d = stats.a, 2.0 / alpha
    total = 0.0
    for n in range(n_max + 1):
        coef = a * (a + d) / ((a + n) * (a + d + n))
        expo = alpha * a + alpha * n + 2.0
        ln_mag = (ln_phi - math.log(a * (alpha * a + 2.0)) + math.log(coef)
                  - math.lgamma(n + 1.0) + (a + n) * math.log(b)
                  + expo * math.log(R) + math.log1p(-math.exp(expo * (math.log(r0) - math.log(R)))))
        total += (-1.0) ** n * math.exp(ln_mag)
    return total


@given(N=st.integers(1, 64), ts=st.floats(0.5, 4.0), gap=st.floats(0.05, 3.0),
       swap=st.booleans(), alpha=st.floats(2.1, 4.5), R=st.floats(2.0, 500.0),
       r0_share=st.floats(1e-3, 0.9), y=st.floats(1e-9, 0.99), n_max=st.integers(0, 40))
def test_op_asymptotic_equals_the_per_term_logarithms_bit_for_bit(
        N, ts, gap, swap, alpha, R, r0_share, y, n_max):
    t1, t2 = (ts + gap, ts) if swap else (ts, ts + gap)
    cfg = _cfg(N=N, t1=t1, t2=t2, alpha=alpha, R=R, r0=r0_share * R)
    # b falls as 1 / p_b: choose the power that puts b R^alpha near y
    cfg = _cfg(N=N, t1=t1, t2=t2, alpha=alpha, R=R, r0=r0_share * R,
               p_b=an._tail_model(cfg)[1] * R ** alpha / y)
    got = an.op_asymptotic(cfg, n_max)
    assert got.hex() == _op_asymptotic_per_term_logs(cfg, n_max).hex()


def test_op_asymptotic_is_zero_where_the_threshold_scale_underflows():
    cfg = _cfg(p_b=1e300, sigma2=5e-324)
    assert an._tail_model(cfg)[1] == 0.0
    assert an.op_asymptotic(cfg) == an.op_closed_form(cfg) == 0.0


def test_op_asymptotic_rejects_a_negative_term_count():
    with pytest.raises(ValueError, match="n_max"):
        an.op_asymptotic(_cfg(p_b=30.0), n_max=-1)


def test_op_asymptotic_slope_matches_order():
    from irislab.montecarlo import empirical_diversity_slope
    # measured on the bare-threshold convention so b R^alpha stays < 1
    curve = []
    for snr_db in (80.0, 90.0, 100.0):
        cfg = _cfg(ref_atten_db=0.0)
        cfg = geo.NetworkConfig(**{**cfg.__dict__, "p_b": cfg.sigma2 * 10 ** (snr_db / 10)})
        curve.append((snr_db, an.op_asymptotic(cfg, n_max=40)))
    slope = empirical_diversity_slope(curve)
    assert slope == pytest.approx(4.0, rel=0.01)


def test_op_monotonicity():
    cfgs = [_cfg(p_b=p) for p in (0.5, 1.0, 2.0, 4.0)]
    vals = [an.op_closed_form(c) for c in cfgs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    rates = [1.0, 1.5, 2.0]
    vals_r = [an.op_closed_form(_cfg(R_m=r)) for r in rates]
    assert all(a <= b for a, b in zip(vals_r, vals_r[1:]))


def test_diversity_order_values():
    assert an.diversity_order(2.0, 1.0, 2) == 4.0
    assert an.diversity_order(2.0, 1.0, 3) == 6.0
    assert an.diversity_order(1.0, 5.0, 1) == 2.0


def test_op_special_case():
    assert an.op_special_case(1.0, 1, 1.0, 1.0, 3.0) == pytest.approx(0.4, rel=1e-14)
    # doubling N doubles the distance exponent
    v1 = an.op_special_case(0.5, 1, 2.0, 3.0, 3.0)
    v2 = an.op_special_case(0.5, 2, 2.0, 3.0, 3.0)
    assert v2 / v1 == pytest.approx(0.5 * 6.0 ** 3 * 5.0 / (8.0 * 2.0), rel=1e-12)
    # slope of log P against log(1/eps) equals N
    for n in (1, 2, 3):
        e1, e2 = 1e-3, 1e-4
        p1 = an.op_special_case(e1, n, 1.0, 1.0, 3.0)
        p2 = an.op_special_case(e2, n, 1.0, 1.0, 3.0)
        slope = (math.log(p1) - math.log(p2)) / (math.log(1 / e2) - math.log(1 / e1))
        assert slope == pytest.approx(n, rel=1e-12)


def _op_gamma_approx_on_the_ufunc(cfg):
    """``op_gamma_approx`` with its integrand on the ``gammainc`` ufunc."""
    approx = an.gamma_approx(cfg)
    delta = an._outage_threshold(cfg) / approx.scale

    def f(r):
        return special.gammainc(approx.shape, delta * (cfg.d1 * r) ** cfg.alpha) * r

    val, _ = integrate.quad(f, cfg.r0, cfg.R, limit=400, epsabs=0.0, epsrel=1e-10)
    return 2.0 * val / (cfg.R ** 2 - cfg.r0 ** 2)


def test_op_gamma_approx_equals_its_ufunc_form_over_the_fading_sweep_grid():
    spec = cli._load("op_fading_sweep")
    names = [name for name, _ in spec.sweep]
    points = list(itertools.product(*(values for _, values in spec.sweep)))
    assert len(points) == 63
    for point in points:
        cfg = harness._apply_axes(spec.base, names, point)
        assert an.op_gamma_approx(cfg).hex() == _op_gamma_approx_on_the_ufunc(cfg).hex()


def test_op_gamma_approx_equal_fading():
    cfg = _cfg(t1=2.0, t2=2.0, K=4, N=10, p_b=0.01)
    p = an.op_gamma_approx(cfg)
    assert 0.0 < p < 1.0
    p_hi = an.op_gamma_approx(geo.NetworkConfig(**{**cfg.__dict__, "p_b": 1.0}))
    assert p_hi < p


# ---------------------------------------------------------------------------
# Exact outage of the model (Laplace inversion)
# ---------------------------------------------------------------------------

def _pb_dbm(n, pb_dbm):
    return _cfg(N=n, p_b=1e-3 * 10 ** (pb_dbm / 10.0))


def test_product_sum_cdf_single_product_against_density():
    # includes t1 == t2, where the tail model has a pole
    for t1, t2 in ((2.0, 1.0), (3.3, 0.7), (1.5, 1.5)):
        for x in (1e-3, 0.05, 0.5, 1.0, 3.0):
            ref, _ = integrate.quad(lambda v: an.product_nakagami_pdf(v, t1, t2), 0.0, x,
                                    limit=200, epsabs=0.0, epsrel=1e-13)
            assert an.product_sum_cdf(x, t1, t2, 1) == pytest.approx(ref, rel=1e-10)


def _mp_laplace(mp, t1, t2):
    """The per-product Laplace transform in mpmath's working precision."""
    ts, tl = min(t1, t2), max(t1, t2)
    half = mp.mpf(1) / 2
    beta = 2 * mp.sqrt(mp.mpf(ts) * tl)
    ln_mbar = (mp.log(mp.pi) / 2 + (ts - tl + 1) * mp.log(4) + ts * mp.log(mp.mpf(ts) * tl)
               + mp.loggamma(2 * ts) + mp.loggamma(2 * tl) - mp.loggamma(ts)
               - mp.loggamma(tl) - mp.loggamma(ts + tl + half))

    def lap(s):
        return mp.exp(ln_mbar - 2 * ts * mp.log(s + beta)) * mp.hyp2f1(
            2 * ts, ts - tl + half, ts + tl + half, (s - beta) / (s + beta))
    return lap


def test_laplace_exact_against_arbitrary_precision():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for t1, t2 in ((2.0, 1.0), (3.3, 0.7), (1.5, 1.5)):
        lap = _mp_laplace(mp, t1, t2)
        for s in (0.1, 1.0, 10.0, 100.0, 1e4):
            assert an.laplace_exact(s, t1, t2) == pytest.approx(float(lap(s)), rel=1e-13, abs=0.0)


def test_product_sum_cdf_against_arbitrary_precision_inversion():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 25
    for t1, t2 in ((2.0, 1.0), (3.3, 0.7)):
        lap = _mp_laplace(mp, t1, t2)
        for n in (2, 3):
            def ref(x):
                return float(mp.invertlaplace(lambda s: lap(s) ** n / s, x, method="talbot"))
            # relative accuracy while the CDF is small, absolute where it nears one
            for x in (1e-4, 0.05, 2.0):
                assert an.product_sum_cdf(x, t1, t2, n) == pytest.approx(ref(x), rel=1e-12,
                                                                         abs=0.0)
            assert an.product_sum_cdf(20.0, t1, t2, n) == pytest.approx(ref(20.0), abs=5e-12)


def test_product_sum_cdf_is_a_distribution():
    xs = np.concatenate(([0.0], np.logspace(-3, 1.5, 60)))
    for t1, t2, n in ((2.0, 1.0, 2), (1.0, 1.0, 3), (3.3, 0.7, 8)):
        cdf = an.product_sum_cdf(xs, t1, t2, n)
        assert cdf[0] == 0.0
        assert np.all(np.diff(cdf) > -1e-11)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        an.product_sum_cdf(-1.0, 2.0, 1.0, 2)


def test_laplace_exact_at_equal_fading_near_z_one_against_arbitrary_precision():
    # t1 == t2: near z = 1 the 2F1 has a logarithmic singularity; scipy gave inf
    # at the real Talbot node (NaN CDF) and lost digits at the others
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for t in (1.0, 1.5, 2.0):
        lap = _mp_laplace(mp, t, t)
        for s in (1e13, 9.6e15, 1e18):
            assert an.laplace_exact(s, t, t) == pytest.approx(float(lap(s)), rel=1e-13, abs=0.0)


# the first three cases once raised ConvergenceError (NaN at the real Talbot node)
@pytest.mark.parametrize("t1,t2,n,xs", [
    (1.0, 1.0, 2, [1e-15, 1e-13]), (1.5, 1.5, 1, [1e-3, 1e-15]), (2.0, 2.0, 3, 3e-15),
    (1.0, 1.0, 1, [1e-15, 1e-13]), (1.0, 1.0, 3, [1e-15, 1e-13]),
    (2.0, 2.0, 1, [1e-15, 1e-13]), (2.0, 2.0, 2, [1e-15, 1e-13]), (2.0, 2.0, 3, [1e-13])])
def test_product_sum_cdf_at_equal_fading_and_tiny_x_against_arbitrary_precision(t1, t2, n, xs):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    lap = _mp_laplace(mp, t1, t2)
    for x in np.atleast_1d(xs):
        ref = float(mp.invertlaplace(lambda s: lap(s) ** n / s, x, method="talbot"))
        assert an.product_sum_cdf(x, t1, t2, n) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_hyp2f1_expansion_about_one_against_arbitrary_precision():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for a in (1.0, 3.0, 10.0):
        w = np.array([1e-16, 1e-10, 1e-3 * (1 + 1j), 0.049j])
        got = an._hyp2f1_at_one(a, 0.5, w)
        for wi, gi in zip(w, got):
            ref = complex(mp.hyp2f1(a, 0.5, a + 0.5, 1 - mp.mpc(wi)))
            assert abs(gi / ref - 1) < 5e-15
    # the terms peak near n = a w / (1 - w): past the 200-term cap, an error
    with pytest.raises(sf.ConvergenceError, match="did not converge"):
        an._hyp2f1_at_one(1e4, 0.5, np.array([0.049]))


@pytest.mark.parametrize("t1,t2,n,xs", [
    pytest.param(3.0, 2.0, 16, np.logspace(-3, 3, 200), id="3.0-2.0-16-xs3"),
    pytest.param(2.0, 1.0, 32, np.logspace(-3, 3, 200), id="2.0-1.0-32-xs4")])
def test_product_sum_cdf_raises_where_the_inversion_fails(t1, t2, n, xs):
    # values far outside [0, 1] for large n: an error, not a number and not a
    # RuntimeWarning
    with pytest.raises(sf.ConvergenceError, match=r"Talbot inversion gives CDF .* at x="):
        an.product_sum_cdf(xs, t1, t2, n)


def test_op_exact_raises_where_the_inversion_fails():
    # N = 64 at -30 dBm once gave -2.0e39 beside an IntegrationWarning
    with pytest.raises(sf.ConvergenceError, match=r"\(t1=1.0, t2=2.0, n=64\)"):
        an.op_exact(_pb_dbm(64, -30.0))


def test_op_exact_single_element_against_swapped_integral():
    # N = 1: OP = int f(x) P(r > (x / c)^(1/alpha)) dx, no inversion involved
    for pb_dbm in (-20.0, -5.0, 10.0, 40.0):
        cfg = _pb_dbm(1, pb_dbm)
        R, r0, alpha = cfg.R, cfg.r0, cfg.alpha
        stats, b = an._tail_model(cfg)
        c = b / stats.rate

        def f(x):
            rho2 = max((x / c) ** (2.0 / alpha), r0 ** 2)
            return an.product_nakagami_pdf(x, cfg.t1, cfg.t2) * (R ** 2 - rho2)

        hi = min(c * R ** alpha, 60.0)
        knee = c * r0 ** alpha
        ref, _ = integrate.quad(f, 0.0, hi, points=[knee] if knee < hi else None,
                                limit=400, epsabs=0.0, epsrel=1e-12)
        ref /= R ** 2 - r0 ** 2
        assert 1e-9 < ref < 1.0
        assert an.op_exact(cfg) == pytest.approx(ref, rel=1e-9)


def test_op_exact_ratio_to_closed_form_rises_to_one():
    # the closed form is the high-SNR approximation of the exact outage
    for n in (2, 3):
        ratios = []
        for pb_dbm in (0.0, 10.0, 20.0, 30.0, 40.0):
            cfg = _pb_dbm(n, pb_dbm)
            ratios.append(an.op_closed_form(cfg) / an.op_exact(cfg))
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1.0
        assert ratios[2] > 0.98 and ratios[3] > 0.998


def test_op_exact_at_equal_fading_agrees_with_monte_carlo():
    # t1 == t2: the tail model has a pole there, the exact route has none
    from irislab import montecarlo as mc
    plan = mc.TrialPlan(trials=200000, master_seed=4)
    for pb_dbm in (-5.0, 0.0):
        cfg = _cfg(N=2, t1=2.0, t2=2.0, p_b=1e-3 * 10 ** (pb_dbm / 10.0))
        est = mc.simulate_op(plan, cfg)
        assert abs(an.op_exact(cfg) - est.mean) <= 3.0 * est.std_error
        for tail_model in (an.op_closed_form, an.op_asymptotic, an.op_quadrature):
            with pytest.raises(ValueError, match="t1 != t2"):
                tail_model(cfg)


# ---------------------------------------------------------------------------
# Gamma approximation and ergodic rate
# ---------------------------------------------------------------------------

def test_gamma_approx_fields():
    ap = an.gamma_approx(_cfg(t1=1.0, t2=1.0, N=6))
    assert ap.shape == pytest.approx(2.0)
    assert ap.scale == pytest.approx(3.0)
    for cfg in (_cfg(N=8), _cfg(K=3, N=12, t1=3.3, t2=0.8)):
        ap = an.gamma_approx(cfg)
        assert ap.shape * ap.scale == pytest.approx(cfg.N * cfg.Q, rel=1e-12)
        assert ap.shape * ap.scale ** 2 == pytest.approx(cfg.N * cfg.Q * ap.scale, rel=1e-12)


def test_gamma_approx_moments_match_bound_statistic():
    # the moment-matched statistic is sum_q sum_n |g|^2 |h|^2 with shared h
    cfg = _cfg(K=2, N=8, t1=2.0, t2=1.0)
    rng = geo.stream(188, 0)
    n = 10 ** 6
    h2 = rng.gamma(2.0, 0.5, (n, 8))
    g2 = rng.gamma(1.0, 1.0, (n, 2, 8))
    stat = (g2 * h2[:, None, :]).sum(axis=(1, 2))
    ap = an.gamma_approx(cfg)
    nq = cfg.N * cfg.Q
    assert stat.mean() == pytest.approx(nq, abs=4 * stat.std() / math.sqrt(n))
    assert stat.var() == pytest.approx(nq * ap.scale, rel=0.02)


def test_gamma_approx_ks_band():
    # The Gamma model moment-matches the bound statistic sum |g|^2 |h|^2, and
    # tracks it closely (KS ~ 0.016 here).  Against the full squared norm the
    # distance is ~0.98 (mean 94 vs 16 at this config): the bound is loose,
    # which is exactly why every rate comparison carries a mismatch band.
    cfg = _cfg(K=2, N=8, t1=2.0, t2=1.0)
    ap = an.gamma_approx(cfg)
    rng = geo.stream(189, 0)
    n = 10 ** 5
    h2 = rng.gamma(2.0, 0.5, (n, 8))
    g2 = rng.gamma(1.0, 1.0, (n, 2, 8))
    gain = np.sort((g2 * h2[:, None, :]).sum(axis=(1, 2)))
    emp = (np.arange(n) + 0.5) / n
    model = special.gammainc(ap.shape, gain / ap.scale)
    ks = float(np.max(np.abs(model - emp)))
    assert ks < 0.15      # heuristic model: tolerance band, not equality
    s = (np.sqrt(g2) * np.sqrt(h2)[:, None, :]).sum(axis=2)
    full = np.sort((s ** 2).sum(axis=1))
    ks_full = float(np.max(np.abs(special.gammainc(ap.shape, full / ap.scale) - emp)))
    assert ks_full > 0.5  # documents how loose the lower bound is


def test_ergodic_rate_quadrature_baselines():
    cfg = _cfg(N=8)
    ap = an.gamma_approx(cfg)
    tiny = an.ergodic_rate_quadrature(ap, geo.NetworkConfig(**{**cfg.__dict__, "p_b": 1e-12}))
    assert tiny < 1e-3
    # slope-one law: +10 dB of power adds log2(10) bits in the high-SNR regime
    hi1 = an.ergodic_rate_quadrature(ap, geo.NetworkConfig(
        **{**cfg.__dict__, "p_b": 1e10 * cfg.sigma2}))
    hi2 = an.ergodic_rate_quadrature(ap, geo.NetworkConfig(
        **{**cfg.__dict__, "p_b": 1e11 * cfg.sigma2}))
    assert hi2 - hi1 == pytest.approx(math.log2(10.0), rel=0.02)


def test_ergodic_rate_quadrature_vs_gamma_sampling():
    cfg = _cfg(N=8, p_b=1.0)
    ap = an.gamma_approx(cfg)
    want = an.ergodic_rate_quadrature(ap, cfg)
    rng = geo.stream(321, 0)
    n = 10 ** 6
    gain = rng.gamma(ap.shape, ap.scale, n)
    r = geo.sample_user_distance(rng, cfg.R, cfg.r0, n)
    snr = gain * cfg.ref_atten_lin * (cfg.d1 * r) ** (-cfg.alpha) * cfg.p_b / (cfg.Q * cfg.sigma2)
    vals = np.log2(1.0 + snr)
    se = vals.std() / math.sqrt(n)
    assert vals.mean() == pytest.approx(want, abs=3 * se)


def test_ergodic_rate_meijer_matches_quadrature():
    # the last two sit at Gamma shape 169.5, where the Slater terms near 1e305
    # once overflowed the conditioning guard (RuntimeWarnings are errors here)
    for cfg in (_cfg(N=4), _cfg(N=8, t1=3.0), _cfg(N=4, K=2, t1=2.0),
                _cfg(N=339, p_b=1e-6), _cfg(N=339, p_b=10 ** -4.5)):
        ap = an.gamma_approx(cfg)
        rq = an.ergodic_rate_quadrature(ap, cfg)
        rm = an.ergodic_rate_meijer(ap, cfg)
        assert rm == pytest.approx(rq, rel=1e-5)


def _cold_rate(cfg):
    sf._contour_line.cache_clear()
    sf._contour_heads.cache_clear()
    return an.ergodic_rate_meijer(an.gamma_approx(cfg), cfg)


def test_ergodic_rate_meijer_shared_nodes_over_a_power_axis():
    # integer shape (contour fallback) and non-integer shape (Slater below z = 30),
    # one power axis after the other, then the two interleaved point by point
    axes = [[_cfg(N=n, t1=t1, p_b=1e-3 * 10 ** (pb / 10.0))
             for pb in (-10.0, 0.0, 10.0, 20.0, 30.0)] for t1, n in ((2.0, 4), (1.5, 8))]
    for cfgs in (axes[0] + axes[1], [c for pair in zip(*axes) for c in pair]):
        want = [_cold_rate(cfg) for cfg in cfgs]
        sf._contour_line.cache_clear()
        sf._contour_heads.cache_clear()
        assert [an.ergodic_rate_meijer(an.gamma_approx(c), c) for c in cfgs] == want
        assert sf._contour_heads.cache_info().hits > 0


def test_ergodic_rate_meijer_names_the_config_behind_a_shape_past_the_cap():
    cfg = _cfg(N=400, t1=5.0)
    with pytest.raises(ValueError, match=r"^shape 285\.7 \(N=400, t1=5\.0, t2=1\.0, Q=1\) "
                                         r"overflows the linear-domain assembly$"):
        an.ergodic_rate_meijer(an.gamma_approx(cfg), cfg)


def test_ergodic_rate_meijer_degenerate_annulus():
    cfg = geo.NetworkConfig(M=1, K=1, N=4, t1=2.0, t2=1.0, p_b=1.0,
                            R=50.0, r0=49.99)
    ap = an.gamma_approx(cfg)
    rm = an.ergodic_rate_meijer(ap, cfg)
    rq = an.ergodic_rate_quadrature(ap, cfg)
    assert rm == pytest.approx(rq, rel=1e-4)
    # single-distance limit: E log2(1 + gain * c') at r = 50
    c = an.rate_snr_scale(ap, cfg)
    val, _ = integrate.quad(
        lambda x: special.gammaincc(ap.shape, c * x * 50.0 ** 3) / (1 + x),
        0, np.inf, limit=400)
    assert rm == pytest.approx(val / math.log(2.0), rel=1e-3)


def test_ergodic_rate_monotone_in_elements():
    cfgs = [_cfg(N=n) for n in (2, 4, 8, 16)]
    rates = [an.ergodic_rate_meijer(an.gamma_approx(c), c) for c in cfgs]
    assert all(a < b for a, b in zip(rates, rates[1:]))


def test_high_snr_slope_is_one():
    cfg = _cfg(N=4)
    slope = an.high_snr_slope(
        lambda c: an.ergodic_rate_quadrature(an.gamma_approx(c), c), cfg)
    assert slope == pytest.approx(1.0, abs=0.02)


# ---------------------------------------------------------------------------
# SE / power / EE
# ---------------------------------------------------------------------------

def test_se_power_ee():
    pm = an.PowerModel(P_Bs=10 ** 0.9, eps_b=1.2, P_U=0.01, P_L=0.01)
    cfg = _cfg(N=10, p_b=1.0)
    pe = an.power_consumption(pm, cfg)
    assert pe == pytest.approx(9.253, abs=1e-3)
    assert an.energy_efficiency(4.0, 2.0) == 2.0
    assert an.energy_efficiency(8.0, 2.0) == 4.0
    with pytest.raises(ZeroDivisionError):
        an.energy_efficiency(1.0, 0.0)
    with pytest.raises(ValueError):
        an.PowerModel(P_Bs=-1.0, eps_b=1.0, P_U=0.0, P_L=0.0)
