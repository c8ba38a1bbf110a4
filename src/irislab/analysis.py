"""Closed-form performance expressions and their quadrature oracles.

Layout mirrors the derivation chain: high-SNR channel statistics, outage
probability (closed form, quadrature reference, asymptotic series, and the
exact outage of the same model by Laplace inversion), diversity order, the
Gamma approximation of the post-combining gain, ergodic rate by nested
quadrature and by Meijer-G closed form, high-SNR slope, and the SE / power /
EE bookkeeping.

Two conventions differ from the way the source formulas are usually printed,
both forced by the oracles:

* the per-product constant ``m_tilde`` carries the exact small-argument tail
  coefficient 2 Gamma(tl-ts) (ts*tl)^ts Gamma(2 ts) / (Gamma(ts) Gamma(tl));
  anything else fails both the Laplace-transform asymptotics and the sampled
  tail quantiles;
* the exponent family delta = 2/alpha, which is what makes the closed form
  agree with the defining radial integral.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .geometry import NetworkConfig, as_float
from .specfun import ConvergenceError, hyp2f2, lazy_module, meijer_g_3123

integrate = lazy_module("scipy.integrate")
sp = lazy_module("scipy.special")

__all__ = [
    "HighSnrChannelStats",
    "GammaApprox",
    "PowerModel",
    "m_tilde",
    "high_snr_stats",
    "high_snr_pdf",
    "high_snr_cdf",
    "laplace_exact",
    "laplace_high_snr",
    "product_nakagami_pdf",
    "product_sum_cdf",
    "op_closed_form",
    "op_quadrature",
    "op_asymptotic",
    "op_exact",
    "op_gamma_approx",
    "diversity_order",
    "op_special_case",
    "gamma_approx",
    "rate_snr_scale",
    "ergodic_rate_quadrature",
    "ergodic_rate_meijer",
    "high_snr_slope",
    "power_consumption",
    "energy_efficiency",
]


def _split_ts_tl(t1: float, t2: float):
    return min(t1, t2), max(t1, t2)


def m_tilde(t1: float, t2: float) -> float:
    """Tail constant of one co-phased product gain, log-domain evaluation.

    The density of |g||h| behaves like m_tilde x^(2 ts - 1) / Gamma(2 ts)
    as x -> 0; requires t1 != t2 (the constant has a pole at equality).
    """
    ts, tl = _split_ts_tl(t1, t2)
    if ts == tl:
        raise ValueError("m_tilde requires t1 != t2: the tail model has a pole at "
                         "equality (op_exact has none)")
    ln = (math.log(2.0) + math.lgamma(tl - ts) + ts * math.log(ts * tl)
          + math.lgamma(2.0 * ts) - math.lgamma(ts) - math.lgamma(tl))
    return math.exp(ln)


@dataclass(frozen=True)
class HighSnrChannelStats:
    """Small-gain model of the N-element co-phased channel; ``m_tilde`` needs t1 != t2."""

    t_s: float
    t_l: float
    a: float          # 2 * t_s * N
    n: int            # element count

    @property
    def m_tilde(self) -> float:
        return m_tilde(self.t_s, self.t_l)

    @property
    def rate(self) -> float:
        """Exponential rate of the model density."""
        return 2.0 * math.sqrt(self.t_s * self.t_l)

    @property
    def mass(self) -> float:
        """Total mass of the tail model; saturates the CDF below one."""
        return (self.m_tilde * (4.0 * self.t_s * self.t_l) ** (-self.t_s)) ** self.n


def high_snr_stats(t1: float, t2: float, n: int) -> HighSnrChannelStats:
    ts, tl = _split_ts_tl(t1, t2)
    return HighSnrChannelStats(t_s=ts, t_l=tl, a=2.0 * ts * n, n=int(n))


def high_snr_pdf(x, stats: HighSnrChannelStats):
    """Tail-model density m_tilde^N x^(a-1) exp(-rate x) / Gamma(a)."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("gain must be nonnegative")
    ln_norm = stats.n * math.log(stats.m_tilde) - math.lgamma(stats.a)
    at_zero = math.exp(ln_norm) if stats.a == 1.0 else 0.0   # a >= 1 always
    with np.errstate(divide="ignore"):
        out = np.where(
            x > 0.0,
            np.exp(ln_norm + (stats.a - 1.0) * np.log(np.maximum(x, 1e-300))
                   - stats.rate * x),
            at_zero,
        )
    return out if out.ndim else float(out)


def high_snr_cdf(x, stats: HighSnrChannelStats):
    """Tail-model CDF; saturates at ``stats.mass`` rather than one."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("gain must be nonnegative")
    out = stats.mass * sp.gammainc(stats.a, stats.rate * x)
    return out if out.ndim else float(out)


def _ln_mbar(ts: float, tl: float) -> float:
    """ln of the constant in front of the 2F1 in the per-product transform."""
    return (0.5 * math.log(math.pi) + (ts - tl + 1.0) * math.log(4.0)
            + ts * math.log(ts * tl) + math.lgamma(2.0 * ts) + math.lgamma(2.0 * tl)
            - math.lgamma(ts) - math.lgamma(tl) - math.lgamma(ts + tl + 0.5))


def _ln_laplace(s, ts: float, tl: float):
    """ln of the per-product Laplace transform, principal branches.

    ``s`` may be complex (array): scipy's 2F1 continues the transform to the
    left half plane; its cut and the cut of (s + beta)^(-2 ts) both lie on
    (-inf, -beta], where the transform has its only singularities.
    """
    beta = 2.0 * math.sqrt(ts * tl)
    z = (s - beta) / (s + beta)
    f = sp.hyp2f1(2.0 * ts, ts - tl + 0.5, ts + tl + 0.5, z)
    if ts == tl:
        # c - a - b = 0: the 2F1 has a logarithmic singularity at z = 1, and
        # scipy, given only the rounded z, loses digits near it (inf for
        # 1 - z below about 1e-13)
        w = np.asarray(2.0 * beta / (s + beta))
        near = np.abs(w) < _NEAR_ONE
        if near.any():
            f = np.array(f)
            f[near] = _hyp2f1_at_one(2.0 * ts, 0.5, w[near])
    return _ln_mbar(ts, tl) - 2.0 * ts * np.log(s + beta) + np.log(f)


# below this |1 - z| the expansion about z = 1 beats scipy's 2F1 (measured
# against mpmath: scipy 3e-15 at 0.01, 1.5e-14 at 1e-3, 4e-8 at 1e-10; the
# expansion 2e-15 or better for t <= 5)
_NEAR_ONE = 0.05


def _hyp2f1_at_one(a: float, b: float, w):
    """2F1(a, b; a + b; 1 - w) for |w| < 1 by its expansion about z = 1
    (Abramowitz & Stegun 15.3.10); ``w`` is passed directly, since forming
    1 - z would round away the digits the logarithm needs."""
    ln_w = np.log(w)
    # term n: (a)_n (b)_n w^n / n!^2 times (2 psi(n + 1) - psi(a + n) - psi(b + n) - ln w)
    psi = 2.0 * sp.digamma(1.0) - sp.digamma(a) - sp.digamma(b)
    term = np.ones_like(w)
    total = psi - ln_w
    for n in range(200):
        term = term * ((a + n) * (b + n) / (n + 1.0) ** 2 * w)
        psi += 2.0 / (n + 1.0) - 1.0 / (a + n) - 1.0 / (b + n)
        add = term * (psi - ln_w)
        total = total + add
        if np.all(np.abs(add) <= 1e-17 * np.abs(total)):
            return math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)) * total
    raise ConvergenceError(f"2F1 expansion about z = 1 did not converge in 200 terms "
                           f"(a={a}, b={b}, |1 - z| up to {float(np.abs(w).max())!r})")


def laplace_exact(s: float, t1: float, t2: float) -> float:
    """Laplace transform of one product gain, closed form."""
    if s <= 0.0:
        raise ValueError("laplace_exact requires s > 0")
    return math.exp(_ln_laplace(s, *_split_ts_tl(t1, t2)))


def laplace_high_snr(s: float, t1: float, t2: float) -> float:
    """Large-s asymptote m_tilde (s + rate)^(-2 ts); exact/this -> 1."""
    if s <= 0.0:
        raise ValueError("laplace_high_snr requires s > 0")
    ts, tl = _split_ts_tl(t1, t2)
    beta = 2.0 * math.sqrt(ts * tl)
    return math.exp(math.log(m_tilde(t1, t2)) - 2.0 * ts * math.log(s + beta))


def product_nakagami_pdf(x, t1: float, t2: float):
    """Density of the product of two unit-power Nakagami amplitudes.

    The kernel is the modified Bessel function of the SECOND kind; that is
    the unique choice under which the density integrates to one (the first
    kind diverges), and it is cross-checked in the tests against the
    reflection identity built from I_nu.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("product_nakagami_pdf requires x > 0")
    ts, tl = _split_ts_tl(t1, t2)
    beta = 2.0 * math.sqrt(ts * tl)
    norm = 4.0 * (ts * tl) ** (0.5 * (ts + tl)) / (sp.gamma(ts) * sp.gamma(tl))
    out = norm * x ** (ts + tl - 1.0) * sp.kv(tl - ts, beta * x)
    return out if out.ndim else float(out)


def _talbot_coefficients(nodes: int):
    """Fixed-Talbot contour points u_k and weights c_k at unit scale.

    With s_k = u_k (2 nodes / 5) / x, the inverse transform of F(s) = G(s)/s
    at x is Re sum_k c_k G(s_k) (Abate & Whitt, INFORMS J. Computing 18(4),
    2006; Talbot, IMA J. Appl. Math. 23, 1979).
    """
    theta = np.arange(1, nodes) * (math.pi / nodes)
    cot = 1.0 / np.tan(theta)
    u = np.concatenate(([1.0 + 0.0j], theta * (cot + 1.0j)))
    w = np.concatenate(([0.5 + 0.0j], 1.0 + 1.0j * (theta + (theta * cot - 1.0) * cot)))
    return u, w * np.exp(0.4 * nodes * u) / (nodes * u)


# more nodes lose digits to cancellation in double precision, fewer to truncation
_TALBOT_NODES = 24
_TALBOT_U, _TALBOT_C = _talbot_coefficients(_TALBOT_NODES)


def product_sum_cdf(x, t1: float, t2: float, n: int):
    """Exact CDF of the sum of ``n`` i.i.d. co-phased product gains.

    Fixed-Talbot inversion of laplace_exact(s)^n / s.  Measured against
    arbitrary precision for n <= 3, the relative error is about 1e-14 while
    the CDF is small and the absolute error about 1e-12 where it nears one
    (so it may exceed one by that much).  Unlike the tail model this is a
    proper CDF, and it has no pole at t1 == t2.  A failed inversion (NaN, or
    a value outside [-1e-9, 1 + 1e-9]) raises ``ConvergenceError``.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("gain must be nonnegative")
    ts, tl = _split_ts_tl(t1, t2)
    pos = x > 1e-300      # the contour scale overflows below; the CDF is negligible there
    s = (0.4 * _TALBOT_NODES / x[pos])[:, np.newaxis] * _TALBOT_U
    out = np.zeros(x.shape)
    with np.errstate(invalid="ignore", over="ignore"):
        out[pos] = (_TALBOT_C * np.exp(n * _ln_laplace(s, ts, tl))).real.sum(axis=1)
    bad = ~((out >= -1e-9) & (out <= 1.0 + 1e-9))
    if bad.any():
        raise ConvergenceError(f"Talbot inversion gives CDF {float(out[bad][0])!r} at "
                               f"x={float(x[bad][0])!r} (t1={t1}, t2={t2}, n={n})")
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Outage probability
# ---------------------------------------------------------------------------

def _outage_threshold(cfg: NetworkConfig) -> float:
    """eps_m Q sigma2 / (p_b C0), eps_m = 2^R_m - 1: the channel gain, before the
    path loss of the distances, below which the link is in outage."""
    return (2.0 ** cfg.R_m - 1.0) * cfg.Q * cfg.sigma2 / (cfg.p_b * cfg.ref_atten_lin)


def _tail_model(cfg: NetworkConfig):
    """Tail-model stats of ``cfg`` and the threshold scale b of the radial integral.

    The reference attenuation is folded into b so the closed form and the
    simulator describe the same SNR; with 0 dB attenuation this reduces to
    the bare textbook constant.
    """
    stats = high_snr_stats(cfg.t1, cfg.t2, cfg.N)
    return stats, stats.rate * _outage_threshold(cfg) * cfg.d1 ** cfg.alpha


def _ln_phi(s: HighSnrChannelStats, cfg: NetworkConfig) -> float:
    """ln of the density prefactor, safe for orders where Gamma(a) overflows."""
    return (math.log(2.0) + s.n * math.log(s.m_tilde)
            - s.t_s * s.n * math.log(4.0 * s.t_s * s.t_l)
            - math.lgamma(s.a) - math.log(cfg.R ** 2 - cfg.r0 ** 2))


def op_closed_form(cfg: NetworkConfig) -> float:
    """Closed-form outage probability over the annulus [r0, R].

    Assembled in the log domain because b^a and R^(alpha a + 2) individually
    overflow double precision long before their product does.  The channel
    CDF is a tail model, so the value can leave [0, 1]; it is returned as is.
    """
    stats, b = _tail_model(cfg)
    if b <= 0.0:
        return 0.0
    a, d, alpha = stats.a, 2.0 / cfg.alpha, cfg.alpha
    aa2 = alpha * a + 2.0
    ln_tau1 = _ln_phi(stats, cfg) + a * math.log(b) - math.log(a * aa2)

    def branch(radius: float):
        f = hyp2f2(a, a + d, a + 1.0, a + d + 1.0, -b * radius ** alpha)
        return ln_tau1 + aa2 * math.log(radius) + math.log(f.value)

    ln_hi = branch(cfg.R)
    ln_lo = branch(cfg.r0)
    return math.exp(ln_hi) * (-math.expm1(ln_lo - ln_hi))


def op_quadrature(cfg: NetworkConfig) -> float:
    """Reference value: direct radial quadrature of the outage integrand.

    Kept numerically independent of the hypergeometric path on purpose; this
    is the oracle the closed form is tested against.
    """
    stats, b = _tail_model(cfg)
    if b <= 0.0:
        return 0.0
    R, r0, alpha = cfg.R, cfg.r0, cfg.alpha
    scale = 2.0 * stats.mass / (R ** 2 - r0 ** 2)

    def f(r):
        return sp.gammainc(stats.a, b * r ** alpha) * r

    pts = []
    r_star = (stats.a / b) ** (1.0 / alpha)
    if r0 < r_star < R:
        pts.append(r_star)
    val, _ = integrate.quad(f, r0, R, points=pts or None, limit=400,
                            epsabs=0.0, epsrel=1e-11)
    return scale * val


def op_asymptotic(cfg: NetworkConfig, n_max: int = 30) -> float:
    """High-SNR series expansion of the closed form, valid for b R^alpha < 1.

    Sums the terms n = 0 .. ``n_max``; the logarithms no term changes are
    taken once, before the loop.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    stats, b = _tail_model(cfg)
    if b <= 0.0:
        return 0.0
    R, r0, alpha = cfg.R, cfg.r0, cfg.alpha
    ln_phi = _ln_phi(stats, cfg)
    y = b * R ** alpha
    if y >= 1.0:
        raise ValueError(f"asymptotic series requires b R^alpha < 1, got {y}")
    a, d = stats.a, 2.0 / alpha
    ln_head = ln_phi - math.log(a * (alpha * a + 2.0))
    ln_b, ln_R = math.log(b), math.log(R)
    ln_ratio = math.log(r0) - ln_R
    total = 0.0
    for n in range(n_max + 1):
        coef = a * (a + d) / ((a + n) * (a + d + n))
        expo = alpha * a + alpha * n + 2.0
        ln_mag = (ln_head + math.log(coef) - math.lgamma(n + 1.0) + (a + n) * ln_b
                  + expo * ln_R + math.log1p(-math.exp(expo * ln_ratio)))
        total += (-1.0) ** n * math.exp(ln_mag)
    return total


def op_exact(cfg: NetworkConfig) -> float:
    """Exact outage of the model over the annulus [r0, R].

    The event is the one the model-level simulator samples: the co-phased
    sum of N product gains falls below (b / rate) r^alpha.  Its CDF comes
    from ``product_sum_cdf`` and the radius is averaged by adaptive
    quadrature.  ``op_closed_form`` is the high-SNR approximation of this
    value: their ratio rises to one as the transmit power grows.
    """
    stats, b = _tail_model(cfg)
    if b <= 0.0:
        return 0.0
    scale = b / stats.rate

    def f(r):
        return product_sum_cdf(scale * r ** cfg.alpha, stats.t_s, stats.t_l, stats.n) * r

    val, _ = integrate.quad(f, cfg.r0, cfg.R, limit=400, epsabs=0.0, epsrel=1e-10)
    return 2.0 * val / (cfg.R ** 2 - cfg.r0 ** 2)


def op_gamma_approx(cfg: NetworkConfig) -> float:
    """Outage of the Gamma-approximated post-combining gain, by quadrature.

    Used for the fading-sweep figure family, where equal fading parameters
    rule out the tail-model closed form.  The integrand calls scipy's scalar
    ``cython_special.gammainc``, the routine the ``gammainc`` ufunc loops
    over: the same bits without the ufunc's dispatch, which costs several
    times the routine on one scalar.  It is imported here, at first use, as
    a lazy import of it would load ``scipy.special`` at once; the oracle
    ``op_quadrature`` keeps the ufunc.
    """
    from scipy.special.cython_special import gammainc
    approx = gamma_approx(cfg)
    delta = _outage_threshold(cfg) / approx.scale

    def f(r):
        return gammainc(approx.shape, delta * (cfg.d1 * r) ** cfg.alpha) * r

    val, _ = integrate.quad(f, cfg.r0, cfg.R, limit=400, epsabs=0.0, epsrel=1e-10)
    return 2.0 * val / (cfg.R ** 2 - cfg.r0 ** 2)


def diversity_order(t1: float, t2: float, n: int) -> float:
    """Asymptotic log-log slope of the outage curve: 2 min(t1, t2) N."""
    return 2.0 * min(t1, t2) * n


def op_special_case(eps_or_delta: float, n: int, d1: float, R: float,
                    alpha: float) -> float:
    """Leading outage term for the single-antenna strong-first-hop corner.

    ``eps_or_delta`` may be the bare SNR threshold or the noise-normalized
    one; the formula is the same either way and the caller picks the
    physically meaningful argument.
    """
    return (2.0 * eps_or_delta ** n * (d1 * R) ** (n * alpha)
            / ((n * alpha + 2.0) * math.factorial(n)))


# ---------------------------------------------------------------------------
# Ergodic rate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaApprox:
    """Moment-matched Gamma model of the squared post-combining gain."""

    shape: float
    scale: float


def gamma_approx(cfg: NetworkConfig) -> GammaApprox:
    """Gamma(shape, scale) with mean N*Q and variance N*Q*scale."""
    q = cfg.Q
    t_h = (1.0 + cfg.t1 + q * cfg.t2) / (cfg.t1 * cfg.t2)
    return GammaApprox(shape=cfg.N * q / t_h, scale=t_h)


def rate_snr_scale(approx: GammaApprox, cfg: NetworkConfig) -> float:
    """Threshold scale c in Q(shape, c x r^alpha): gain vs SNR conversion.

    Includes the BS-surface distance and the reference attenuation so the
    model SNR matches the simulator; the bare textbook constant is the
    special case d1 = 1, 0 dB.
    """
    return (cfg.Q * cfg.sigma2 * cfg.d1 ** cfg.alpha
            / (approx.scale * cfg.p_b * cfg.ref_atten_lin))


def ergodic_rate_quadrature(approx: GammaApprox, cfg: NetworkConfig) -> float:
    """Reference ergodic rate: nested adaptive quadrature.

    Outer integral of the SNR survival function against 1/(1+x), inner
    radial average of the Gamma tail.  This is the oracle for the Meijer-G
    closed form and is kept free of any shared special-function machinery.
    """
    a = approx.shape
    c = rate_snr_scale(approx, cfg)
    R, r0, alpha = cfg.R, cfg.r0, cfg.alpha
    half_area = 0.5 * (R ** 2 - r0 ** 2)

    def survival(x):
        def f(r):
            return sp.gammaincc(a, c * x * r ** alpha) * r
        r_star = (a / (c * x)) ** (1.0 / alpha)
        pts = [r_star] if r0 < r_star < R else None
        val, _ = integrate.quad(f, r0, R, points=pts, limit=200,
                                epsabs=half_area * 1e-13, epsrel=1e-10)
        return val / half_area

    x_lo = 1e-10
    x_hi = (a + 40.0 * math.sqrt(a) + 60.0) / (c * r0 ** alpha)

    def integrand(u):
        x = math.exp(u)
        return survival(x) * x / (1.0 + x)

    u_lo, u_hi = math.log(x_lo), math.log(x_hi)
    pts = sorted(u for u in (math.log(a / (c * R ** alpha)), math.log(a / (c * r0 ** alpha)))
                 if u_lo < u < u_hi)
    val, _ = integrate.quad(integrand, u_lo, u_hi, points=pts or None,
                            limit=400, epsabs=1e-6 * math.log(2.0) / 10.0,
                            epsrel=1e-9)
    # below x_lo the survival function is 1 to O(x_lo); add that sliver back
    return (val + math.log1p(x_lo)) / math.log(2.0)


def ergodic_rate_meijer(approx: GammaApprox, cfg: NetworkConfig) -> float:
    """Closed-form ergodic rate: four Meijer-G terms.

    Must agree with ``ergodic_rate_quadrature`` to 1e-5 relative; the test
    suite enforces that across the supported parameter family.  The four
    terms' error bounds are carried into the bracket they form, and a bracket
    that is not finite or whose bound exceeds 1e-5 of it raises
    ``ConvergenceError`` rather than return a rate that cannot meet that.
    """
    a = approx.shape
    if a >= 170.0:
        raise ValueError(f"shape {a:.1f} (N={cfg.N}, t1={cfg.t1}, t2={cfg.t2}, Q={cfg.Q}) "
                         "overflows the linear-domain assembly")
    c = rate_snr_scale(approx, cfg)
    d2 = 2.0 / cfg.alpha
    R, r0 = cfg.R, cfg.r0
    phi = 2.0 / (R ** 2 - r0 ** 2)
    w_hi, w_lo = c * R ** cfg.alpha, c * r0 ** cfg.alpha
    p_hi, p_lo = meijer_g_3123(0.0, a, w_hi), meijer_g_3123(0.0, a, w_lo)
    q_lo, q_hi = meijer_g_3123(d2, a + d2, w_lo), meijer_g_3123(d2, a + d2, w_hi)
    bracket = (R ** 2 * p_hi.value - r0 ** 2 * p_lo.value
               + c ** (-d2) * (q_lo.value - q_hi.value))
    bound = (R ** 2 * p_hi.abs_error_bound + r0 ** 2 * p_lo.abs_error_bound
             + c ** (-d2) * (q_lo.abs_error_bound + q_hi.abs_error_bound))
    if not (math.isfinite(bracket) and bound <= 1e-5 * abs(bracket)):
        raise ConvergenceError(
            f"Meijer-G rate bracket {bracket!r} has error bound {bound!r} "
            f"(shape {a!r}, SNR scale {c!r})"
        )
    return phi * bracket / (2.0 * math.log(2.0) * math.gamma(a))


_SLOPE_SNR_LO, _SLOPE_SNR_HI = 1e10, 1e12      # p_b / sigma2 of the finite difference


def high_snr_slope(rate_fn, cfg: NetworkConfig) -> float:
    """Finite-difference slope of rate versus log2(p_b / sigma2)."""
    r_lo = rate_fn(replace(cfg, p_b=_SLOPE_SNR_LO * cfg.sigma2))
    r_hi = rate_fn(replace(cfg, p_b=_SLOPE_SNR_HI * cfg.sigma2))
    return (r_hi - r_lo) / math.log2(_SLOPE_SNR_HI / _SLOPE_SNR_LO)


# ---------------------------------------------------------------------------
# SE / power / EE
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerModel:
    """Static and per-element power draw, watts."""

    P_Bs: float         # base-station static power
    eps_b: float        # amplifier inefficiency multiplier on p_b
    P_U: float          # per-user terminal power
    P_L: float          # per-element surface power

    def __post_init__(self) -> None:
        for name, v in vars(self).items():
            if (isinstance(v, bool) or not isinstance(v, numbers.Real)
                    or not 0.0 <= as_float(name, v) < math.inf):
                raise ValueError(f"{name} must be a finite nonnegative number, got {v!r}")


def power_consumption(pm: PowerModel, cfg: NetworkConfig) -> float:
    """Total consumed power P_e = P_Bs + M P_U + M p_b eps_b + N P_L."""
    return pm.P_Bs + cfg.M * pm.P_U + cfg.M * cfg.p_b * pm.eps_b + cfg.N * pm.P_L


def energy_efficiency(se: float, pe: float) -> float:
    """EE = SE / P_e (unitless convention)."""
    if pe <= 0.0:
        raise ZeroDivisionError("total power must be positive")
    return se / pe
