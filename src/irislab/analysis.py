"""Closed-form performance expressions and their quadrature oracles.

Layout mirrors the derivation chain: high-SNR channel statistics, outage
probability (closed form, quadrature reference, asymptotic series, and the
exact outage of the same model by Laplace inversion), diversity order, the
Gamma approximation of the post-combining gain, ergodic rate by one-level
quadrature and by Meijer-G closed form, high-SNR slope, and the SE / power /
EE bookkeeping.  Every quadrature runs on ``specfun.quadpack``, QUADPACK
without the ``scipy.integrate`` package, over an interval a < b, and every
scipy function comes from ``specfun.special_ufuncs``, without the
``scipy.special`` package; where QUADPACK flags its own estimate the routine
raises ``ConvergenceError`` naming itself and the config.

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
import sys
from dataclasses import dataclass, replace

import numpy as np

from .geometry import NetworkConfig, as_float
from .specfun import (ConvergenceError, hyp2f2, ln_hyp2f2_offset, meijer_g_3123, quadpack,
                      special_ufuncs)

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
        try:
            return (self.m_tilde * (4.0 * self.t_s * self.t_l) ** (-self.t_s)) ** self.n
        except OverflowError:
            raise ValueError(f"tail-model mass overflows a float (N={self.n}, t_s={self.t_s}, "
                             f"t_l={self.t_l}): the tail model leaves [0, 1]") from None


def high_snr_stats(t1: float, t2: float, n: int) -> HighSnrChannelStats:
    ts, tl = _split_ts_tl(t1, t2)
    return HighSnrChannelStats(t_s=ts, t_l=tl, a=2.0 * ts * n, n=int(n))


def high_snr_pdf(x, stats: HighSnrChannelStats):
    """Tail-model density m_tilde^N x^(a-1) exp(-rate x) / Gamma(a)."""
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0.0):
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
    if not np.all(x >= 0.0):
        raise ValueError("gain must be nonnegative")
    out = stats.mass * special_ufuncs().gammainc(stats.a, stats.rate * x)
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
    f = special_ufuncs().hyp2f1(2.0 * ts, ts - tl + 0.5, ts + tl + 0.5, z)
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
    psi = 2.0 * special_ufuncs().psi(1.0) - special_ufuncs().psi(a) - special_ufuncs().psi(b)
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
    if not s > 0.0:
        raise ValueError("laplace_exact requires s > 0")
    return math.exp(_ln_laplace(s, *_split_ts_tl(t1, t2)))


def laplace_high_snr(s: float, t1: float, t2: float) -> float:
    """Large-s asymptote m_tilde (s + rate)^(-2 ts); exact/this -> 1."""
    if not s > 0.0:
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
    if not np.all(x > 0.0):
        raise ValueError("product_nakagami_pdf requires x > 0")
    ts, tl = _split_ts_tl(t1, t2)
    beta = 2.0 * math.sqrt(ts * tl)
    gamma, kv = special_ufuncs().gamma, special_ufuncs().kv
    norm = 4.0 * (ts * tl) ** (0.5 * (ts + tl)) / (gamma(ts) * gamma(tl))
    out = norm * x ** (ts + tl - 1.0) * kv(tl - ts, beta * x)
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


# more nodes lose digits to cancellation in double precision, fewer to
# truncation; op_exact checks each value against a second count
_TALBOT = {nodes: _talbot_coefficients(nodes) for nodes in (20, 24)}


def product_sum_cdf(x, t1: float, t2: float, n: int, nodes: int = 24):
    """Exact CDF of the sum of ``n`` i.i.d. co-phased product gains.

    Fixed-Talbot inversion of laplace_exact(s)^n / s on ``nodes`` nodes (20
    or 24).  Measured against arbitrary precision for n <= 3, the relative
    error at 24 nodes is about 1e-14 while the CDF is small and the absolute
    error about 1e-12 where it nears one (so it may exceed one by that
    much).  Unlike the tail model this is a proper CDF, and it has no pole
    at t1 == t2.  A failed inversion (NaN, or a value outside
    [-1e-9, 1 + 1e-9]) raises ``ConvergenceError``; in the far tail the
    rule's floor can lie orders above the CDF without leaving that band,
    which ``op_exact`` catches with its second node count.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0.0):
        raise ValueError("gain must be nonnegative")
    ts, tl = _split_ts_tl(t1, t2)
    u, c = _TALBOT[nodes]
    pos = x > 1e-300      # the contour scale overflows below; the CDF is negligible there
    s = (0.4 * nodes / x[pos])[:, np.newaxis] * u
    out = np.zeros(x.shape)
    with np.errstate(invalid="ignore", over="ignore"):
        out[pos] = (c * np.exp(n * _ln_laplace(s, ts, tl))).real.sum(axis=1)
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


_QUADPACK_FLAGS = {
    1: "the subdivision limit was reached",
    2: "roundoff error was detected",
    3: "the integrand is extremely bad at some points",
    4: "roundoff error was detected in the extrapolation table",
    5: "the integral is probably divergent or slowly convergent",
    6: "the input is invalid",
}


_QUAD_EPSABS, _QUAD_LIMIT = 0.0, 400     # relative accuracy alone, 400 subintervals


def _quad(routine: str, cfg: NetworkConfig, f, a, b, epsrel: float):
    """QUADPACK's integral of f over [a, b] to ``epsrel``, or ``ConvergenceError``
    naming ``routine`` and the config when QUADPACK flags its own estimate."""
    val, err, ier = quadpack(f, a, b, _QUAD_EPSABS, epsrel, _QUAD_LIMIT)
    if ier:
        raise ConvergenceError(
            f"{routine}: QUADPACK flag {ier}, {_QUADPACK_FLAGS.get(ier, 'unknown')} "
            f"(value {val!r}, error {err!r}; N={cfg.N}, t1={cfg.t1}, t2={cfg.t2}, "
            f"alpha={cfg.alpha}, p_b={cfg.p_b})"
        )
    return val


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
        z = -b * radius ** alpha
        f = hyp2f2(a, a + d, z).value
        # the 2F2 can underflow where its product with radius**aa2 does not
        ln_f = math.log(f) if f >= sys.float_info.min else ln_hyp2f2_offset(a, a + d, z)
        return ln_tau1 + aa2 * math.log(radius) + ln_f

    ln_hi = branch(cfg.R)
    ln_lo = branch(cfg.r0)
    try:
        return math.exp(ln_hi) * (-math.expm1(ln_lo - ln_hi))
    except OverflowError:
        raise ValueError(f"closed-form outage exp({ln_hi!r}) overflows a float: the tail "
                         "model leaves [0, 1]") from None


def op_quadrature(cfg: NetworkConfig) -> float:
    """Reference value: the outage integrand averaged over the annulus.

    Kept numerically independent of the hypergeometric path on purpose; this
    is the oracle the closed form is tested against.  One QUADPACK call
    over u = ln r, with r dr = exp(2u) du, within 1.2e-13 of a 40-digit
    reference at N = 101.  Where the integrand underflows on the whole
    annulus it raises ``ConvergenceError``; the closed form, in the log
    domain, reaches there.
    """
    stats, b = _tail_model(cfg)
    if b <= 0.0:
        return 0.0
    R, r0, alpha = cfg.R, cfg.r0, cfg.alpha
    scale = 2.0 * stats.mass / (R ** 2 - r0 ** 2)
    if special_ufuncs().gammainc(stats.a, b * R ** alpha) < sys.float_info.min:
        raise ConvergenceError(
            f"op_quadrature: the integrand underflows a float on the whole annulus (N={cfg.N}, "
            f"t1={cfg.t1}, t2={cfg.t2}, alpha={alpha}, p_b={cfg.p_b})"
        )

    def f(u):
        return special_ufuncs().gammainc(stats.a, b * math.exp(alpha * u)) * math.exp(2.0 * u)

    val = _quad("op_quadrature", cfg, f, math.log(r0), math.log(R), 1e-11)
    return scale * val


def op_asymptotic(cfg: NetworkConfig) -> float:
    """High-SNR series expansion of the closed form, valid for b R^alpha < 1.

    Sums the terms n = 0 .. 30; the logarithms no term changes are taken
    once, before the loop.
    """
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
    for n in range(31):
        coef = a * (a + d) / ((a + n) * (a + d + n))
        expo = alpha * a + alpha * n + 2.0
        ln_mag = (ln_head + math.log(coef) - math.lgamma(n + 1.0) + (a + n) * ln_b
                  + expo * ln_R + math.log1p(-math.exp(expo * ln_ratio)))
        try:
            total += (-1.0) ** n * math.exp(ln_mag)
        except OverflowError:
            raise ValueError(f"asymptotic outage term exp({ln_mag!r}) is outside [0, 1]") from None
    return total


# op_exact's radial averages at 20 and 24 Talbot nodes must agree to this,
# relative; on the AC grid (N <= 3, t = (2, 1), -10...59 dBm) they agree to
# 1.5e-12, and where the rule's floor lies above the CDF they differ by
# factors of thousands
_TALBOT_AGREEMENT = 1e-8


def op_exact(cfg: NetworkConfig) -> float:
    """Exact outage of the model over the annulus [r0, R].

    The event is the one the model-level simulator samples: the co-phased
    sum of N product gains falls below (b / rate) r^alpha.  Its CDF comes
    from ``product_sum_cdf`` and the radius is averaged by adaptive
    quadrature.  ``op_closed_form`` is the high-SNR approximation of this
    value: their ratio rises to one as the transmit power grows.

    The average is formed at 24 Talbot nodes and again at 20.  When the two
    differ by more than ``_TALBOT_AGREEMENT`` of the value, or the value is
    negative (no CDF sample on the AC grid is), the inversion's error is not
    below the value and the call raises ``ConvergenceError``.  Each
    disagreement counts by its weight in the average, so a far-tail CDF
    that carries none cannot trip it.
    """
    stats, b = _tail_model(cfg)
    if b <= 0.0:
        return 0.0
    scale = b / stats.rate

    def average(nodes):
        def f(r):
            return product_sum_cdf(scale * r ** cfg.alpha, stats.t_s, stats.t_l, stats.n,
                                   nodes) * r

        val = _quad("op_exact", cfg, f, cfg.r0, cfg.R, 1e-10)
        return 2.0 * val / (cfg.R ** 2 - cfg.r0 ** 2)

    value, check = average(24), average(20)
    if not (value >= 0.0 and abs(value - check) <= _TALBOT_AGREEMENT * value):
        raise ConvergenceError(
            f"op_exact: Talbot inversion gives {value!r} at 24 nodes and {check!r} at 20 "
            f"(N={cfg.N}, t1={cfg.t1}, t2={cfg.t2}, alpha={cfg.alpha}, p_b={cfg.p_b})"
        )
    return value


def op_gamma_approx(cfg: NetworkConfig) -> float:
    """Outage of the Gamma-approximated post-combining gain, by quadrature.

    Used for the fading-sweep figure family, where equal fading parameters
    rule out the tail-model closed form.
    """
    gammainc = special_ufuncs().gammainc
    approx = gamma_approx(cfg)
    delta = _outage_threshold(cfg) / approx.scale

    def f(r):
        return gammainc(approx.shape, delta * (cfg.d1 * r) ** cfg.alpha) * r

    val = _quad("op_gamma_approx", cfg, f, cfg.r0, cfg.R, 1e-10)
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


def rate_snr_scale(cfg: NetworkConfig) -> float:
    """Threshold scale c in Q(shape, c x r^alpha): gain vs SNR conversion.

    Includes the BS-surface distance and the reference attenuation so the
    model SNR matches the simulator; the bare textbook constant is the
    special case d1 = 1, 0 dB.
    """
    return (cfg.Q * cfg.sigma2 * cfg.d1 ** cfg.alpha
            / (gamma_approx(cfg).scale * cfg.p_b * cfg.ref_atten_lin))


# B_2k / (2k (2k - 1)), k = 1..6: Stirling's series of ln Gamma(z) beyond
# (z - 1/2) ln z - z + ln(2 pi)/2; the next term is below 1e-15 at z >= 10
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)


def _gamma_ratio(a: float, d: float) -> float:
    """Gamma(a + d) / Gamma(a) for 0 < d < 1; for a >= 10 by Stirling's series
    of the difference, free of lgamma(a)'s absolute rounding of eps ln a."""
    if a < 10.0:
        return math.exp(math.lgamma(a + d) - math.lgamma(a))
    tail = sum(b * ((a + d) ** (1 - 2 * k) - a ** (1 - 2 * k)) for k, b in enumerate(_STIRLING, 1))
    return math.exp((a - 0.5) * math.log1p(d / a) + d * math.log(a + d) - d + tail)


def ergodic_rate_quadrature(cfg: NetworkConfig) -> float:
    """Reference ergodic rate: one quadrature over u = ln x of the SNR survival
    S(x) against 1/(1+x).  S, the radial average of the Gamma tail, is in closed
    form by parts (DLMF ch. 8): with y = c x r^alpha, d = 2/alpha, [r^2 Q(a, y) +
    (c x)^-d Gamma(a+d)/Gamma(a) P(a+d, y)] from r0 to R, over R^2 - r0^2.  The
    oracle of the Meijer-G rate, it is kept free of Meijer-G and 2F2.  QAGS runs
    to 1e-12: at 1e-11 it once reported 9.7e-12 where it was 2.3e-10 off.
    """
    a, c = gamma_approx(cfg).shape, rate_snr_scale(cfg)
    R, r0, alpha = cfg.R, cfg.r0, cfg.alpha
    d = 2.0 / alpha
    ratio = _gamma_ratio(a, d)
    # the sliver below x_lo is at most x_lo, and the rate at least the SNR
    # a / (c R^alpha) at the edge; below that SNR the floor follows it, so
    # the sliver stays 1e-10 of the rate and x_lo < x_hi at any power
    x_lo = 1e-10 * min(1.0, a / (c * R ** alpha))
    x_hi = (a + 40.0 * math.sqrt(a) + 60.0) / (c * r0 ** alpha)

    def integrand(u):
        x = math.exp(u)
        y_lo, y_hi = c * x * r0 ** alpha, c * x * R ** alpha
        # the P(a + d, .) difference, from Q where P(a + d, y_lo) > 1/2
        q_lo = special_ufuncs().gammaincc(a + d, y_lo)
        p_diff = (q_lo - special_ufuncs().gammaincc(a + d, y_hi) if q_lo < 0.5 else
                  special_ufuncs().gammainc(a + d, y_hi) - special_ufuncs().gammainc(a + d, y_lo))
        survival = (R ** 2 * special_ufuncs().gammaincc(a, y_hi)
                    - r0 ** 2 * special_ufuncs().gammaincc(a, y_lo)
                    + (c * x) ** -d * ratio * p_diff) / (R ** 2 - r0 ** 2)
        return survival * x / (1.0 + x)

    val = _quad("ergodic_rate_quadrature", cfg, integrand, math.log(x_lo), math.log(x_hi), 1e-12)
    # below x_lo the survival function is 1 to O(x_lo); add that sliver back
    return (val + math.log1p(x_lo)) / math.log(2.0)


def ergodic_rate_meijer(cfg: NetworkConfig) -> float:
    """Closed-form ergodic rate: four Meijer-G terms.

    Must agree with ``ergodic_rate_quadrature`` to 1e-5 relative; the test
    suite enforces that across the supported parameter family.  The four
    terms' error bounds are carried into the bracket they form, and a bracket
    that is not finite or whose bound exceeds 1e-5 of it raises
    ``ConvergenceError`` rather than return a rate that cannot meet that.
    """
    a = gamma_approx(cfg).shape
    if a >= 170.0:
        raise ValueError(f"shape {a:.1f} (N={cfg.N}, t1={cfg.t1}, t2={cfg.t2}, Q={cfg.Q}) "
                         "overflows the linear-domain assembly")
    c = rate_snr_scale(cfg)
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
            if not as_float(name, v) >= 0.0:
                raise ValueError(f"{name} must be nonnegative, got {v!r}")


def power_consumption(pm: PowerModel, cfg: NetworkConfig) -> float:
    """Total consumed power P_e = P_Bs + M P_U + M p_b eps_b + N P_L."""
    return pm.P_Bs + cfg.M * pm.P_U + cfg.M * cfg.p_b * pm.eps_b + cfg.N * pm.P_L


def energy_efficiency(se: float, pe: float) -> float:
    """EE = SE / P_e (unitless convention)."""
    if not pe > 0.0:
        raise ZeroDivisionError("total power must be positive")
    return se / pe
