"""Scalar special-function kernels behind the closed-form engine.

Everything here is a pure function with an explicit accuracy contract.  The
test suite checks each routine against an independent oracle (arbitrary
precision series or quadrature of an integral representation), so the
implementations stay deliberately simple: plain power series with
rigorous tail bounds, plus two escape hatches for the regimes where a series
is hopeless in double precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy import special as sp

__all__ = [
    "ConvergenceError",
    "ConditioningError",
    "ParameterPatternError",
    "EvalResult",
    "hyp2f2",
    "meijer_g_3123",
]

# Alternating 2F2 series lose roughly 0.87*|z| decimal digits to cancellation,
# so the series is only trusted on a short leash; beyond it the host-integral
# reduction below takes over.
_SERIES_NEG_LIMIT = 8.0
_CANCEL_GUARD = 1e6


class ConvergenceError(RuntimeError):
    """Series or quadrature failed to reach the requested tolerance."""


class ConditioningError(RuntimeError):
    """Two independent evaluation paths disagree beyond tolerance."""


class ParameterPatternError(ValueError):
    """Meijer-G parameters outside the supported family, or a forced invalid path."""


@dataclass(frozen=True)
class EvalResult:
    """Value of a kernel evaluation plus an error estimate.

    ``abs_error_bound`` is a bound on the truncation / quadrature error,
    ``terms_used`` counts series terms (0 for non-series paths) and
    ``method`` records which path produced the value.
    """

    value: float
    abs_error_bound: float
    terms_used: int
    method: str = "series"

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ConvergenceError(f"non-finite kernel value: {self.value!r}")
        if self.abs_error_bound < 0.0:
            raise ValueError("abs_error_bound must be nonnegative")


def _hyp_series(num, den, z, rtol, max_terms):
    """Balanced hypergeometric power series (as many numerator parameters as
    denominator ones) with compensated summation.

    Returns (sum, tail_bound, terms, max_partial).  The tail bound comes from
    a geometric majorant of the term ratio once the ratio is provably < 3/4
    and shrinking, so it is rigorous rather than heuristic.
    """
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
        if term == 0.0:  # terminating series (nonpositive-integer numerator)
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
            # the ratio of a balanced series falls like |z|/k; the (1 + 6/k)
            # slack covers the approach from above
            rhat = nxt * (1.0 + 6.0 / (k + 1.0))
            if rhat < 1.0 - 1e-6:
                tail = abs(term) * rhat / (1.0 - rhat)
                if tail <= rtol * max(abs(total), 1e-300):
                    return total, tail, k + 1, max_partial
    raise ConvergenceError(
        f"hypergeometric series exceeded {max_terms} terms (z={z})"
    )


def _gamma_product_pattern(a1, a2, b1, b2):
    """Detect the 2F2(p, q; p+1, q+1; z) offset pattern, return (p, q) or None."""
    tol = 1e-12
    if abs(b1 - a1 - 1.0) < tol and abs(b2 - a2 - 1.0) < tol:
        p, q = a1, a2
    elif abs(b1 - a2 - 1.0) < tol and abs(b2 - a1 - 1.0) < tol:
        p, q = a2, a1
    else:
        return None
    if p <= 0.0 or q <= 0.0 or abs(q - p) < 1e-9:
        return None
    return (min(p, q), max(p, q))


def _hyp2f2_gamma_repr(p: float, q: float, z: float) -> EvalResult:
    """2F2(p, q; p+1, q+1; z) for z < 0 via incomplete-gamma reduction.

    Partial fractions give pq/((p+n)(q+n)) = pq/(q-p) * (1/(p+n) - 1/(q+n)),
    and each sub-series is gamma(s, y)/y**s with y = -z.  Exact, stable for
    any y, and immune to the alternating-series cancellation.
    """
    y = -z
    lp = math.lgamma(p) + math.log(sp.gammainc(p, y)) - p * math.log(y)
    lq = math.lgamma(q) + math.log(sp.gammainc(q, y)) - q * math.log(y)
    # gamma(s,y)/y^s is strictly decreasing in s, so lq < lp and the log1p
    # form keeps full precision even when the two terms nearly cancel.
    value = (p * q / (q - p)) * math.exp(lp) * (-math.expm1(lq - lp))
    return EvalResult(value, abs(value) * 1e-12, 0, method="gamma_repr")


def hyp2f2(a1: float, a2: float, b1: float, b2: float, z: float) -> EvalResult:
    """Generalized hypergeometric 2F2(a1, a2; b1, b2; z).

    Power series with a rigorous tail bound.  For strongly negative z the
    alternating series is abandoned: when the parameters match the
    (p, q; p+1, q+1) family that all the outage expressions use, the exact
    incomplete-gamma representation of the host integral is evaluated
    instead and flagged in ``method``.
    """
    for b in (b1, b2):
        if b <= 0.0 and float(b).is_integer():
            raise ValueError(f"denominator parameter {b} is a nonpositive integer")
    if z == 0.0:
        return EvalResult(1.0, 0.0, 0)
    pattern = _gamma_product_pattern(a1, a2, b1, b2)
    if z < -_SERIES_NEG_LIMIT and pattern is not None:
        return _hyp2f2_gamma_repr(*pattern, z)
    total, tail, terms, max_partial = _hyp_series((a1, a2), (b1, b2), z, 1e-12, 10 ** 6)
    if abs(total) * _CANCEL_GUARD < max_partial:
        if z < 0.0 and pattern is not None:
            return _hyp2f2_gamma_repr(*pattern, z)
        raise ConvergenceError(
            f"2F2 series cancellation: partial sums reached {max_partial:.3e} "
            f"against result {total:.3e}"
        )
    return EvalResult(total, tail, terms)


# ---------------------------------------------------------------------------
# Meijer-G, restricted to the two instances the ergodic-rate expression needs:
#   G^{3,1}_{2,3}( z | a1, 1 ; a1, 0, b3 )  with  a1 in {0, delta2}, b3 > a1.
# ---------------------------------------------------------------------------

_METHODS = ("auto", "slater", "contour", "dual")

# At or below this real part numpy's complex exp returns exp(x)*cos(y) from
# libm's exp and cos; above it numpy rescales (glibc's cexp above
# 1023*ln 2 = 709.09, numpy's own cexp above 710.48).
_CEXP_UNSCALED_MAX = 709.0


def _exp_real(x, y):
    """Re exp(x + iy), bit for bit what ``np.exp(complex(x, y)).real`` gives.

    Where numpy would rescale, its own expression runs, with its overflow
    warning silenced: the real part can stay finite there while the
    imaginary part overflows, and an infinite one is the caller's to report.
    """
    if x <= _CEXP_UNSCALED_MAX:
        return math.exp(x) * math.cos(y)
    with np.errstate(over="ignore"):
        return np.exp(complex(x, y)).real


@functools.lru_cache(maxsize=2)
def _contour_nodes(a1, b3):
    """Node t -> the contour integrand's z-free loggamma sum, as (re, im).

    The line and the loggamma sum at a node depend on (a1, b3) only, so every
    z evaluated with them reuses the sums of the nodes seen before.  A rate
    evaluates two families, so two tables stay alive; a node's entry is the
    number it would be recomputed as, so values never depend on the cache.
    """
    return {}


def _meijer_contour(bs, a1, a2, z):
    """Mellin-Barnes integral along a vertical line, evaluated by quadrature.

    The integrand decays like exp(-3*pi*|t|/2), so a finite window loses
    nothing, and conjugate symmetry halves the work.  With s = c0 + i t,
    Re(s ln z) = c0 ln z and Im(s ln z) = t ln z, so the integrand is
    ``_exp_real`` of the same two sums numpy's complex arithmetic forms, and
    its value is unchanged.
    """
    c0 = 0.5 * ((a1 - 1.0) + min(bs))
    lnz = math.log(z)
    c0lnz = c0 * lnz
    heads = _contour_nodes(a1, bs[2])

    def f(t):
        head = heads.get(t)
        if head is None:
            s = complex(c0, t)
            h = (sp.loggamma(bs[0] - s) + sp.loggamma(bs[1] - s)
                 + sp.loggamma(bs[2] - s) + sp.loggamma(1.0 - a1 + s)
                 - sp.loggamma(a2 - s))
            head = heads[t] = (float(h.real), float(h.imag))
        return _exp_real(head[0] + c0lnz, head[1] + t * lnz)

    scale = abs(f(0.0)) + 1e-300
    val, err, _, *flagged = integrate.quad(f, 0.0, 48.0, limit=4000, epsabs=scale * 1e-14,
                                           epsrel=1e-12, full_output=1)
    if not math.isfinite(val):
        raise ConvergenceError(
            f"contour integral overflows ({val!r}): bs={bs}, a1={a1}, a2={a2}, z={z}"
        )
    if flagged:
        # QUADPACK doubts its estimate (near the top of the double range its
        # error arithmetic saturates).  The value stands only under a bound
        # that also covers scipy's other adaptive integrator, run on the
        # integrand scaled to 1 at t = 0, to a tolerance far inside the 1e-5
        # the rate asks of its terms.
        ref, ref_err, info = integrate.quad_vec(lambda t: f(t) / scale, 0.0, 48.0,
                                                epsabs=1e-12, epsrel=1e-10, full_output=True)
        if not info.success:
            raise ConvergenceError(
                f"contour integral unresolved ({info.message}): bs={bs}, a1={a1}, a2={a2}, z={z}"
            )
        err = max(abs(err), abs(val - scale * ref) + scale * ref_err)
    return val / math.pi, abs(err) / math.pi


def _meijer_slater(bs, a1, a2, z):
    """Slater expansion over simple poles: three 2F2 terms.

    Only valid when the b parameters are pairwise separated by non-integers;
    callers check that first.  The sum comes back as a Python float, so the
    caller's arithmetic on it cannot raise numpy overflow warnings.
    """
    total = 0.0
    max_term = 0.0
    terms_used = 0
    for h in range(3):
        bh = bs[h]
        others = [bs[j] for j in range(3) if j != h]
        coeff = (sp.gamma(others[0] - bh) * sp.gamma(others[1] - bh)
                 * sp.gamma(1.0 + bh - a1) / sp.gamma(a2 - bh))
        f = hyp2f2(1.0 + bh - a1, 1.0 + bh - a2,
                   1.0 + bh - others[0], 1.0 + bh - others[1], z)
        term = coeff * z ** bh * f.value
        terms_used += f.terms_used
        total += term
        max_term = max(max_term, abs(term))
    if abs(total) < max_term * 1e-8:
        raise ConditioningError("Slater expansion lost too many digits")
    return float(total), float(max_term) * 1e-13, terms_used


def _slater_applicable(bs, z):
    if z > 30.0:  # positive-argument 2F2 growth would start cancelling
        return False
    for i in range(3):
        for j in range(i + 1, 3):
            d = abs(bs[i] - bs[j])
            if abs(d - round(d)) < 1e-6:
                return False
    return True


def meijer_g_3123(a1: float, b3: float, z: float, method: str = "auto") -> EvalResult:
    """G^{3,1}_{2,3}( z | a1, 1 ; a1, 0, b3 ) for the rate-integral family.

    Requires 0 <= a1 < 1, b3 > a1 and z > 0.  ``method``:
      * ``auto``    - Slater expansion when the poles are simple, otherwise
                      Mellin-Barnes contour quadrature,
      * ``slater``  / ``contour`` - force one path,
      * ``dual``    - evaluate both and raise ConditioningError if they
                      disagree by more than 1e-5 relative.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown Meijer-G method {method!r}; known: {', '.join(_METHODS)}")
    if a1 < 0.0 or a1 >= 1.0 or b3 <= a1:
        raise ParameterPatternError(
            f"unsupported Meijer-G parameters: a1={a1}, b3={b3}"
        )
    if z <= 0.0:
        raise ValueError(f"meijer_g_3123 requires z > 0, got {z}")
    bs, a2 = (a1, 0.0, b3), 1.0
    can_slater = _slater_applicable(bs, z)
    if method == "slater" or (method in ("auto", "dual") and can_slater):
        if not can_slater:
            raise ParameterPatternError("coinciding poles: Slater expansion invalid")
        try:
            value, bound, terms = _meijer_slater(bs, a1, a2, z)
        except ConditioningError:
            if method == "slater":
                raise
            value, err = _meijer_contour(bs, a1, a2, z)
            return EvalResult(value, err, 0, method="contour")
        if method == "dual":
            ref, ref_err = _meijer_contour(bs, a1, a2, z)
            rel = abs(value - ref) / max(abs(ref), 1e-300)
            if rel > 1e-5:
                raise ConditioningError(
                    f"Slater/contour disagree by {rel:.2e} at z={z}"
                )
            bound = max(bound, abs(value - ref))
        return EvalResult(value, bound, terms, method="slater")
    value, err = _meijer_contour(bs, a1, a2, z)
    return EvalResult(value, err, 0, method="contour")
