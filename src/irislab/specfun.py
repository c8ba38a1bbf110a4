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
import importlib.util
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np


def lazy_module(name: str):
    """Module ``name``, executed on its first attribute access.

    The ``importlib.util.LazyLoader`` recipe: a missing module still fails
    here, at import.  A module already in ``sys.modules`` (loaded, or lazy
    from an earlier call) is returned as it is, since ``find_spec`` would
    load a lazy one to read its ``__spec__``.  The load takes no lock, so the
    first access must come from one thread (the trial pool runs processes).
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# scipy loads only when a closed form first needs it; Monte Carlo runs never do
integrate = lazy_module("scipy.integrate")
sp = lazy_module("scipy.special")

__all__ = [
    "ConvergenceError",
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


class ParameterPatternError(ValueError):
    """Meijer-G parameters outside the supported family."""


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
    """2F2 power series (``hyp2f2`` is its one caller) with compensated
    summation; ``num`` and ``den`` are the two numerator and the two
    denominator parameters.

    Returns (sum, tail_bound, terms, max_partial).  The tail bound comes from
    a geometric majorant of the term ratio once the ratio is provably < 3/4
    and shrinking, so it is rigorous rather than heuristic.  The term ratio
    and the majorant are each one expression, evaluated left to right as
    z / (k + 1), times each numerator factor, divided by each denominator
    factor, in parameter order; that order fixes the bits of every term.
    """
    (p1, p2), (q1, q2) = num, den
    total = 1.0
    comp = 0.0
    term = 1.0
    max_partial = 1.0
    k_safe = 2.0 * abs(z) + (abs(p1) + abs(p2)) + (abs(q1) + abs(q2)) + 10.0
    for k in range(max_terms):
        term *= z / (k + 1.0) * (p1 + k) * (p2 + k) / (q1 + k) / (q2 + k)
        if term == 0.0:  # terminating series (nonpositive-integer numerator)
            return total, 0.0, k + 1, max_partial
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(total) > max_partial:
            max_partial = abs(total)
        if k >= k_safe:
            nxt = (abs(z) / (k + 2.0) * abs(p1 + k + 1.0) * abs(p2 + k + 1.0)
                   / abs(q1 + k + 1.0) / abs(q2 + k + 1.0))
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
    from scipy.special.cython_special import gammainc  # see analysis.op_gamma_approx
    y = -z
    lp = math.lgamma(p) + math.log(gammainc(p, y)) - p * math.log(y)
    lq = math.lgamma(q) + math.log(gammainc(q, y)) - q * math.log(y)
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


# Nodes a table keeps at most; one batch of rate points sees about 1,200 a line.
_TABLE_NODES = 8192


class _Line(dict):
    """Node t -> the b3-free loggamma terms of the contour integrand for a1.

    On the family, min(a1, 0, b3) = 0, so the line Re s = c0 = (a1 - 1)/2 and
    four of the five loggamma terms at s = c0 + i t depend on a1 alone.  An
    entry is (lg(a1 - s) + lg(0 - s), lg(1 - a1 + s), lg(1 - s)), as Python
    complex numbers.  ``arrays`` holds the same nodes as arrays, in the
    dict's order.
    """

    def __init__(self, a1):
        super().__init__()
        self.c0, self._arrays = 0.5 * (a1 - 1.0), (0, None)

    def arrays(self):
        """(s, ab, d, e) over every node, rebuilt only when the line has grown."""
        n, arrays = self._arrays
        if n != len(self):
            s = np.empty(len(self), complex)
            s.real, s.imag = self.c0, list(self)
            terms = itertools.chain.from_iterable(self.values())
            arrays = (s, *np.fromiter(terms, complex, 3 * len(s)).reshape(-1, 3).T.copy())
            self._arrays = len(s), arrays
        return arrays


# The line of a1; a rate evaluates two, a1 = 0 and a1 = 2/alpha.
_contour_line = functools.lru_cache(maxsize=2)(_Line)


@functools.lru_cache(maxsize=2)
def _contour_heads(a1, b3):
    """Node t -> the contour integrand's z-free loggamma sum, as (re, im).

    The sum at a node depends on (a1, b3) only, so every z evaluated with them
    reuses the sums of the nodes seen before.  A new table starts from every
    node its line holds, with the line's arrays and one array call of
    ``loggamma(b3 - s)``: scipy's loggamma is a ufunc that runs the same loop
    on an array as on a scalar, and numpy adds complex numbers component by
    component, so each entry is the number the scalar path forms.  A rate
    evaluates two families, so two tables stay alive; an entry is the number
    it would be recomputed as, so values never depend on the cache.
    """
    line = _contour_line(a1)
    if not line:
        return {}
    s, ab, d, e = line.arrays()
    h = ((ab + sp.loggamma(b3 - s)) + d) - e
    return dict(zip(line, zip(h.real.tolist(), h.imag.tolist())))


def _meijer_contour(a1, b3, z):
    """G(z | a1, 1; a1, 0, b3) as a Mellin-Barnes integral along a vertical
    line, evaluated by quadrature.

    The integrand decays like exp(-3*pi*|t|/2), so a finite window loses
    nothing, and conjugate symmetry halves the work.  With s = c0 + i t,
    Re(s ln z) = c0 ln z and Im(s ln z) = t ln z, so the integrand is
    ``_exp_real`` of the same two sums numpy's complex arithmetic forms (its
    unscaled branch written in place), and its value is unchanged.  A node
    new to the line adds its b3-free terms to the line's table.
    """
    bs, a2 = (a1, 0.0, b3), 1.0
    c0 = 0.5 * (a1 - 1.0)
    lnz = math.log(z)
    c0lnz = c0 * lnz
    line, heads = _contour_line(a1), _contour_heads(a1, b3)
    get, exp, cos = heads.get, math.exp, math.cos

    def f(t):
        head = get(t)
        if head is None:
            s = complex(c0, t)
            terms = line.get(t)
            if terms is None:
                terms = (complex(sp.loggamma(a1 - s) + sp.loggamma(0.0 - s)),
                         complex(sp.loggamma(1.0 - a1 + s)), complex(sp.loggamma(a2 - s)))
                if len(line) < _TABLE_NODES:
                    line[t] = terms
            h = ((terms[0] + sp.loggamma(b3 - s)) + terms[1]) - terms[2]
            head = (float(h.real), float(h.imag))
            if len(heads) < _TABLE_NODES:
                heads[t] = head
        hr, hi = head
        x = hr + c0lnz
        if x <= _CEXP_UNSCALED_MAX:  # _exp_real's unscaled branch, without the call
            return exp(x) * cos(hi + t * lnz)
        return _exp_real(x, hi + t * lnz)

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
    caller's arithmetic on it cannot raise numpy overflow warnings; ``None``
    means the terms cancelled past eight digits and the sum is not trusted.
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
        return None
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


def meijer_g_3123(a1: float, b3: float, z: float) -> EvalResult:
    """G^{3,1}_{2,3}( z | a1, 1 ; a1, 0, b3 ) for the rate-integral family.

    Requires 0 <= a1 < 1, b3 > a1 and z > 0.  The Slater expansion runs when
    the poles are simple and its terms keep their digits, otherwise the
    Mellin-Barnes contour quadrature; ``method`` on the result names the path.
    """
    if a1 < 0.0 or a1 >= 1.0 or b3 <= a1:
        raise ParameterPatternError(
            f"unsupported Meijer-G parameters: a1={a1}, b3={b3}"
        )
    if z <= 0.0:
        raise ValueError(f"meijer_g_3123 requires z > 0, got {z}")
    bs, a2 = (a1, 0.0, b3), 1.0
    slater = _meijer_slater(bs, a1, a2, z) if _slater_applicable(bs, z) else None
    if slater is not None:
        return EvalResult(*slater, method="slater")
    value, err = _meijer_contour(a1, b3, z)
    return EvalResult(value, err, 0, method="contour")
