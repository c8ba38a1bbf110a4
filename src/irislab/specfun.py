"""Scalar special-function kernels behind the closed-form engine.

Everything here is a pure function with an explicit accuracy contract.  The
test suite checks each routine against an independent oracle (arbitrary
precision series or quadrature of an integral representation), so the
implementations stay deliberately simple: plain power series with
rigorous tail bounds, plus two escape hatches for the regimes where a series
is hopeless in double precision.  ``hyp2f2`` serves the one 2F2 family the
outage closed form needs, (p, q; p+1, q+1), and takes the exact
incomplete-gamma form where its series would cancel; ``meijer_g_3123``
takes a Mellin-Barnes contour where its Slater expansion, whose three
2F2 terms sum the bare series, does not hold or loses digits.

scipy loads only when a closed form first needs it, and then only two of
its compiled extensions, each by ``_scipy_extension`` without its package:
every QUADPACK integral of the package, here and in ``analysis``, goes
through ``quadpack``, and every special function scipy provides comes from
``special_ufuncs``.  No ``__init__`` of a scipy subpackage runs on any
path.  The first ``quadpack`` call runs scipy's top-level ``__init__`` and
``scipy._lib``: the QUADPACK extension imports ``scipy._lib._ccallback`` to
call a Python integrand.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
from dataclasses import dataclass

import numpy as np


@functools.cache
def _scipy_extension(subpackage: str, module: str):
    """scipy's compiled extension ``scipy.<subpackage>.<module>``, loaded alone.

    Loaded from its file without running the package's ``__init__.py``:
    ``scipy/special/__init__.py`` also imports the array-API layer and with it
    ``numpy.f2py``, ``numpy.random``, ``numpy.ma`` and ``numpy.fft``, and
    ``scipy/integrate/__init__.py`` imports ``scipy.optimize``,
    ``scipy.sparse.linalg``, ``scipy.fft`` and ``scipy.spatial``.  scipy's
    directory comes from the top-level spec, which loads nothing.  An
    extension already in ``sys.modules`` is used as it is; a new one is
    registered there, so a later import of its package shares it: scipy
    reaches its extensions by ``from . import``, which reads ``sys.modules``
    (the package does not bind it as an attribute, as nothing loads it anew).
    """
    name = f"scipy.{subpackage}.{module}"
    if name not in sys.modules:
        scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
        finder = importlib.machinery.FileFinder(
            os.path.join(scipy_dir, subpackage),
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
        if spec is None:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        loaded = importlib.util.module_from_spec(spec)
        sys.modules[name] = loaded
        spec.loader.exec_module(loaded)
    return sys.modules[name]


def special_ufuncs():
    """scipy.special's compiled ufuncs, ``scipy.special._special_ufuncs``.

    Every ufunc the package calls comes from here: ``loggamma``, ``gamma``,
    ``gammainc``, ``gammaincc``, ``hyp2f1``, ``psi`` (``digamma``) and
    ``kv``, each the very object ``scipy.special`` hands out.
    """
    return _scipy_extension("special", "_special_ufuncs")


def quadpack(f, a, b, epsabs, epsrel, limit):
    """(value, error estimate, ier) of QUADPACK's QAGS integral of f over
    [a, b], called with the arguments ``scipy.integrate.quad`` passes for
    finite limits ``a < b``, no weight and no break points, so every value is
    the one ``quad`` returns.  ``ier`` is QUADPACK's flag, 0 when it trusts
    its estimate; where ``quad`` turns a flag into an ``IntegrationWarning``,
    callers here act on it.
    """
    if not a < b:
        raise ValueError(f"quadpack needs a < b, got a={a!r}, b={b!r}")
    return _scipy_extension("integrate", "_quadpack")._qagse(f, a, b, (), 0, epsabs, epsrel, limit)


__all__ = [
    "ConvergenceError",
    "EvalResult",
    "hyp2f2",
    "ln_hyp2f2_offset",
    "meijer_g_3123",
    "quadpack",
    "special_ufuncs",
]

# Alternating 2F2 series lose roughly 0.87*|z| decimal digits to cancellation,
# so the series is only trusted on a short leash; beyond it the host-integral
# reduction below takes over.
_SERIES_NEG_LIMIT = 8.0
_CANCEL_GUARD = 1e6


class ConvergenceError(RuntimeError):
    """Series or quadrature failed to reach the requested tolerance."""


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
        if not self.abs_error_bound >= 0.0:
            raise ValueError("abs_error_bound must be nonnegative")


def _hyp_series(num, den, z, rtol, max_terms):
    """2F2 power series, for ``hyp2f2`` and the three terms of
    ``_meijer_slater``, with compensated summation; ``num`` and ``den`` are
    the two numerator and the two denominator parameters.  Each caller judges
    cancellation itself from ``max_partial``.

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


def _ln_lower_gamma_over_power(s: float, y: float) -> float:
    """ln(gamma(s, y) / y**s), gamma the lower incomplete gamma, for s, y > 0.

    From the regularized ``gammainc`` while it is a normal float.  It
    underflows only for y far below s, where Kummer's series
    gamma(s, y) / y**s = exp(-y) sum_k y**k / (s (s+1) ... (s+k)) has term
    ratios y / (s + k) < 1 and converges at once.
    """
    P = special_ufuncs().gammainc(s, y)
    if P >= sys.float_info.min:
        return math.lgamma(s) + math.log(P) - s * math.log(y)
    term = total = 1.0 / s
    for k in itertools.count(1):
        term *= y / (s + k)
        total += term
        if term <= 1e-17 * total:
            return math.log(total) - y


def _hyp2f2_gamma_repr(p: float, q: float, z: float) -> EvalResult:
    """2F2(p, q; p+1, q+1; z) for z < 0 via incomplete-gamma reduction.

    Partial fractions give pq/((p+n)(q+n)) = pq/(q-p) * (1/(p+n) - 1/(q+n)),
    and each sub-series is gamma(s, y)/y**s with y = -z.  Exact, stable for
    any y, and immune to the alternating-series cancellation.
    """
    lp, lq = (_ln_lower_gamma_over_power(s, -z) for s in (p, q))
    # gamma(s,y)/y^s is strictly decreasing in s, so lq < lp and the log1p
    # form keeps full precision even when the two terms nearly cancel.
    value = (p * q / (q - p)) * math.exp(lp) * (-math.expm1(lq - lp))
    return EvalResult(value, abs(value) * 1e-12, 0, method="gamma_repr")


def ln_hyp2f2_offset(p: float, q: float, z: float) -> float:
    """ln 2F2(p, q; p+1, q+1; z) for 0 < p < q and z < 0, where the value
    itself may underflow: ``_hyp2f2_gamma_repr`` in the log domain."""
    lp, lq = (_ln_lower_gamma_over_power(s, -z) for s in (p, q))
    return math.log(p * q / (q - p)) + lp + math.log(-math.expm1(lq - lp))


def hyp2f2(p: float, q: float, z: float) -> EvalResult:
    """2F2(p, q; p+1, q+1; z) for 0 < p < q, the family of the outage
    closed form.

    Power series with a rigorous tail bound for z >= -8.  Below that, or
    where the alternating series cancels, the exact incomplete-gamma
    representation of the host integral takes over, flagged in ``method``.
    Any other p and q raise ``ValueError``.
    """
    if not 0.0 < p < q:
        raise ValueError(f"hyp2f2 needs 0 < p < q, got p={p!r}, q={q!r}")
    if z < -_SERIES_NEG_LIMIT:
        return _hyp2f2_gamma_repr(p, q, z)
    total, tail, terms, max_partial = _hyp_series((p, q), (p + 1.0, q + 1.0), z, 1e-12, 10 ** 6)
    if abs(total) * _CANCEL_GUARD < max_partial:    # only z < 0 cancels
        return _hyp2f2_gamma_repr(p, q, z)
    return EvalResult(total, tail, terms)


# ---------------------------------------------------------------------------
# Meijer-G, restricted to the two instances the ergodic-rate expression needs:
#   G^{3,1}_{2,3}( z | a1, 1 ; a1, 0, b3 )  with  a1 in {0, delta2}, b3 > a1.
# ---------------------------------------------------------------------------

# At or below this real part numpy's complex exp returns exp(x)*cos(y) from
# libm's exp and cos; above it numpy rescales (glibc's cexp above
# 1023*ln 2 = 709.09, numpy's own cexp above 710.48).
_CEXP_UNSCALED_MAX = 709.0

# Nodes a line keeps at most; one batch of rate points sees about 1,200 a line.
_TABLE_NODES = 8192


class _Line(dict):
    """Node t -> the b3-free loggamma terms of the contour integrand for a1.

    On the family, min(a1, 0, b3) = 0, so the line Re s = c0 = (a1 - 1)/2 and
    four of the five loggamma terms at s = c0 + i t depend on a1 alone.  An
    entry is (lg(a1 - s) + lg(0 - s), lg(1 - a1 + s), lg(1 - s)), as Python
    complex numbers.  ``arrays`` holds the same nodes as arrays, in the
    dict's order, and ``heads`` the full loggamma sum of every node for the
    line's current ``b3``.
    """

    def __init__(self, a1):
        super().__init__()
        self.c0, self._arrays = 0.5 * (a1 - 1.0), (None, None)
        self.b3, self.heads = None, {}

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

    def heads_of(self, b3):
        """Node t -> the integrand's z-free loggamma sum for b3, as (re, im).

        A new b3 refills the table from the line's arrays with one array call
        of ``loggamma(b3 - s)``: scipy's loggamma is a ufunc that runs the
        same loop on an array as on a scalar, and numpy adds complex numbers
        component by component, so each entry is the number the scalar path
        forms, and no value depends on what the line holds.
        """
        if b3 != self.b3:
            s, ab, d, e = self.arrays()
            h = ((ab + special_ufuncs().loggamma(b3 - s)) + d) - e
            self.b3, self.heads = b3, dict(zip(self, zip(h.real.tolist(), h.imag.tolist())))
        return self.heads


# The line of a1; a rate evaluates two, a1 = 0 and a1 = 2/alpha.
_contour_line = functools.lru_cache(maxsize=2)(_Line)


def _meijer_contour(a1, b3, z):
    """G(z | a1, 1; a1, 0, b3) as a Mellin-Barnes integral along a1's line
    Re s = c0 (``_Line``), evaluated by quadrature.

    The integrand decays like exp(-3*pi*|t|/2), so a finite window loses
    nothing, and conjugate symmetry halves the work.  With s = c0 + i t,
    Re(s ln z) = c0 ln z and Im(s ln z) = t ln z, so the integrand is numpy's
    Re exp of the sums its complex arithmetic forms: exp(x) cos(y) in place
    where numpy does not rescale.  A node new to the line pays the five
    scalar loggamma terms and joins the line and its heads.
    """
    line = _contour_line(a1)
    c0, lnz = line.c0, math.log(z)
    c0lnz = c0 * lnz
    heads = line.heads_of(b3)     # every z with this (a1, b3) reuses the sums
    get, exp, cos = heads.get, math.exp, math.cos
    loggamma = special_ufuncs().loggamma

    def f(t):
        head = get(t)
        if head is None:
            s = complex(c0, t)
            terms = (complex(loggamma(a1 - s) + loggamma(0.0 - s)),
                     complex(loggamma(1.0 - a1 + s)), complex(loggamma(1.0 - s)))
            h = ((terms[0] + loggamma(b3 - s)) + terms[1]) - terms[2]
            head = (float(h.real), float(h.imag))
            if len(line) < _TABLE_NODES:
                line[t], heads[t] = terms, head
        hr, hi = head
        x = hr + c0lnz
        if x <= _CEXP_UNSCALED_MAX:
            return exp(x) * cos(hi + t * lnz)
        with np.errstate(over="ignore"):  # Re may be finite where Im overflows
            return np.exp(complex(x, hi + t * lnz)).real

    scale = abs(f(0.0)) + 1e-300
    val, err, ier = quadpack(f, 0.0, 48.0, scale * 1e-14, 1e-12, 4000)
    if not math.isfinite(val):
        raise ConvergenceError(f"contour integral overflows ({val!r}): a1={a1}, b3={b3}, z={z}")
    if ier:
        # QUADPACK doubts its estimate (near the top of the double range its
        # error arithmetic saturates).  The value stands only under a bound
        # that also covers a second run on the integrand scaled to 1 at
        # t = 0, where nothing saturates, to a tolerance far inside the 1e-5
        # the rate asks of its terms.
        ref, ref_err, ier = quadpack(lambda t: f(t) / scale, 0.0, 48.0, 1e-12, 1e-10, 4000)
        if ier:
            raise ConvergenceError(
                f"contour integral unresolved (QUADPACK flag {ier} at unit scale): "
                f"a1={a1}, b3={b3}, z={z}"
            )
        err = max(abs(val - scale * ref) + scale * ref_err, abs(err))  # max keeps a NaN first
    return val / math.pi, abs(err) / math.pi


def _meijer_slater(a1, b3, z):
    """Slater expansion of G(z | a1, 1; a1, 0, b3) over simple poles, which
    the caller checks: three 2F2 terms, each summed by ``_hyp_series``.  The
    gamma products are Python floats: one that overflows gives inf, which the
    caller rejects, and no numpy warning.  ``None`` means digits were
    lost, in a term whose partial sums cancel or in the sum of the three
    terms, and the contour takes over.
    """
    bs, a2 = (a1, 0.0, b3), 1.0
    gamma = special_ufuncs().gamma
    total = 0.0
    max_term = 0.0
    terms_used = 0
    for h in range(3):
        bh = bs[h]
        others = [bs[j] for j in range(3) if j != h]
        coeff = (float(gamma(others[0] - bh)) * float(gamma(others[1] - bh))
                 * float(gamma(1.0 + bh - a1)) / gamma(a2 - bh))
        f, _, terms, max_partial = _hyp_series((1.0 + bh - a1, 1.0 + bh - a2),
                                               (1.0 + bh - others[0], 1.0 + bh - others[1]),
                                               z, 1e-12, 10 ** 6)
        if abs(f) * _CANCEL_GUARD < max_partial:
            return None
        term = coeff * z ** bh * f
        terms_used += terms
        total += term
        max_term = max(max_term, abs(term))
    if abs(total) < max_term * 1e-8:
        return None
    return float(total), float(max_term) * 1e-13, terms_used


def meijer_g_3123(a1: float, b3: float, z: float) -> EvalResult:
    """G^{3,1}_{2,3}( z | a1, 1 ; a1, 0, b3 ) for the rate-integral family.

    Requires 0 <= a1 < 1 and finite b3 > a1 and z > 0.  Slater's expansion runs
    where the poles are simple and its terms keep their digits, otherwise the
    Mellin-Barnes contour quadrature; ``method`` on the result names the path.
    """
    if not (0.0 <= a1 < 1.0 and a1 < b3 < math.inf):
        raise ValueError(f"unsupported Meijer-G parameters: a1={a1}, b3={b3}")
    if not 0.0 < z < math.inf:
        raise ValueError(f"meijer_g_3123 requires finite z > 0, got {z}")
    # past z = 30 positive-argument 2F2 growth would start cancelling; the
    # poles are simple where a1, b3 - a1 and b3, their distances, are not integers
    if z <= 30.0 and all(abs(d - round(d)) >= 1e-6 for d in (a1, b3 - a1, b3)):
        slater = _meijer_slater(a1, b3, z)
        if slater is not None:
            return EvalResult(*slater, method="slater")
    value, err = _meijer_contour(a1, b3, z)
    return EvalResult(value, err, 0, method="contour")
