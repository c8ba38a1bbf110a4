"""Trial engines for outage and rate estimation, plus relay baselines.

Trials are partitioned into fixed blocks of 4096; every block owns a
counter-based RNG stream keyed by (master seed, engine tag, block index) and
reduces to its correctly rounded sum, by error-free extraction finished by
``math.fsum`` (``_fsum``).  Results are therefore identical for any worker
count: workers only decide who computes which block.  The draws do not
depend on the transmit power or the relay power split, so the engines
evaluate a whole power axis or split grid on one draw per block.  A block's
memory is bounded: model-level gains come in sub-blocks of ``_GAIN_BUDGET``
values, link-level trials in stacks of ``_CHUNK``, with the same values.

With ``n_workers > 1`` the blocks run on one process pool per process: the
first call with more than one block forks it, later calls reuse it, and the
interpreter joins its workers at exit.  A forked child starts a pool of its
own.  Workers run the package as it was
when the pool was forked, so a monkeypatch applied later is not seen inside
them; patch block-level internals only around one-worker calls.

Two model-level gain conventions coexist on purpose:

* outage  - thresholds the co-phased amplitude sum itself, which is the
  variable the tail-model outage analysis actually describes (its squared
  counterpart would shift the diversity slope by 2x and never agree with the
  closed form);
* rate    - squares the per-branch sums into the combining gain, matching
  the Gamma-approximation rate analysis (a lower bound by construction).

The squared gain can also be thresholded for outage (``gain='squared'``),
on the rate engine's draws: that is the event the Gamma-model outage
describes.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from multiprocessing.util import Finalize

import numpy as np

from .beamforming import RankDeficiencyError, link_gain, solve_beamforming
from .geometry import (NetworkConfig, draw_channel, philox_keys, sample_nakagami_power,
                       sample_user_distance, stream)

__all__ = [
    "BLOCK",
    "TrialPlan",
    "Estimate",
    "simulate_op",
    "simulate_ergodic_rate",
    "simulate_op_axis",
    "simulate_ergodic_rate_axis",
    "af_relay_rate",
    "df_relay_rate",
    "optimal_power_split",
    "empirical_diversity_slope",
]

BLOCK = 4096
_GAIN_BUDGET = 2 ** 16      # user-side gains drawn per model-level sub-block; bounds its memory

_TAG_OP_MODEL = 11
_TAG_RATE_MODEL = 12
_TAG_LINK = 13
_TAG_RELAY = 14


@dataclass(frozen=True)
class TrialPlan:
    trials: int
    master_seed: int

    def __post_init__(self) -> None:
        for name in ("trials", "master_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")


@dataclass(frozen=True)
class Estimate:
    mean: float
    std_error: float
    trials_used: int
    degenerate_draws: int = 0


def _block_ranges(trials: int):
    return [(bi, bi * BLOCK, min((bi + 1) * BLOCK, trials))
            for bi in range((trials + BLOCK - 1) // BLOCK)]


def _fsum(vals) -> float:
    """``math.fsum(vals.tolist())``, the correctly rounded sum, by error-free extraction.

    With sigma a power of two of at least 2^ceil(log2(n + 2)) max|p|,
    ``q = (sigma + p) - sigma`` and ``p - q`` are exact, and every q is a
    multiple of 2^-53 sigma below sigma / n in magnitude, so ``q.sum()`` is
    exact in any order (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31(1),
    2008).  ``math.fsum`` of these exact partial sums and of the nonzero
    residuals is the correctly rounded total.  A maximum that is not finite
    or lies outside [2^-900, 2^900] sums the list as it is, so NaN,
    infinities and overflow behave exactly as in ``math.fsum``.  ``vals`` is
    not modified.
    """
    p = np.array(vals, dtype=float)
    parts = []
    scale = 2.0 ** (p.size + 1).bit_length()
    for _ in range(4):          # each round takes 53 - log2(scale) bits of every value
        top = float(np.abs(p).max(initial=0.0))
        if not 2.0 ** -900 <= top <= 2.0 ** 900:
            break
        sigma = math.ldexp(scale, math.frexp(top)[1])
        q = (sigma + p) - sigma
        p -= q
        parts.append(float(q.sum()))
    if not parts:
        return math.fsum(p.tolist())
    return math.fsum(parts + p[p != 0.0].tolist())


def _reduce_blocks(parts, trials: int, binary: bool) -> Estimate:
    """Combine per-block (sum, sumsq, degenerate) aggregates."""
    total = math.fsum(p[0] for p in parts)
    deg = sum(p[2] for p in parts)
    mean = total / trials
    if binary:
        se = math.sqrt(max(mean * (1.0 - mean), 0.0) / trials)
    else:
        sumsq = math.fsum(p[1] for p in parts)
        var = max(sumsq - trials * mean * mean, 0.0) / max(trials - 1, 1)
        se = math.sqrt(var / trials)
    return Estimate(mean=mean, std_error=se, trials_used=trials, degenerate_draws=deg)


_pool = None      # (workers, executor, finalizer): the process's one pool, see _run_blocks


def _drop_pool() -> None:
    """Join the cached pool's workers and forget it."""
    global _pool
    if _pool is not None:
        join, _pool = _pool[2], None
        join()


def _forget_pool() -> None:
    global _pool
    _pool = None


# a forked child lacks the threads that serve its parent's pool
os.register_at_fork(after_in_child=_forget_pool)


def _run_blocks(fn, trials: int, n_workers: int):
    """``fn`` of every block, in block order, on at most one worker per block.

    A single block runs in this process.  More blocks run on the process's
    one pool, forked by the first such call and reused while the capped
    worker count stays the same.  A new count joins the old workers before
    the next fork; a broken pool is dropped, and its error is raised.
    """
    global _pool
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    ranges = _block_ranges(trials)
    workers = min(n_workers, len(ranges))
    if workers == 1:
        return [fn(r) for r in ranges]
    if _pool is not None and _pool[0] != workers:
        _drop_pool()
    if _pool is None:
        pool = ProcessPoolExecutor(max_workers=workers)
        # a multiprocessing child joins its children before the exit hook of
        # concurrent.futures runs, so a finalizer joins the workers; priority
        # 11 runs it before the call queue's own (10) stops the queue's feeder
        _pool = (workers, pool, Finalize(pool, pool.shutdown, exitpriority=11))
    try:
        return list(_pool[1].map(fn, ranges, chunksize=max(1, len(ranges) // (4 * workers))))
    except BrokenProcessPool:
        _drop_pool()
        raise


# ---------------------------------------------------------------------------
# Engines (vectorized per block, one draw for a whole power axis)
# ---------------------------------------------------------------------------

def _power_parts(cfg, base, powers, denom, outage, log2, deg=0):
    """Per power, the block aggregate of log2(1 + base * p_b / denom)."""
    parts = []
    for p_b in powers:
        vals = log2(1.0 + base * p_b / denom)
        if outage:
            parts.append((float((vals < cfg.R_m).sum()), 0.0, deg))
        else:
            parts.append((_fsum(vals), _fsum(vals * vals), deg))
    return parts


def _model_block(plan, cfg, powers, squared, outage, blk):
    """One block's draws, evaluated at every transmit power in ``powers``.

    Fixed draw order: distances, BS-side powers, then user-side powers in
    sub-blocks of one trial or more, which the stream fills in C order as one
    whole draw.  The draws do not depend on the power, so ``base = gain * pl``
    is formed once; ``base * p_b / (Q sigma2)`` keeps the single-power order.
    """
    bi, lo, hi = blk
    nb, rows, N = hi - lo, cfg.Q if squared else 1, cfg.N
    gen = stream(plan.master_seed, _TAG_RATE_MODEL if squared else _TAG_OP_MODEL, bi)
    r = sample_user_distance(gen, cfg.R, cfg.r0, nb)
    h = sample_nakagami_power(gen, cfg.t1, (nb, 1, N))
    np.sqrt(h, out=h)
    s = np.empty((nb, rows))                            # nb x rows branch sums
    sub = max(1, _GAIN_BUDGET // (rows * N))
    for a in range(0, nb, sub):
        g = sample_nakagami_power(gen, cfg.t2, (min(sub, nb - a), rows, N))
        np.multiply(np.sqrt(g, out=g), h[a:a + sub], out=g)
        g.sum(axis=2, out=s[a:a + sub])
    gain = (s ** 2).sum(axis=1) if squared else s[:, 0]
    base = gain * (cfg.ref_atten_lin * (cfg.d1 * r) ** (-cfg.alpha))
    return _power_parts(cfg, base, powers, cfg.Q * cfg.sigma2, outage, np.log2)


# ---------------------------------------------------------------------------
# Link-level engine (per-trial streams, one linear-algebra pass per chunk)
# ---------------------------------------------------------------------------

_CHUNK = 512          # trials stacked per linear-algebra pass; bounds peak memory


def _link_chunk(plan, cfg, lo, hi):
    """User 0's ``link_gain`` of trials lo..hi-1 and the number of rank-deficient draws.

    Trial t draws the first realization of the stream keyed by (seed, link tag, t),
    and its k-th redraw that of (seed, link tag, k, t): no value depends on the chunking.
    """
    keys = philox_keys(plan.master_seed, (_TAG_LINK,), range(lo, hi))
    real = draw_channel(keys, cfg)
    failed = [0] * len(keys)
    while True:
        try:
            sol = solve_beamforming(real, users=(0,))
        except RankDeficiencyError as e:
            if not e.trials:
                raise
            for (i,) in e.trials:
                failed[i] += 1
                if failed[i] > 64:
                    raise
                again = draw_channel(philox_keys(plan.master_seed, (_TAG_LINK, failed[i]),
                                                 [lo + i]), cfg)
                real.H[i], real.G[i], real.d2[i] = again.H[0], again.G[0], again.d2[0]
            continue
        return link_gain(real, sol, cfg, 0), sum(failed)


def _log2_each(x):
    """``math.log2`` per element: numpy's vectorized log2 rounds differently."""
    return np.array([math.log2(v) for v in x.tolist()])


def _link_block(plan, cfg, powers, outage, blk):
    bi, lo, hi = blk
    chunks = [_link_chunk(plan, cfg, c, min(c + _CHUNK, hi))
              for c in range(lo, hi, _CHUNK)]
    base = np.concatenate([c[0] for c in chunks])
    deg = sum(c[1] for c in chunks)
    return _power_parts(cfg, base, powers, cfg.sigma2, outage, _log2_each, deg)


def _axis(plan, cfg, powers, squared, outage, n_workers, fidelity):
    powers = [float(p) for p in powers]
    if fidelity == "link_level":
        if not cfg.solvable:
            raise ValueError(f"link level needs N >= M*K, got N={cfg.N} M*K={cfg.M * cfg.K}")
        fn = partial(_link_block, plan, cfg, powers, outage)
    elif fidelity == "model_level":
        fn = partial(_model_block, plan, cfg, powers, squared, outage)
    else:
        raise ValueError(f"unknown fidelity {fidelity!r}; known: model_level, link_level")
    blocks = _run_blocks(fn, plan.trials, n_workers)
    return [_reduce_blocks([b[i] for b in blocks], plan.trials, binary=outage)
            for i in range(len(powers))]


def simulate_op_axis(plan: TrialPlan, cfg: NetworkConfig, powers, n_workers: int = 1,
                     gain: str = "amplitude", fidelity: str = "model_level") -> list:
    """Outage at each transmit power, one ``Estimate`` per power.

    ``cfg.p_b`` is ignored; every power is evaluated on the same draws.  At
    ``fidelity='model_level'``, ``gain='amplitude'`` thresholds the
    co-phased sum (the tail-model event) and ``'squared'`` the squared
    combining gain on the rate engine's draws (the event the Gamma model
    describes).  At ``'link_level'`` the detected SNR of user 0 is
    thresholded.
    """
    if gain not in ("amplitude", "squared"):
        raise ValueError(f"unknown gain convention {gain!r}")
    if gain == "squared" and fidelity == "link_level":
        raise ValueError("the squared gain convention is a model-level event")
    return _axis(plan, cfg, powers, gain == "squared", True, n_workers, fidelity)


def simulate_ergodic_rate_axis(plan: TrialPlan, cfg: NetworkConfig, powers,
                               n_workers: int = 1, fidelity: str = "model_level") -> list:
    """Ergodic rate at each transmit power, on one set of draws."""
    return _axis(plan, cfg, powers, True, False, n_workers, fidelity)


def simulate_op(plan: TrialPlan, cfg: NetworkConfig, n_workers: int = 1,
                fidelity: str = "model_level") -> Estimate:
    """Outage probability estimate at ``fidelity`` (model_level | link_level)."""
    return simulate_op_axis(plan, cfg, [cfg.p_b], n_workers, fidelity=fidelity)[0]


def simulate_ergodic_rate(plan: TrialPlan, cfg: NetworkConfig, n_workers: int = 1,
                          fidelity: str = "model_level") -> Estimate:
    """Ergodic rate estimate: mean of log2(1 + SNR) with its standard error."""
    return simulate_ergodic_rate_axis(plan, cfg, [cfg.p_b], n_workers, fidelity=fidelity)[0]


# ---------------------------------------------------------------------------
# Half-duplex relay baselines
# ---------------------------------------------------------------------------

def _relay_draws(cfg: NetworkConfig, seed: int, blk):
    """One block's hop gains: BS to a single-antenna relay at ``cfg.d1``, and relay
    to a user on the disc.  Each hop is a separate link, so the reference
    attenuation applies per hop (the reflected cascade pays it once on the
    product distance); ``M``, ``K``, ``N`` and ``R_m`` are not read."""
    bi, lo, hi = blk
    gen = stream(seed, _TAG_RELAY, bi)
    nb = hi - lo
    h1 = sample_nakagami_power(gen, cfg.t1, nb)
    h2 = sample_nakagami_power(gen, cfg.t2, nb)
    r = sample_user_distance(gen, cfg.R, cfg.r0, nb)
    g1 = cfg.ref_atten_lin * cfg.d1 ** (-cfg.alpha) * h1
    g2 = cfg.ref_atten_lin * r ** (-cfg.alpha) * h2
    return g1, g2


def _relay_block(plan, cfg, scheme, splits, exact, blk):
    """One block's draws, evaluated at every power split in ``splits``.

    Per split, one aggregate per reported rate: the end-to-end rate for
    ``'af'`` and ``'df'``, both hop rates for ``'df_min_of_means'``.  With
    ``exact`` it is the correctly rounded (sum, sumsq, 0) that
    ``_reduce_blocks`` takes, by error-free extraction finished by
    ``math.fsum``; without, numpy's pairwise sum alone, whose error
    ``_mean_interval`` bounds.
    """
    g1, g2 = _relay_draws(cfg, plan.master_seed, blk)
    out = []
    for split in splits:
        pb, pd = split * cfg.p_b, (1.0 - split) * cfg.p_b
        if scheme == "af":
            # amplification normalizes the first-hop receive power to pd
            eps_a = pd / (pb * g1)
            sinr = eps_a * g1 * g2 * pb / (cfg.sigma2 * (1.0 + eps_a * g2))
            rates = (0.5 * np.log2(1.0 + sinr),)
        else:
            r1 = 0.5 * np.log2(1.0 + pb * g1 / cfg.sigma2)
            r2 = 0.5 * np.log2(1.0 + pd * g2 / cfg.sigma2)
            rates = (np.minimum(r1, r2),) if scheme == "df" else (r1, r2)
        if exact:
            out.append([(_fsum(v), _fsum(v * v), 0) for v in rates])
        else:
            out.append([float(v.sum()) for v in rates])
    return out


_SCHEMES = ("af", "df", "df_min_of_means")


def _relay_parts(scheme, plan, cfg, splits, exact, n_workers):
    """Per split, per reported rate, the list of block aggregates."""
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown relay scheme {scheme!r}; known: {', '.join(_SCHEMES)}")
    if not all(0.0 < s < 1.0 for s in splits):
        raise ValueError("power_split must lie in (0, 1)")
    fn = partial(_relay_block, plan, cfg, scheme, splits, exact)
    blocks = _run_blocks(fn, plan.trials, n_workers)
    return [[[b[i][k] for b in blocks] for k in range(len(blocks[0][i]))]
            for i in range(len(splits))]


def _weakest(means) -> int:
    """Index of the lowest mean; an earlier rate wins a tie."""
    best = 0
    for k in range(1, len(means)):
        if not means[best] <= means[k]:
            best = k
    return best


def _relay_estimates(scheme, plan, cfg, splits, n_workers) -> list:
    """Per split, the ``Estimate`` of its weakest reported rate, exactly reduced."""
    out = []
    for per_rate in _relay_parts(scheme, plan, cfg, splits, True, n_workers):
        ests = [_reduce_blocks(parts, plan.trials, binary=False) for parts in per_rate]
        out.append(ests[_weakest([e.mean for e in ests])])
    return out


def _mean_interval(block_sums, trials):
    """An interval holding the mean that ``_reduce_blocks`` gives for these blocks.

    Relay rates are >= 0 (``NetworkConfig`` keeps ``p_b`` and ``sigma2``
    positive), so the sum of absolute values is the sum itself and every
    error is relative to it.  Any order of n - 1 rounded additions errs by
    at most gamma_{n-1} = (n-1)u / (1 - (n-1)u) of it (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, eq. 4.4; u = 2**-53): numpy's
    pairwise sum of at most ``BLOCK`` values, then the sum over blocks, then
    one rounding for the division.  The exact path rounds its block sums,
    their sum and the division once each.  ``4 (BLOCK + blocks + 4) u``
    covers both with room for the gamma denominators and for rounding the
    half-width itself; ``ulp(0)`` covers a division that underflows.
    """
    mean = sum(block_sums) / trials
    half = 4.0 * (BLOCK + len(block_sums) + 4) * 2.0 ** -53 * mean + math.ulp(0.0)
    return mean - half, mean + half


def af_relay_rate(plan: TrialPlan, cfg: NetworkConfig, power_split: float,
                  n_workers: int = 1) -> Estimate:
    """Amplify-and-forward rate: the relay also forwards its receive noise.

    The BS transmits ``power_split * cfg.p_b`` and the relay the rest.
    """
    return _relay_estimates("af", plan, cfg, [float(power_split)], n_workers)[0]


def df_relay_rate(plan: TrialPlan, cfg: NetworkConfig, power_split: float,
                  n_workers: int = 1) -> Estimate:
    """Decode-and-forward rate, bottlenecked by the weaker hop of each draw."""
    return _relay_estimates("df", plan, cfg, [float(power_split)], n_workers)[0]


def optimal_power_split(scheme: str, plan: TrialPlan, cfg: NetworkConfig,
                        grid=None, n_workers: int = 1):
    """Grid search over the BS/relay power split with common random numbers.

    ``scheme`` is ``'af'`` (the rate of ``af_relay_rate``), ``'df'`` (that
    of ``df_relay_rate``: the minimum inside the expectation, the
    information-theoretic reading) or ``'df_min_of_means'`` (the minimum of
    the two per-hop ergodic rates, both taken from one draw).  Every split
    is evaluated on the same draws, so the argmax is over a smooth curve
    rather than independent noise.  It returns the first split with the
    strictly greatest mean, and the scheme's ``Estimate`` there, in two
    passes:

    * a bounded pass over every split sums each block with numpy and gives
      each split an interval that provably holds its exact mean
      (``_mean_interval``; for ``'df_min_of_means'`` the minimum of the two
      hops' intervals);
    * an exact pass, in grid order, over the candidates: the splits whose
      upper end reaches the greatest lower end, or every split if a bounded
      value is not finite.

    A split left out has an exact mean below the greatest lower end, which
    the exact mean of the split that sets it reaches, so it can neither be
    the maximum nor tie with it: the split and its ``Estimate`` are those
    of an exact evaluation of every split.
    """
    if grid is None:
        grid = np.round(np.arange(0.01, 1.0, 0.01), 2)
    splits = [float(s) for s in grid]
    if not splits:
        raise ValueError("optimal_power_split needs at least one power split")
    ends = [[_mean_interval(sums, plan.trials) for sums in per_rate]
            for per_rate in _relay_parts(scheme, plan, cfg, splits, False, n_workers)]
    # every hop is checked before the hop minimum, which can pass over a NaN
    if all(math.isfinite(hi) for per_rate in ends for _, hi in per_rate):
        bounds = [(min(lo for lo, _ in e), min(hi for _, hi in e)) for e in ends]
        floor = max(lo for lo, _ in bounds)
        splits = [s for s, (_, hi) in zip(splits, bounds) if hi >= floor]
    best = None
    for split, est in zip(splits, _relay_estimates(scheme, plan, cfg, splits, n_workers)):
        if best is None or est.mean > best[1].mean:
            best = (split, est)
    return best


def empirical_diversity_slope(op_curve) -> float:
    """Least-squares slope of log10(OP) against -snr_db / 10.

    Points with an outage of exactly zero carry no slope and are skipped; a
    non-finite SNR, or an outage that is not a probability, raises.
    """
    for s, p in op_curve:
        if not (math.isfinite(s) and 0.0 <= p <= 1.0):
            raise ValueError(f"bad outage point (snr_db={s!r}, op={p!r})")
    pts = [(s, p) for s, p in op_curve if p > 0.0]
    if len(pts) < 2:
        raise ValueError("need at least two positive outage points")
    x = np.array([-s / 10.0 for s, _ in pts])
    y = np.array([math.log10(p) for _, p in pts])
    return float(np.polyfit(x, y, 1)[0])
