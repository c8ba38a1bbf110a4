"""Trial engines for outage and rate estimation, plus relay baselines.

Trials are partitioned into fixed blocks of 4096; every block owns a
counter-based RNG stream keyed by (master seed, engine tag, block index) and
reduces with exact compensated summation.  Results are therefore identical
for any worker count: workers only decide who computes which block.  The
draws do not depend on the transmit power or the relay power split, so the
engines evaluate a whole power axis or split grid on one draw per block.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .beamforming import RankDeficiencyError, link_gain, solve_beamforming
from .geometry import (NetworkConfig, check_scenario, draw_channel, sample_nakagami_power,
                       sample_user_distance, stream)

__all__ = [
    "BLOCK",
    "TrialPlan",
    "Estimate",
    "RelayConfig",
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

_TAG_OP_MODEL = 11
_TAG_RATE_MODEL = 12
_TAG_LINK = 13
_TAG_RELAY = 14


@dataclass(frozen=True)
class TrialPlan:
    trials: int
    master_seed: int
    fidelity: str = "model_level"     # model_level | link_level

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.fidelity not in ("model_level", "link_level"):
            raise ValueError(f"unknown fidelity {self.fidelity!r}")


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
    """Correctly rounded sum of an array; ``tolist`` avoids per-element numpy scalars."""
    return math.fsum(vals.tolist())


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


def _run_blocks(fn, trials: int, n_workers: int):
    ranges = _block_ranges(trials)
    if n_workers <= 1:
        return [fn(r) for r in ranges]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(fn, ranges, chunksize=max(1, len(ranges) // (4 * n_workers))))


# ---------------------------------------------------------------------------
# Engines (vectorized per block, one draw for a whole power axis)
# ---------------------------------------------------------------------------

def _model_draws(gen, cfg: NetworkConfig, nb: int, rows: int):
    """Fixed draw order: distances, BS-side powers, user-side powers."""
    r = sample_user_distance(gen, cfg.R, cfg.r0, nb)
    h = np.sqrt(sample_nakagami_power(gen, cfg.t1, (nb, cfg.N)))
    g = np.sqrt(sample_nakagami_power(gen, cfg.t2, (nb, rows, cfg.N)))
    return r, h, g


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

    The draws do not depend on the power, so ``base = gain * pl`` is formed
    once; ``base * p_b / (Q sigma2)`` keeps the single-power evaluation order.
    """
    bi, lo, hi = blk
    gen = stream(plan.master_seed, _TAG_RATE_MODEL if squared else _TAG_OP_MODEL, bi)
    r, h, g = _model_draws(gen, cfg, hi - lo, cfg.Q if squared else 1)
    s = (g * h[:, np.newaxis, :]).sum(axis=2)          # nb x rows branch sums
    gain = (s ** 2).sum(axis=1) if squared else s[:, 0]
    base = gain * (cfg.ref_atten_lin * (cfg.d1 * r) ** (-cfg.alpha))
    return _power_parts(cfg, base, powers, cfg.Q * cfg.sigma2, outage, np.log2)


# ---------------------------------------------------------------------------
# Link-level engine (per-trial streams, one linear-algebra pass per chunk)
# ---------------------------------------------------------------------------

_CHUNK = 512          # trials stacked per linear-algebra pass; bounds peak memory


def _link_chunk(plan, cfg, user, lo, hi):
    """``link_gain`` of trials lo..hi-1 and the number of rank-deficient draws.

    Every trial draws from its own stream; a rank-deficient trial draws
    again from that stream, so its value does not depend on the chunking.
    """
    gens = [stream(plan.master_seed, _TAG_LINK, t) for t in range(lo, hi)]
    real = draw_channel(gens, cfg)
    failed = [0] * len(gens)
    while True:
        try:
            sol = solve_beamforming(real, cfg, users=(user,))
        except RankDeficiencyError as e:
            if not e.trials:
                raise
            for (i,) in e.trials:
                failed[i] += 1
                if failed[i] > 64:
                    raise
                again = draw_channel(gens[i], cfg)
                real.H[i], real.G[i], real.d2[i] = again.H, again.G, again.d2
            continue
        return link_gain(real, sol, cfg, user), sum(failed)


def _log2_each(x):
    """``math.log2`` per element: numpy's vectorized log2 rounds differently."""
    return np.array([math.log2(v) for v in x.tolist()])


def _link_block(plan, cfg, user, powers, outage, blk):
    bi, lo, hi = blk
    chunks = [_link_chunk(plan, cfg, user, c, min(c + _CHUNK, hi))
              for c in range(lo, hi, _CHUNK)]
    base = np.concatenate([c[0] for c in chunks])
    deg = sum(c[1] for c in chunks)
    return _power_parts(cfg, base, powers, cfg.sigma2, outage, _log2_each, deg)


def _axis(plan, cfg, powers, squared, outage, n_workers, user):
    powers = [float(p) for p in powers]
    if plan.fidelity == "link_level":
        if not cfg.solvable:
            raise ValueError(f"link level needs N >= M*K, got N={cfg.N} M*K={cfg.M * cfg.K}")
        fn = partial(_link_block, plan, cfg, user, powers, outage)
    else:
        fn = partial(_model_block, plan, cfg, powers, squared, outage)
    blocks = _run_blocks(fn, plan.trials, n_workers)
    return [_reduce_blocks([b[i] for b in blocks], plan.trials, binary=outage)
            for i in range(len(powers))]


def simulate_op_axis(plan: TrialPlan, cfg: NetworkConfig, powers, n_workers: int = 1,
                     gain: str = "amplitude", user: int = 0) -> list:
    """Outage at each transmit power, one ``Estimate`` per power.

    ``cfg.p_b`` is ignored; every power is evaluated on the same draws.  At
    model level, ``gain='amplitude'`` thresholds the co-phased sum (the
    tail-model event) and ``'squared'`` the squared combining gain on the
    rate engine's draws (the event the Gamma model describes).  At link
    level the detected SNR of ``user`` is thresholded.
    """
    if gain not in ("amplitude", "squared"):
        raise ValueError(f"unknown gain convention {gain!r}")
    if gain == "squared" and plan.fidelity == "link_level":
        raise ValueError("the squared gain convention is a model-level event")
    return _axis(plan, cfg, powers, gain == "squared", True, n_workers, user)


def simulate_ergodic_rate_axis(plan: TrialPlan, cfg: NetworkConfig, powers,
                               n_workers: int = 1, user: int = 0) -> list:
    """Ergodic rate at each transmit power, on one set of draws."""
    return _axis(plan, cfg, powers, True, False, n_workers, user)


def simulate_op(plan: TrialPlan, cfg: NetworkConfig, n_workers: int = 1,
                user: int = 0) -> Estimate:
    """Outage probability estimate at the plan's fidelity."""
    return simulate_op_axis(plan, cfg, [cfg.p_b], n_workers, user=user)[0]


def simulate_ergodic_rate(plan: TrialPlan, cfg: NetworkConfig, n_workers: int = 1,
                          user: int = 0) -> Estimate:
    """Ergodic rate estimate: mean of log2(1 + SNR) with its standard error."""
    return simulate_ergodic_rate_axis(plan, cfg, [cfg.p_b], n_workers, user=user)[0]


# ---------------------------------------------------------------------------
# Half-duplex relay baselines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelayConfig:
    """Two-hop single-antenna relay scenario sharing the disc geometry.

    Each hop is a separate link, so the reference attenuation applies per
    hop (the reflected cascade pays it once on the product distance).
    """

    t1: float = 3.0
    t2: float = 1.0
    d1: float = 25.0
    R: float = 100.0
    r0: float = 1.0
    alpha: float = 3.0
    p_tot: float = 1.0
    sigma2: float = 3.9810717055349695e-13
    ref_atten_db: float = -30.0

    def __post_init__(self) -> None:
        check_scenario(self, "p_tot", alpha_min=0.0)

    @property
    def ref_atten_lin(self) -> float:
        return 10.0 ** (self.ref_atten_db / 10.0)


def _relay_draws(rc: RelayConfig, seed: int, blk):
    bi, lo, hi = blk
    gen = stream(seed, _TAG_RELAY, bi)
    nb = hi - lo
    h1 = sample_nakagami_power(gen, rc.t1, nb)
    h2 = sample_nakagami_power(gen, rc.t2, nb)
    r = sample_user_distance(gen, rc.R, rc.r0, nb)
    g1 = rc.ref_atten_lin * rc.d1 ** (-rc.alpha) * h1
    g2 = rc.ref_atten_lin * r ** (-rc.alpha) * h2
    return g1, g2


def _relay_block(plan, rc, scheme, splits, exact, blk):
    """One block's draws, evaluated at every power split in ``splits``.

    Per split, one aggregate per reported rate: the end-to-end rate for
    ``'af'`` and ``'df'``, both hop rates for ``'df_hops'``.  With ``exact``
    it is the correctly rounded (sum, sumsq, 0) that ``_reduce_blocks``
    takes; without, numpy's pairwise sum alone, whose error
    ``_mean_interval`` bounds.
    """
    g1, g2 = _relay_draws(rc, plan.master_seed, blk)
    out = []
    for split in splits:
        pb, pd = split * rc.p_tot, (1.0 - split) * rc.p_tot
        if scheme == "af":
            # amplification normalizes the first-hop receive power to pd
            eps_a = pd / (pb * g1)
            sinr = eps_a * g1 * g2 * pb / (rc.sigma2 * (1.0 + eps_a * g2))
            rates = (0.5 * np.log2(1.0 + sinr),)
        else:
            r1 = 0.5 * np.log2(1.0 + pb * g1 / rc.sigma2)
            r2 = 0.5 * np.log2(1.0 + pd * g2 / rc.sigma2)
            rates = (np.minimum(r1, r2),) if scheme == "df" else (r1, r2)
        if exact:
            out.append([(_fsum(v), _fsum(v * v), 0) for v in rates])
        else:
            out.append([float(v.sum()) for v in rates])
    return out


def _relay_parts(scheme, plan, rc, splits, exact, n_workers):
    """Per split, per reported rate, the list of block aggregates."""
    if not all(0.0 < s < 1.0 for s in splits):
        raise ValueError("power_split must lie in (0, 1)")
    fn = partial(_relay_block, plan, rc, scheme, splits, exact)
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


def _relay_estimates(scheme, plan, rc, splits, n_workers) -> list:
    """Per split, the ``Estimate`` of its weakest reported rate, exactly reduced."""
    out = []
    for per_rate in _relay_parts(scheme, plan, rc, splits, True, n_workers):
        ests = [_reduce_blocks(parts, plan.trials, binary=False) for parts in per_rate]
        out.append(ests[_weakest([e.mean for e in ests])])
    return out


def _mean_interval(block_sums, trials):
    """An interval holding the mean that ``_reduce_blocks`` gives for these blocks.

    Relay rates are >= 0 (``RelayConfig`` keeps ``p_tot`` and ``sigma2``
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


def _df_scheme(combine: str) -> str:
    if combine == "per_draw":
        return "df"
    if combine == "min_of_means":
        return "df_hops"
    raise ValueError(f"unknown combine mode {combine!r}")


def af_relay_rate(plan: TrialPlan, cfg_relay: RelayConfig, power_split: float,
                  n_workers: int = 1) -> Estimate:
    """Amplify-and-forward rate: the relay also forwards its receive noise."""
    return _relay_estimates("af", plan, cfg_relay, [float(power_split)], n_workers)[0]


def df_relay_rate(plan: TrialPlan, cfg_relay: RelayConfig, power_split: float,
                  n_workers: int = 1, combine: str = "per_draw") -> Estimate:
    """Decode-and-forward rate, bottlenecked by the weaker hop.

    ``combine='per_draw'`` takes the minimum inside the expectation (the
    information-theoretic reading); ``'min_of_means'`` reports the minimum
    of the two per-hop ergodic rates instead, both taken from one draw.
    """
    return _relay_estimates(_df_scheme(combine), plan, cfg_relay, [float(power_split)],
                            n_workers)[0]


def optimal_power_split(relay_rate_fn, plan: TrialPlan, cfg_relay: RelayConfig,
                        grid=None, n_workers: int = 1, **rate_kw):
    """Grid search over the BS/relay power split with common random numbers.

    ``relay_rate_fn`` is ``af_relay_rate``, or ``df_relay_rate`` with its
    optional ``combine``.  Every split is evaluated on the same draws, so
    the argmax is over a smooth curve rather than independent noise.  It
    returns the first split with the strictly greatest mean, and the
    ``Estimate`` that ``relay_rate_fn`` gives there, in two passes:

    * a bounded pass over every split sums each block with numpy and gives
      each split an interval that provably holds its exact mean
      (``_mean_interval``; for ``min_of_means`` the minimum of the two
      hops' intervals);
    * an exact pass, in grid order, over the candidates: the splits whose
      upper end reaches the greatest lower end, or every split if a bounded
      value is not finite.

    A split left out has an exact mean below the greatest lower end, which
    the exact mean of the split that sets it reaches, so it can neither be
    the maximum nor tie with it: the split and its ``Estimate`` are those
    of an exact evaluation of every split.
    """
    if relay_rate_fn is af_relay_rate and not rate_kw:
        scheme = "af"
    elif relay_rate_fn is df_relay_rate and set(rate_kw) <= {"combine"}:
        scheme = _df_scheme(rate_kw.get("combine", "per_draw"))
    else:
        raise ValueError("relay_rate_fn must be af_relay_rate, or df_relay_rate "
                         "with an optional combine")
    if grid is None:
        grid = np.round(np.arange(0.01, 1.0, 0.01), 2)
    splits = [float(s) for s in grid]
    if not splits:
        raise ValueError("optimal_power_split needs at least one power split")
    ends = [[_mean_interval(sums, plan.trials) for sums in per_rate]
            for per_rate in _relay_parts(scheme, plan, cfg_relay, splits, False, n_workers)]
    # every hop is checked before the hop minimum, which can pass over a NaN
    if all(math.isfinite(hi) for per_rate in ends for _, hi in per_rate):
        bounds = [(min(lo for lo, _ in e), min(hi for _, hi in e)) for e in ends]
        floor = max(lo for lo, _ in bounds)
        splits = [s for s, (_, hi) in zip(splits, bounds) if hi >= floor]
    best = None
    for split, est in zip(splits, _relay_estimates(scheme, plan, cfg_relay, splits, n_workers)):
        if best is None or est.mean > best[1].mean:
            best = (split, est)
    return best


def empirical_diversity_slope(op_curve) -> float:
    """Least-squares slope of log10(OP) against -snr_db / 10."""
    pts = [(s, p) for s, p in op_curve if p > 0.0]
    if len(pts) < 2:
        raise ValueError("need at least two positive outage points")
    x = np.array([-s / 10.0 for s, _ in pts])
    y = np.array([math.log10(p) for _, p in pts])
    return float(np.polyfit(x, y, 1)[0])
