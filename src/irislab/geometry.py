"""Scenario configuration, user placement and Nakagami channel realizations.

Users sit on an annulus [r0, R] around the reflecting surface, each channel
entry is a Nakagami-faded gain with an i.i.d. uniform phase, and every random
draw flows through counter-based streams so that runs reproduce bit-for-bit
regardless of how trials are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "NetworkConfig",
    "ChannelRealization",
    "stream",
    "sample_user_distance",
    "path_loss",
    "sample_nakagami_power",
    "draw_channel",
]


@dataclass
class NetworkConfig:
    """All scenario parameters, linear units (watts, meters, unitless)."""

    M: int = 1                # transmit antennas == served users
    K: int = 1                # receive antennas per user
    N: int = 2                # reflecting elements
    R: float = 100.0          # disc radius (m)
    r0: float = 1.0           # minimum / reference distance (m)
    alpha: float = 3.0        # path-loss exponent
    d1: float = 1.0           # BS-to-surface distance (m)
    t1: float = 2.0           # fading parameter, BS-to-surface
    t2: float = 1.0           # fading parameter, surface-to-user
    p_b: float = 1.0          # per-user transmit power (W)
    sigma2: float = 3.9810717055349695e-13   # noise power (W), -94 dBm default
    ref_atten_db: float = -30.0              # attenuation at the reference distance
    R_m: float = 1.5          # target rate (BPCU)

    def __post_init__(self) -> None:
        """Value checks: every field is finite, then each scenario bound."""
        if not (self.N >= self.K >= self.M >= 1):
            raise ValueError(f"need N >= K >= M >= 1, got N={self.N} K={self.K} M={self.M}")
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not (self.t1 >= 0.5 and self.t2 >= 0.5):
            raise ValueError(f"fading parameters must be >= 0.5, got t1={self.t1} t2={self.t2}")
        if not 0.0 < self.r0 < self.R:
            raise ValueError(f"need 0 < r0 < R, got r0={self.r0} R={self.R}")
        if not self.alpha > 2.0:
            raise ValueError(f"need alpha > 2, got {self.alpha}")
        for name in ("d1", "p_b", "sigma2"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    @property
    def Q(self) -> int:
        """Effective antenna gain after zero-forcing: K - M + 1."""
        return self.K - self.M + 1

    @property
    def ref_atten_lin(self) -> float:
        return 10.0 ** (self.ref_atten_db / 10.0)

    @property
    def solvable(self) -> bool:
        """Passive weights exist only when N >= M*K."""
        return self.N >= self.M * self.K


@dataclass
class ChannelRealization:
    """One random draw: H is N x M, G[m] is K x N, d2[m] the user-m distance.

    A stack of draws carries leading trial axes: H (..., N, M),
    G (..., M, K, N), d2 (..., M).
    """

    H: np.ndarray
    G: np.ndarray
    d2: np.ndarray


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Counter-based RNG stream addressed by (seed, *key).

    Philox is counter-based, so streams for different keys are independent
    and creation order is irrelevant; that is what makes worker-count
    invariance possible.
    """
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))


def sample_user_distance(rng: np.random.Generator, R: float, r0: float,
                         size: Optional[int] = None):
    """Distance of a user placed uniformly on the annulus [r0, R]."""
    if r0 >= R:
        raise ValueError(f"need r0 < R, got r0={r0} R={R}")
    return _annulus_distance(rng.random(size), R, r0)


def _annulus_distance(u, R: float, r0: float):
    """Inverse CDF of f(r) = 2r / (R^2 - r0^2): r = sqrt(r0^2 + u (R^2 - r0^2))."""
    return np.sqrt(r0 ** 2 + u * (R ** 2 - r0 ** 2))


def path_loss(d1: float, d2, alpha: float, ref_atten_db: float):
    """Product-distance large-scale gain: C0 * (d1*d2)^-alpha, C0 from dB.

    The power is taken per element, so an array of distances gives the
    values of scalar calls bit for bit; numpy's vectorized power does not.
    """
    d2 = np.asarray(d2, dtype=float)
    if d1 <= 0.0 or np.any(d2 <= 0.0):
        raise ValueError("distances must be positive")
    power = [x ** -alpha for x in (d1 * d2).ravel().tolist()]
    return 10.0 ** (ref_atten_db / 10.0) * np.reshape(power, d2.shape)


def sample_nakagami_power(rng: np.random.Generator, t: float,
                          size: Optional[int] = None):
    """Unit-mean squared Nakagami gain: Gamma(shape=t, scale=1/t)."""
    if t < 0.5:
        raise ValueError(f"fading parameter must be >= 0.5, got {t}")
    return rng.gamma(t, 1.0 / t, size)


def draw_channel(rng, cfg: NetworkConfig) -> ChannelRealization:
    """Draw one full realization: H (N x M), G (M x K x N), d2 (M,).

    Given a list of generators, draws one realization from each, stacked on
    a leading trial axis.  Each stream's draw order is fixed (distances,
    then the powers and phases of H, then of each G[m]) so a given stream
    always yields the same realization.  Only the generator calls run per
    trial; the draws become distances and complex gains once for the whole
    stack.
    """
    gens = rng if isinstance(rng, list) else [rng]
    nb, M, K, N = len(gens), cfg.M, cfg.K, cfg.N
    u = np.empty((nb, M))
    h = np.empty((2, nb, N, M))          # power, phase
    g = np.empty((2, nb, M, K, N))
    (h_pow, h_phase), (g_pow, g_phase) = h, g
    t1, s1, t2, s2, two_pi = cfg.t1, 1.0 / cfg.t1, cfg.t2, 1.0 / cfg.t2, 2.0 * np.pi
    for i, gen in enumerate(gens):
        u[i] = gen.random(M)
        h_pow[i] = gen.gamma(t1, s1, (N, M))
        h_phase[i] = gen.uniform(0.0, two_pi, (N, M))
        for m in range(M):
            g_pow[i, m] = gen.gamma(t2, s2, (K, N))
            g_phase[i, m] = gen.uniform(0.0, two_pi, (K, N))
    d2 = _annulus_distance(u, cfg.R, cfg.r0)
    H, G = (np.sqrt(x[0]) * np.exp(1j * x[1]) for x in (h, g))
    if gens is rng:
        return ChannelRealization(H=H, G=G, d2=d2)
    return ChannelRealization(H=H[0], G=G[0], d2=d2[0])
