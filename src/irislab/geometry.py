"""Scenario configuration, user placement and Nakagami channel realizations.

Users sit on an annulus [r0, R] around the reflecting surface, each channel
entry is a Nakagami-faded gain with an i.i.d. uniform phase, and every random
draw flows through counter-based streams so that runs reproduce bit-for-bit
regardless of how trials are scheduled.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "as_float",
    "as_int",
    "NetworkConfig",
    "ChannelRealization",
    "stream",
    "philox_keys",
    "sample_user_distance",
    "path_loss",
    "sample_nakagami_power",
    "draw_channel",
]


def as_float(name: str, value) -> float:
    """``float(value)`` of config number ``name``; a bool or non-real, an int too large for a
    float, NaN and infinity raise ``ValueError`` naming it.  Range rules stay with callers."""
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise ValueError(f"{name} must be a number, got {value!r}")  # float, int: ABC is slow
    try:
        x = float(value)
    except OverflowError:
        raise ValueError(f"{name} must fit in a float, got an int of "
                         f"{value.bit_length()} bits") from None
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {value}")
    return x


def as_int(name: str, value) -> int:
    """``int(value)`` of the config integer ``name``: ``as_float``'s checks, then
    no fractional part.  An integral float counts, so ``1e6`` gives 1000000."""
    if not as_float(name, value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


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
        """Value checks: finite numbers (``as_float``), integer M, K and N, then each bound."""
        for name, value in vars(self).items():
            as_float(name, value)
            if name in ("M", "K", "N") and not isinstance(value, (int, numbers.Integral)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not (self.N >= self.K >= self.M >= 1):
            raise ValueError(f"need N >= K >= M >= 1, got N={self.N} K={self.K} M={self.M}")
        if not (self.t1 >= 0.5 and self.t2 >= 0.5):
            raise ValueError(f"fading parameters must be >= 0.5, got t1={self.t1} t2={self.t2}")
        if not 0.0 < self.r0 < self.R:
            raise ValueError(f"need 0 < r0 < R, got r0={self.r0} R={self.R}")
        if not self.alpha > 2.0:
            raise ValueError(f"need alpha > 2, got {self.alpha}")
        for name in ("d1", "p_b", "sigma2"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        # every closed form computes with float(N), exact only up to 2**53
        if self.N > 2 ** 53:
            raise ValueError(f"N must be at most 2**53, got {self.N}")
        for name in ("R", "d1"):    # a finite float power overflows by raising
            try:
                float(getattr(self, name)) ** float(self.alpha)
            except OverflowError:
                raise ValueError(f"alpha must keep {name} ** alpha finite, got alpha={self.alpha} "
                                 f"and {name}={getattr(self, name)}") from None

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


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _n_words(n) -> int:
    """How many 32-bit words SeedSequence splits a non-negative int into."""
    return max(1, -(-operator.index(n).bit_length() // 32))


def philox_keys(master_seed: int, key_prefix, counters) -> np.ndarray:
    """Philox keys of ``stream(master_seed, *key_prefix, t)`` for every t in ``counters``.

    Row i is that stream's ``bit_generator.state["state"]["key"]``, an
    (n, 2) uint64 stack.  SeedSequence hashes the 32-bit words of the seed
    (zero-padded to its 4-word pool) and then those of the spawn key into
    the pool, one ``hashmix`` call per word and pool slot.  The counter is
    the last spawn-key word, so numpy hashes the seed and the prefix once:
    ``SeedSequence(master_seed, spawn_key=key_prefix).pool``, after
    ``4 * (max(4, seed words) + prefix words)`` calls.  Only the counter
    column is mixed here, in numpy uint32 arithmetic, which wraps like the
    C code, and then expanded as ``generate_state(2, np.uint64)`` does.
    Counters must lie in [0, 2**32): one word each.
    """
    t = np.asarray(counters)
    if t.ndim != 1 or (t.size and t.dtype.kind not in "iu"):
        raise ValueError("counters must be a 1-d sequence of integers")
    if t.size and (t.min() < 0 or t.max() > _MASK32):
        raise ValueError("counters must lie in [0, 2**32)")
    prefix = tuple(key_prefix)
    pool = np.random.SeedSequence(master_seed, spawn_key=prefix).pool.tolist()
    calls = 4 * (max(4, _n_words(master_seed)) + sum(map(_n_words, prefix)))
    const, word = _INIT_A * pow(_MULT_A, calls, 1 << 32) & _MASK32, t.astype(np.uint32)
    state = []
    for p in pool:                      # mix(pool[i], hashmix(counter)) for each slot
        h = word ^ const
        const = const * _MULT_A & _MASK32
        h = h * const
        r = (_MIX_MULT_L * p & _MASK32) - _MIX_MULT_R * (h ^ h >> 16)
        state.append(r ^ r >> 16)
    const = _INIT_B
    for i, w in enumerate(state):       # generate_state(2, np.uint64)
        w = w ^ const
        const = const * _MULT_B & _MASK32
        w = w * const
        state[i] = (w ^ w >> 16).astype(np.uint64)
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


def sample_user_distance(rng: np.random.Generator, R: float, r0: float,
                         size: Optional[int] = None):
    """Distance of a user placed uniformly on the annulus [r0, R]."""
    if not r0 < R:
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
    if not (d1 > 0.0 and np.all(d2 > 0.0)):
        raise ValueError("distances must be positive")
    power = [x ** -alpha for x in (d1 * d2).ravel().tolist()]
    return 10.0 ** (ref_atten_db / 10.0) * np.reshape(power, d2.shape)


def sample_nakagami_power(rng: np.random.Generator, t: float,
                          size: Optional[int] = None):
    """Unit-mean squared Nakagami gain: Gamma(shape=t, scale=1/t)."""
    if not t >= 0.5:
        raise ValueError(f"fading parameter must be >= 0.5, got {t}")
    return rng.gamma(t, 1.0 / t, size)


def draw_channel(source, cfg: NetworkConfig) -> ChannelRealization:
    """Draw realizations: H (N x M), G (M x K x N), d2 (M,) each.

    ``source`` is a generator, which gives one realization, or an (n, 2)
    stack of Philox keys (``philox_keys``), which gives the first
    realization of each key's stream, stacked on a leading trial axis.  A
    key stack runs through one reused generator whose state is set to each
    key at counter 0.  Each stream's draw order is fixed (distances, then
    the powers and phases of H, then of each G[m]) so a given stream always
    yields the same realization.  Only the generator calls run per trial,
    and they write into preallocated rows.  The rest runs once on the
    stack: the gamma scale (``gamma(t, s)`` is ``s * standard_gamma(t)``),
    the phase scale (``uniform(0, 2 pi)`` is ``0 + 2 pi * random()``), the
    distances and the complex gains.
    """
    single = isinstance(source, np.random.Generator)
    if single:
        gen, keys = source, [None]
    else:
        keys = np.asarray(source)
        if keys.dtype != np.uint64 or keys.ndim != 2 or keys.shape[1] != 2:
            raise ValueError("draw_channel takes a Generator or an (n, 2) uint64 key stack")
        bg = np.random.Philox(0)         # seeded only to skip OS entropy; each key resets it
        gen = np.random.Generator(bg)
        zeros = np.zeros(4, dtype=np.uint64)
        philox = {"counter": zeros, "key": None}
        state = {"bit_generator": "Philox", "state": philox, "buffer": zeros,
                 "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    nb, M, K, N = len(keys), cfg.M, cfg.K, cfg.N
    u = np.empty((nb, M))
    h = np.empty((2, nb, N, M))          # power, phase
    g = np.empty((2, nb, M, K, N))
    (h_pow, h_phase), (g_pow, g_phase) = h, g
    t1, t2 = cfg.t1, cfg.t2
    for i, key in enumerate(keys):
        if key is not None:
            philox["key"] = key
            bg.state = state
        gen.random(out=u[i])
        gen.standard_gamma(t1, out=h_pow[i])
        gen.random(out=h_phase[i])
        for m in range(M):
            gen.standard_gamma(t2, out=g_pow[i, m])
            gen.random(out=g_phase[i, m])
    for x, t in ((h, t1), (g, t2)):
        x[0] *= 1.0 / t
        x[1] *= 2.0 * np.pi
    d2 = _annulus_distance(u, cfg.R, cfg.r0)
    H, G = (np.sqrt(x[0]) * np.exp(1j * x[1]) for x in (h, g))
    if single:
        return ChannelRealization(H=H[0], G=G[0], d2=d2[0])
    return ChannelRealization(H=H, G=G, d2=d2)
