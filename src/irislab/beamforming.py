"""Passive-beamforming weights at the surface and zero-forcing detection.

The surface weights co-phase every cascaded path onto a real target vector;
each user then projects onto the null space of the other users' effective
columns and combines with MRC inside it.  ``link_snr`` is the ground-truth
post-detection SNR.

Every link-level function takes a realization with or without leading trial
axes (one trial is the case without) and runs once per stack, except where
numpy's batched form rounds differently: ``lstsq`` and the norm of each
detection coefficient vector run per trial, the square ``|v^H h|^2`` per
element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ChannelRealization, NetworkConfig, path_loss

__all__ = [
    "RankDeficiencyError",
    "BeamformingSolution",
    "stack_interference_matrix",
    "target_vector",
    "solve_passive_weights",
    "normalize_weights",
    "effective_channel",
    "detection_vector",
    "solve_beamforming",
    "link_gain",
    "link_snr",
]

_RANK_RCOND = 1e-10   # singular values below rcond * s_max count as zero


class RankDeficiencyError(RuntimeError):
    """The stacked cascade matrix lost rank; the draw must be resampled.

    ``trials`` lists the leading-axis index of every rank-deficient trial.
    """

    def __init__(self, msg: str, trials=()):
        super().__init__(msg)
        self.trials = list(trials)


@dataclass
class BeamformingSolution:
    phi_v: np.ndarray      # unnormalized weights, (..., N)
    beta_max: np.ndarray   # normalization, >= 1, (...)
    phi: np.ndarray        # normalized weights, |phi_n| <= 1, (..., N)
    V: dict                # user m -> unit detection vectors, (..., K)
    H_eff: np.ndarray      # per-user effective channels, (..., M, K, M)


def stack_interference_matrix(real: ChannelRealization) -> np.ndarray:
    """Stack the per-user cascade matrices into one MK x N system per trial.

    Row (m, k), column n holds g_{m,k,n} * h_{n,m}.
    """
    G = real.G
    Hbar = G * np.swapaxes(real.H, -1, -2)[..., :, np.newaxis, :]
    return Hbar.reshape(G.shape[:-3] + (-1, G.shape[-1]))


def target_vector(real: ChannelRealization) -> np.ndarray:
    """Maximal co-phased gains s_{m,k} = sum_n |g_{m,k,n}| |h_{n,m}|, stacked."""
    S = np.abs(real.G) @ np.swapaxes(np.abs(real.H), -1, -2)[..., np.newaxis]
    return S.reshape(S.shape[:-3] + (-1,))


def solve_passive_weights(Hbar: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Solve Hbar @ phi_v = S for the surface weights of every trial.

    Underdetermined (N > MK) systems get the minimum-norm solution, which is
    deterministic and keeps the weight magnitudes small.  Rank-deficient
    trials raise one ``RankDeficiencyError`` that names them all.
    """
    mk, n = Hbar.shape[-2:]
    if n < mk:
        raise RankDeficiencyError(f"no solution for N={n} < MK={mk}")
    phi_v = np.empty(Hbar.shape[:-2] + (n,), dtype=complex)
    deficient = []
    for i in np.ndindex(Hbar.shape[:-2]):
        phi_v[i], _, rank, _ = np.linalg.lstsq(Hbar[i], S[i].astype(complex),
                                               rcond=_RANK_RCOND)
        if rank < mk:
            deficient.append(i)
    if deficient:
        raise RankDeficiencyError(
            f"cascade matrix rank < MK={mk} in {len(deficient)} trial(s)", deficient)
    return phi_v


def normalize_weights(phi_v: np.ndarray):
    """Scale weights so every amplitude is feasible: phi = phi_v / beta_max.

    beta_max is floored at one; phases are untouched.
    """
    beta_max = np.maximum(1.0, np.abs(phi_v).max(axis=-1))
    return phi_v / beta_max[..., np.newaxis], beta_max


def effective_channel(real: ChannelRealization, phi: np.ndarray) -> np.ndarray:
    """H_eff[..., m, :, :] = G[m] diag(phi) H, the K x M channel seen by user m."""
    return real.G @ (phi[..., :, np.newaxis] * real.H)[..., np.newaxis, :, :]


def detection_vector(H_eff_m: np.ndarray, m: int) -> np.ndarray:
    """Zero-forcing + MRC detection vector for user m, per trial.

    Null space of the other users' columns comes from the left singular
    vectors of the column-deleted matrix; MRC picks the direction inside it
    that maximizes |v^H h_m|.
    """
    K, M = H_eff_m.shape[-2:]
    if K < M:
        raise ValueError(f"need K >= M for a nonempty null space, got K={K} M={M}")
    h_m = H_eff_m[..., m]
    if M == 1:
        T = np.broadcast_to(np.eye(K, dtype=complex), H_eff_m.shape[:-2] + (K, K))
    else:
        U = np.linalg.svd(np.delete(H_eff_m, m, axis=-1), full_matrices=True)[0]
        T = U[..., :, M - 1:]     # K x Q basis of the interference null space
    x = (np.swapaxes(T.conj(), -1, -2) @ h_m[..., np.newaxis])[..., 0]
    for i in np.ndindex(x.shape[:-1]):
        x[i] = x[i] / np.linalg.norm(x[i])
    return (T @ x[..., np.newaxis])[..., 0]


def solve_beamforming(real: ChannelRealization, cfg: NetworkConfig,
                      users=None) -> BeamformingSolution:
    """Full pipeline: stack, solve, normalize, detect (for ``users``, default all)."""
    phi_v = solve_passive_weights(stack_interference_matrix(real), target_vector(real))
    phi, beta_max = normalize_weights(phi_v)
    H_eff = effective_channel(real, phi)
    V = {m: detection_vector(H_eff[..., m, :, :], m)
         for m in (range(cfg.M) if users is None else users)}
    return BeamformingSolution(phi_v=phi_v, beta_max=beta_max, phi=phi, V=V, H_eff=H_eff)


def link_gain(real: ChannelRealization, solution: BeamformingSolution,
              cfg: NetworkConfig, m: int) -> np.ndarray:
    """Detected gain times path loss of user m: its SNR at p_b / sigma2 = 1."""
    h_m = solution.H_eff[..., m, :, m]
    vh = (solution.V[m].conj()[..., np.newaxis, :] @ h_m[..., :, np.newaxis])[..., 0, 0]
    # squared per element, like a scalar: numpy's vectorized square rounds differently
    gain = np.array([a ** 2 for a in np.abs(vh).ravel().tolist()]).reshape(vh.shape)
    return gain * path_loss(cfg.d1, real.d2[..., m], cfg.alpha, cfg.ref_atten_db)


def link_snr(real: ChannelRealization, solution: BeamformingSolution,
             cfg: NetworkConfig, m: int):
    """Post-detection SNR of user m, per trial."""
    return link_gain(real, solution, cfg, m) * cfg.p_b / cfg.sigma2

