import math

import numpy as np
import pytest

from irislab import beamforming as bf
from irislab import geometry as geo


def _real(seed, M=2, K=3, N=8, **kw):
    cfg = geo.NetworkConfig(M=M, K=K, N=N, **kw)
    return geo.draw_channel(geo.stream(seed, 0), cfg), cfg


def test_stack_shape_and_entries():
    real, _ = _real(1, M=2, K=2, N=5)
    Hbar = bf.stack_interference_matrix(real)
    assert Hbar.shape == (4, 5)
    for m in range(2):
        for k in range(2):
            for n in range(5):
                want = real.G[m][k, n] * real.H[n, m]
                assert Hbar[m * 2 + k, n] == pytest.approx(want, rel=5e-16)


def test_stack_scalar_case():
    real = geo.ChannelRealization(
        H=np.array([[2.0 + 0j]]), G=np.array([[[3.0 + 0j]]]), d2=np.array([5.0]))
    assert bf.stack_interference_matrix(real) == pytest.approx(np.array([[6.0 + 0j]]))


def test_target_vector_values():
    real = geo.ChannelRealization(
        H=np.array([[3.0 + 0j]]), G=np.array([[[2.0 + 0j]]]), d2=np.array([5.0]))
    assert bf.target_vector(real) == pytest.approx(np.array([6.0]))
    ones = geo.ChannelRealization(
        H=np.ones((10, 1), complex), G=np.ones((1, 1, 10), complex), d2=np.array([5.0]))
    assert bf.target_vector(ones) == pytest.approx(np.array([10.0]))


def test_target_vector_dominates_coherent_sum():
    real, _ = _real(3)
    Hbar = bf.stack_interference_matrix(real)
    S = bf.target_vector(real)
    assert np.all(S >= np.abs(Hbar.sum(axis=1)) - 1e-12)


def test_solve_scalar_and_square():
    phi = bf.solve_passive_weights(np.array([[2.0 + 0j]]), np.array([6.0]))
    assert phi == pytest.approx(np.array([3.0 + 0j]))
    # N == MK: unique solve
    real, _ = _real(4, M=1, K=2, N=2)
    Hbar = bf.stack_interference_matrix(real)
    S = bf.target_vector(real)
    phi = bf.solve_passive_weights(Hbar, S)
    assert np.linalg.norm(Hbar @ phi - S) <= 1e-10 * np.linalg.norm(S)
    direct = np.linalg.solve(Hbar, S.astype(complex))
    assert phi == pytest.approx(direct, rel=1e-9)


def test_solve_minimum_norm_property():
    real, _ = _real(5, M=2, K=2, N=9)
    Hbar = bf.stack_interference_matrix(real)
    S = bf.target_vector(real)
    phi = bf.solve_passive_weights(Hbar, S)
    # project random vectors onto the homogeneous space and perturb
    rng = np.random.default_rng(0)
    pinv = np.linalg.pinv(Hbar)
    proj = np.eye(9) - pinv @ Hbar
    for _ in range(100):
        z = proj @ (rng.standard_normal(9) + 1j * rng.standard_normal(9))
        assert np.linalg.norm(phi + z) >= np.linalg.norm(phi) - 1e-9


def test_solve_rejects_underdetermined_and_rank_deficient():
    with pytest.raises(bf.RankDeficiencyError):
        bf.solve_passive_weights(np.ones((4, 3), complex), np.ones(4))
    degenerate = np.vstack([np.ones(5, complex), np.ones(5, complex)])
    with pytest.raises(bf.RankDeficiencyError):
        bf.solve_passive_weights(degenerate, np.array([1.0, 2.0]))


def test_normalize_weights():
    phi_v = np.array([0.3 + 0.1j, -0.2j])
    phi, beta = bf.normalize_weights(phi_v)
    assert beta == 1.0 and np.array_equal(phi, phi_v)
    phi_v = np.array([2.0 * np.exp(1j * np.pi / 3)])
    phi, beta = bf.normalize_weights(phi_v)
    assert beta == pytest.approx(2.0, rel=1e-15)
    assert phi[0] == pytest.approx(np.exp(1j * np.pi / 3), rel=1e-15)
    real, _ = _real(6)
    pv = bf.solve_passive_weights(bf.stack_interference_matrix(real), bf.target_vector(real))
    phi, beta = bf.normalize_weights(pv)
    assert np.max(np.abs(phi)) <= 1.0 + 1e-12
    assert beta >= 1.0


from hypothesis import given, strategies as st


@given(st.lists(st.floats(1e-6, 50.0), min_size=1, max_size=12),
       st.lists(st.floats(0.0, 2.0 * np.pi), min_size=12, max_size=12))
def test_normalize_weights_preserves_phases(mags, phases):
    phi_v = np.array([m * np.exp(1j * p) for m, p in zip(mags, phases)])
    phi, beta = bf.normalize_weights(phi_v)
    assert beta >= 1.0
    assert np.max(np.abs(phi)) <= 1.0 + 1e-12
    assert np.allclose(np.angle(phi), np.angle(phi_v))


def test_effective_channel_cophased_column():
    real, cfg = _real(7, M=2, K=3, N=8)
    Hbar = bf.stack_interference_matrix(real)
    S = bf.target_vector(real)
    phi, beta = bf.normalize_weights(bf.solve_passive_weights(Hbar, S))
    H_eff = bf.effective_channel(real, phi)
    for m in range(cfg.M):
        for k in range(cfg.K):
            want = S[m * cfg.K + k] / beta
            assert H_eff[m][k, m] == pytest.approx(want, rel=1e-9)
    zero = bf.effective_channel(real, np.zeros(cfg.N, complex))
    assert all(np.allclose(z, 0) for z in zero)


def test_detection_vector_pure_mrc_when_single_user():
    real, _ = _real(8, M=1, K=3, N=4)
    h = np.array([1.0 + 1j, 2.0, -1j])
    v = bf.detection_vector(h[:, None], 0)
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
    assert abs(v.conj() @ h) == pytest.approx(np.linalg.norm(h), rel=1e-12)


def test_detection_vector_orthogonal_complement():
    H = np.array([[1.0 + 0j, 0.7 + 0.2j], [0.0 + 0j, -1.1j]])
    v = bf.detection_vector(H, 1)   # null the first column (1, 0)^T
    assert abs(v[0]) <= 1e-12
    assert abs(abs(v[1]) - 1.0) <= 1e-12


def test_detection_vector_norm_identity():
    rng = np.random.default_rng(31)
    H = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    for m in range(3):
        v = bf.detection_vector(H, m)
        others = np.delete(H, m, axis=1)
        U, _, _ = np.linalg.svd(others)
        T = U[:, 2:]
        assert abs(v.conj() @ H[:, m]) ** 2 == pytest.approx(
            np.linalg.norm(T.conj().T @ H[:, m]) ** 2, rel=1e-10)
    with pytest.raises(ValueError):
        bf.detection_vector(np.ones((2, 3), complex), 0)


def test_link_snr_hand_case_and_linearity():
    real = geo.ChannelRealization(
        H=np.array([[1.0 + 0j]]), G=np.array([[[1.0 + 0j]]]), d2=np.array([1.0]))
    cfg = geo.NetworkConfig(M=1, K=1, N=1, ref_atten_db=0.0, p_b=2.0, sigma2=0.5)
    sol = bf.solve_beamforming(real, cfg)
    assert bf.link_snr(real, sol, cfg, 0) == pytest.approx(4.0, rel=1e-12)
    cfg2 = geo.NetworkConfig(M=1, K=1, N=1, ref_atten_db=0.0, p_b=4.0, sigma2=0.5)
    assert bf.link_snr(real, sol, cfg2, 0) == pytest.approx(8.0, rel=1e-12)


def test_zero_forcing_and_cophasing_invariants():
    cfg = geo.NetworkConfig(M=2, K=3, N=8)
    worst_interf, worst_resid, worst_imag = 0.0, 0.0, 0.0
    for trial in range(200):
        real = geo.draw_channel(geo.stream(99, trial), cfg)
        Hbar = bf.stack_interference_matrix(real)
        S = bf.target_vector(real)
        phi_v = bf.solve_passive_weights(Hbar, S)
        resid = np.linalg.norm(Hbar @ phi_v - S) / np.linalg.norm(S)
        worst_resid = max(worst_resid, resid)
        fitted = Hbar @ phi_v
        worst_imag = max(worst_imag, np.max(np.abs(fitted.imag) / np.maximum(fitted.real, 1e-30)))
        sol = bf.solve_beamforming(real, cfg)
        for m in range(cfg.M):
            for i in range(cfg.M):
                if i != m:
                    h_i = sol.H_eff[m][:, i]
                    worst_interf = max(
                        worst_interf,
                        abs(sol.V[m].conj() @ h_i) / np.linalg.norm(h_i))
    assert worst_resid <= 1e-9
    assert worst_imag <= 1e-9
    assert worst_interf <= 1e-8


def test_interference_power_negligible_after_detection():
    cfg = geo.NetworkConfig(M=3, K=4, N=14)
    real = geo.draw_channel(geo.stream(123, 0), cfg)
    sol = bf.solve_beamforming(real, cfg)
    for m in range(cfg.M):
        row = sol.V[m].conj() @ sol.H_eff[m]    # response to every stream
        signal = abs(row[m]) ** 2
        interference = float(np.sum(np.abs(np.delete(row, m)) ** 2))
        assert interference <= 1e-16 * signal


def test_link_equals_model_in_scalar_network():
    # M = K = N = 1: the weight is exactly e^{j phase}, beta_max = 1, and the
    # detected gain equals the co-phased product, so the link SNR is the
    # model's (|g||h|)^2 * path loss * p_b / sigma2
    cfg = geo.NetworkConfig(M=1, K=1, N=1)
    real = geo.draw_channel(geo.stream(7, 3), cfg)
    sol = bf.solve_beamforming(real, cfg)
    assert sol.beta_max == pytest.approx(1.0, rel=1e-12)
    gain = (abs(real.G[0, 0, 0]) * abs(real.H[0, 0])) ** 2
    pl = geo.path_loss(cfg.d1, real.d2[0], cfg.alpha, cfg.ref_atten_db)
    model = gain * pl * cfg.p_b / cfg.sigma2
    assert bf.link_snr(real, sol, cfg, 0) == pytest.approx(model, rel=1e-10)
