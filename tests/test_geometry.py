import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import special, stats as spstats

from irislab import geometry as geo
from irislab.analysis import PowerModel



class _FixedU:
    """Stub generator feeding prescribed uniforms to the inverse CDF."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size=None):
        return self.u if size is not None else float(self.u)


def test_config_invariants():
    with pytest.raises(ValueError):
        geo.NetworkConfig(M=2, K=1, N=4)          # K < M
    with pytest.raises(ValueError):
        geo.NetworkConfig(N=1, K=2, M=1)          # N < K
    with pytest.raises(ValueError):
        geo.NetworkConfig(r0=100.0, R=100.0)
    with pytest.raises(ValueError):
        geo.NetworkConfig(alpha=2.0)
    with pytest.raises(ValueError):
        geo.NetworkConfig(t1=0.3)
    cfg = geo.NetworkConfig(M=2, K=3, N=8)
    assert cfg.Q == 2
    assert cfg.solvable
    assert not geo.NetworkConfig(M=2, K=3, N=5).solvable


@pytest.mark.parametrize("name,value,detail", [
    ("N", 2.5, "N must be an integer, got 2.5"), ("K", 1.5, "K must be an integer, got 1.5"),
    ("N", 4.0, "N must be an integer, got 4.0"), ("N", True, "N must be a number, got True"),
    ("M", False, "M must be a number, got False"), ("t1", True, "t1 must be a number, got True"),
    ("R", "100", "R must be a number, got '100'"),
    ("R", Fraction(10 ** 400), "R must fit in a float, got a Fraction of 1329 bits")])
def test_config_counts_are_integers_and_fields_numbers(name, value, detail):
    # a bool is not a number and a fraction of an element is not an element
    with pytest.raises(ValueError) as caught:
        geo.NetworkConfig(**{"M": 1, "K": 2, "N": 4, name: value})
    assert str(caught.value) == detail
    assert geo.NetworkConfig(M=np.int64(1), K=2, N=4, R=np.float64(50.0)).N == 4


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls,name", [
    pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
    for cls in (geo.NetworkConfig, PowerModel)
    for f in dataclasses.fields(cls) if f.type in ("float", float)])
def test_every_float_field_rejects_nan(cls, name, value):
    required = dict(P_Bs=1.0, eps_b=1.2, P_U=0.01, P_L=0.01) if cls is PowerModel else {}
    cls(**required)
    with pytest.raises(ValueError, match=name) as caught:
        cls(**{**required, name: value})
    assert str(value) in str(caught.value)


def test_distance_inverse_cdf_endpoints():
    r = geo.sample_user_distance(_FixedU([0.0, 1.0 - 1e-12]), 100.0, 1.0, size=2)
    assert r[0] == pytest.approx(1.0, abs=1e-9)
    assert r[1] == pytest.approx(100.0, rel=1e-9)
    with pytest.raises(ValueError):
        geo.sample_user_distance(_FixedU([0.5]), 1.0, 2.0, size=1)


def test_distance_mean_matches_first_moment():
    # E[r] = 2 (R^3 - r0^3) / (3 (R^2 - r0^2)) = 66.6733 for (100, 1)
    rng = geo.stream(1234, 0)
    r = geo.sample_user_distance(rng, 100.0, 1.0, size=10 ** 6)
    assert r.mean() == pytest.approx(66.673267326732673, abs=0.1)
    assert r.min() >= 1.0 and r.max() <= 100.0


def test_distance_density_chi_square():
    rng = geo.stream(77, 1)
    r = geo.sample_user_distance(rng, 100.0, 1.0, size=200000)
    edges = np.linspace(1.0, 100.0, 21)
    observed, _ = np.histogram(r, bins=edges)
    cdf = (edges ** 2 - 1.0) / (100.0 ** 2 - 1.0)
    expected = len(r) * np.diff(cdf)
    _, p = spstats.chisquare(observed, expected)
    assert p > 0.01


from hypothesis import given, strategies as st


@given(st.floats(1.0, 200.0), st.floats(1.0, 200.0), st.floats(2.1, 4.5),
       st.floats(1.5, 4.0))
def test_path_loss_product_scaling(d1, d2, alpha, c):
    base = geo.path_loss(d1, d2, alpha, -30.0)
    assert geo.path_loss(d1, c * d2, alpha, -30.0) == pytest.approx(
        base * c ** (-alpha), rel=1e-12, abs=0.0)
    assert geo.path_loss(c * d1, d2, alpha, -30.0) == pytest.approx(
        geo.path_loss(d1, c * d2, alpha, -30.0), rel=1e-12, abs=0.0)


def test_path_loss_values():
    assert geo.path_loss(1.0, 1.0, 3.0, -30.0) == pytest.approx(1e-3, rel=1e-12, abs=0.0)
    assert geo.path_loss(0.5, 2.0, 3.7, 0.0) == pytest.approx(1.0, rel=1e-12)
    assert geo.path_loss(2.0, 5.0, 3.0, -30.0) == pytest.approx(1e-6, rel=1e-12, abs=0.0)
    with pytest.raises(ValueError):
        geo.path_loss(0.0, 1.0, 3.0, -30.0)
    with pytest.raises(ValueError):
        geo.path_loss(1.0, -1.0, 3.0, -30.0)


def test_nakagami_power_moments():
    rng = geo.stream(5, 0)
    x1 = geo.sample_nakagami_power(rng, 1.0, 10 ** 6)
    assert x1.mean() == pytest.approx(1.0, abs=0.005)
    x3 = geo.sample_nakagami_power(rng, 3.0, 10 ** 6)
    assert x3.var() == pytest.approx(1.0 / 3.0, abs=0.005)
    x50 = geo.sample_nakagami_power(rng, 50.0, 10 ** 5)
    assert x50.var() < 0.025
    with pytest.raises(ValueError):
        geo.sample_nakagami_power(rng, 0.4)


def test_nakagami_power_distribution_ks():
    # empirical CDF against P(t, t x), the distributional identity
    rng = geo.stream(6, 0)
    t = 2.3
    x = np.sort(geo.sample_nakagami_power(rng, t, 10 ** 6))
    model = special.gammainc(t, t * x[:: 1000])
    emp = (np.arange(len(x)) + 0.5)[:: 1000] / len(x)
    assert np.max(np.abs(model - emp)) < 0.002


def test_draw_channel_shapes_and_unit_mean():
    cfg = geo.NetworkConfig(M=2, K=3, N=6, t1=1.0, t2=1.0)
    powers = []
    for trial in range(1000):
        real = geo.draw_channel(geo.stream(9, trial), cfg)
        assert real.H.shape == (6, 2)
        assert len(real.G) == 2 and real.G[0].shape == (3, 6)
        assert np.all((real.d2 >= cfg.r0) & (real.d2 <= cfg.R))
        powers.append(np.abs(real.H) ** 2)
    assert np.mean(powers) == pytest.approx(1.0, abs=0.01)


def test_channel_entries_independent():
    cfg = geo.NetworkConfig(M=1, K=1, N=1, t1=2.0, t2=1.0)
    hs, gs = [], []
    rng = geo.stream(11, 0)
    for _ in range(10 ** 5):
        h2 = geo.sample_nakagami_power(rng, cfg.t1)
        g2 = geo.sample_nakagami_power(rng, cfg.t2)
        hs.append(h2)
        gs.append(g2)
    corr = np.corrcoef(hs, gs)[0, 1]
    assert abs(corr) < 0.01


def test_reproducibility_same_stream_key():
    cfg = geo.NetworkConfig(M=2, K=2, N=5)
    a = geo.draw_channel(geo.stream(42, 7), cfg)
    b = geo.draw_channel(geo.stream(42, 7), cfg)
    assert np.array_equal(a.H, b.H)
    assert all(np.array_equal(x, y) for x, y in zip(a.G, b.G))
    assert np.array_equal(a.d2, b.d2)
    c = geo.draw_channel(geo.stream(42, 8), cfg)
    assert not np.array_equal(a.H, c.H)


_KEY_SEEDS = (0, 3, 2 ** 32 - 1, 2 ** 32 + 5, 2 ** 70 + 3, 2 ** 130 + 7, np.uint64(2 ** 63 + 9))


# multi-word prefixes and a numpy-int seed: a miscounted hash call would show here
@pytest.mark.parametrize("prefix", [(), (11,), (13,), (14,), (2 ** 40,), (13, 2 ** 33)])
@pytest.mark.parametrize("seed", _KEY_SEEDS)
def test_philox_keys_equal_seed_sequence(seed, prefix):
    counters = list(range(3000)) + [2 ** 32 - 1]
    want = np.array([np.random.SeedSequence(seed, spawn_key=(*prefix, t)).generate_state(2, np.uint64)
                     for t in counters])
    got = geo.philox_keys(seed, prefix, counters)
    assert got.dtype == np.uint64 and got.shape == (len(counters), 2)
    assert np.array_equal(got, want)
    assert np.array_equal(got[-1], geo.stream(seed, *prefix, 2 ** 32 - 1).bit_generator.state["state"]["key"])


def test_philox_keys_reject_out_of_range_counters_and_seeds():
    for counters in ([2 ** 32], [0, 2 ** 40], [-1], [0.5]):
        with pytest.raises(ValueError, match="counters"):
            geo.philox_keys(1, (13,), counters)
    for seed, prefix in ((-1, (13,)), (1, (-13,))):
        with pytest.raises(ValueError, match="non-negative"):
            geo.philox_keys(seed, prefix, range(3))
    assert geo.philox_keys(1, (13,), range(0)).shape == (0, 2)


def test_draw_channel_rejects_a_generator_list():
    with pytest.raises(ValueError, match="key stack"):
        geo.draw_channel([geo.stream(1, 0)], geo.NetworkConfig())
