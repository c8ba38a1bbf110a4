import math
import multiprocessing
import os
import signal
import subprocess
import sys
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from irislab import analysis as an
from irislab import beamforming as bf
from irislab import geometry as geo
from irislab import montecarlo as mc


def _cfg(**kw):
    base = dict(M=1, K=1, N=2, t1=2.0, t2=1.0, p_b=1.0)
    base.update(kw)
    return geo.NetworkConfig(**base)


def test_plan_validation():
    with pytest.raises(ValueError):
        mc.TrialPlan(trials=0, master_seed=1)
    for trials, seed in ((10, -1), (10, True), (10, 1.0), (10, "7"), (10.0, 1), (True, 1)):
        with pytest.raises(ValueError, match="trials|master_seed"):
            mc.TrialPlan(trials=trials, master_seed=seed)
    assert mc.TrialPlan(trials=np.int64(10), master_seed=2 ** 70).master_seed == 2 ** 70
    with pytest.raises(ValueError, match="unknown fidelity 'magic'"):
        mc.simulate_op(mc.TrialPlan(trials=10, master_seed=1), _cfg(), fidelity="magic")


def test_op_trivial_limits():
    plan = mc.TrialPlan(trials=5000, master_seed=3)
    zero_rate = _cfg(R_m=0.0)
    assert mc.simulate_op(plan, zero_rate).mean == 0.0
    starved = _cfg(p_b=1e-30)
    assert mc.simulate_op(plan, starved).mean == 1.0


def test_op_determinism_and_worker_invariance():
    plan = mc.TrialPlan(trials=30000, master_seed=12345)
    cfg = _cfg(p_b=0.01)
    a = mc.simulate_op(plan, cfg)
    b = mc.simulate_op(plan, cfg)
    assert a == b
    c = mc.simulate_op(plan, cfg, n_workers=3)
    assert a == c


def test_rate_determinism_and_worker_invariance():
    plan = mc.TrialPlan(trials=30000, master_seed=5)
    cfg = _cfg(N=4)
    a = mc.simulate_ergodic_rate(plan, cfg)
    b = mc.simulate_ergodic_rate(plan, cfg, n_workers=4)
    assert a == b


def test_link_level_matches_manual_single_trial():
    cfg = _cfg(M=2, K=3, N=8)
    plan = mc.TrialPlan(trials=1, master_seed=777)
    est = mc.simulate_ergodic_rate(plan, cfg, fidelity="link_level")
    gen = geo.stream(777, mc._TAG_LINK, 0)
    real = geo.draw_channel(gen, cfg)
    sol = bf.solve_beamforming(real)
    want = math.log2(1.0 + bf.link_snr(real, sol, cfg, 0))
    assert est.mean == want
    assert est.trials_used == 1


def _reference_trial(gen, cfg):
    """User 0's ``gain * path loss`` of one trial, computed the per-trial way.

    Lists of matrices, one lstsq and one SVD, numpy scalars: the link-level
    pipeline before it was batched, on the first draw of ``gen``.
    """
    M, K, N = cfg.M, cfg.K, cfg.N

    def fading(t, shape):
        power = gen.gamma(t, 1.0 / t, shape)
        return np.sqrt(power) * np.exp(1j * gen.uniform(0.0, 2.0 * np.pi, shape))

    d2 = np.sqrt(cfg.r0 ** 2 + gen.random(M) * (cfg.R ** 2 - cfg.r0 ** 2))
    H = fading(cfg.t1, (N, M))
    G = [fading(cfg.t2, (K, N)) for _ in range(M)]
    Hbar = np.vstack([G[m] * H[:, m][np.newaxis, :] for m in range(M)])
    S = np.concatenate([np.abs(G[m]) @ np.abs(H[:, m]) for m in range(M)])
    phi_v, _, rank, _ = np.linalg.lstsq(Hbar, S.astype(complex), rcond=1e-10)
    assert rank == M * K
    phi = phi_v / max(1.0, float(np.max(np.abs(phi_v))))
    H_eff = G[0] @ (phi[:, np.newaxis] * H)
    h = H_eff[:, 0]
    if M == 1:
        T = np.eye(K, dtype=complex)
    else:
        T = np.linalg.svd(np.delete(H_eff, 0, axis=1), full_matrices=True)[0][:, M - 1:]
    x = T.conj().T @ h
    v = T @ (x / np.linalg.norm(x))
    pl = 10.0 ** (cfg.ref_atten_db / 10.0) * (cfg.d1 * np.asarray(d2[0])) ** (-cfg.alpha)
    return np.abs(v.conj() @ h) ** 2 * pl


def _reference_values(bases, cfg, p_b):
    return [math.log2(1.0 + float(b * p_b / cfg.sigma2)) for b in bases]


_LINK_CASES = [(1, 1, 1), (2, 3, 6), (2, 2, 4), (3, 3, 9)]


@pytest.mark.parametrize("M,K,N", _LINK_CASES)
def test_key_stack_draws_equal_per_trial_streams(M, K, N):
    cfg = _cfg(M=M, K=K, N=N)
    seed, trials = 60 + M, range(5, 205)
    stacked = geo.draw_channel(geo.philox_keys(seed, (mc._TAG_LINK,), trials), cfg)
    for i, t in enumerate(trials):
        one = geo.draw_channel(geo.stream(seed, mc._TAG_LINK, t), cfg)
        for a, b in ((stacked.H[i], one.H), (stacked.G[i], one.G), (stacked.d2[i], one.d2)):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("M,K,N", _LINK_CASES)
def test_link_values_equal_per_trial_reference(M, K, N):
    cfg = _cfg(M=M, K=K, N=N, p_b=1e-3)
    plan = mc.TrialPlan(trials=300, master_seed=40 + M * 10)
    bases, deg = mc._link_chunk(plan, cfg, 0, plan.trials)
    assert deg == 0
    want = [_reference_trial(geo.stream(plan.master_seed, mc._TAG_LINK, t), cfg)
            for t in range(plan.trials)]
    assert bases.tolist() == [float(w) for w in want]
    got = mc.simulate_ergodic_rate(plan, cfg, fidelity="link_level")
    assert got.mean == math.fsum(_reference_values(want, cfg, cfg.p_b)) / plan.trials


def test_link_power_axis_across_chunks_blocks_and_workers():
    cfg = _cfg(M=2, K=3, N=6)
    plan = mc.TrialPlan(trials=_ODD_TRIALS, master_seed=17)
    powers = [1e-4, 1e-2]
    ops = {w: mc.simulate_op_axis(plan, cfg, powers, n_workers=w, fidelity="link_level")
           for w in (1, 2)}
    rates = {w: mc.simulate_ergodic_rate_axis(plan, cfg, powers, n_workers=w,
                                              fidelity="link_level") for w in (1, 2)}
    assert ops[1] == ops[2] and rates[1] == rates[2]
    bases = [_reference_trial(geo.stream(plan.master_seed, mc._TAG_LINK, t), cfg)
             for t in range(plan.trials)]
    for p_b, op, rate in zip(powers, ops[1], rates[1]):
        vals = _reference_values(bases, cfg, p_b)
        assert rate.mean == math.fsum(vals) / plan.trials
        assert op.mean == sum(v < cfg.R_m for v in vals) / plan.trials
        assert op == mc.simulate_op(plan, replace(cfg, p_b=p_b), fidelity="link_level")


def test_rank_deficient_draw_is_redrawn_from_its_own_stream(monkeypatch):
    cfg = _cfg(M=2, K=3, N=6, p_b=1e-3)
    plan = mc.TrialPlan(trials=5, master_seed=23)
    solve = bf.solve_passive_weights
    calls = []

    def first_two_reject_trial_3(Hbar, S):
        calls.append(len(Hbar))
        if len(calls) <= 2:
            raise bf.RankDeficiencyError("rejected", [(3,)])
        return solve(Hbar, S)

    monkeypatch.setattr(bf, "solve_passive_weights", first_two_reject_trial_3)
    est = mc.simulate_ergodic_rate(plan, cfg, fidelity="link_level")
    assert calls == [5, 5, 5]
    assert est.degenerate_draws == 2
    # trial 3 keeps its second redraw: the first draw of the stream keyed by attempt 2
    keys = [(2, t) if t == 3 else (t,) for t in range(plan.trials)]
    bases = [_reference_trial(geo.stream(plan.master_seed, mc._TAG_LINK, *k), cfg) for k in keys]
    assert est.mean == math.fsum(_reference_values(bases, cfg, cfg.p_b)) / plan.trials


def test_rank_deficiency_beyond_64_redraws_raises(monkeypatch):
    # all but the largest singular value fall below rcond * s_max: rank 1 < MK = 2
    monkeypatch.setattr(bf, "_RANK_RCOND", 0.999)
    draws = []
    real_draw = mc.draw_channel
    monkeypatch.setattr(mc, "draw_channel", lambda g, c: draws.append(g) or real_draw(g, c))
    plan = mc.TrialPlan(trials=3, master_seed=5)
    with pytest.raises(bf.RankDeficiencyError):
        mc.simulate_op(plan, _cfg(M=1, K=2, N=3), fidelity="link_level")
    # the stack, then per trial 64 redraws, each from its own one-key stack
    assert len(draws) == 1 + 3 * 64


def test_redraws_come_from_key_stacks_whatever_the_chunking(monkeypatch):
    # trial 3's draw and its first redraw are rejected; no link draw opens a stream
    cfg = _cfg(M=2, K=3, N=6, p_b=1e-3)
    plan = mc.TrialPlan(trials=7, master_seed=29)
    rejected = {bf.stack_interference_matrix(
        geo.draw_channel(geo.stream(plan.master_seed, mc._TAG_LINK, *k), cfg)).tobytes()
        for k in ((3,), (1, 3))}
    solve = bf.solve_passive_weights

    def reject_listed_draws(Hbar, S):
        listed = [(j,) for j in range(len(Hbar)) if Hbar[j].tobytes() in rejected]
        if listed:
            raise bf.RankDeficiencyError("rejected", listed)
        return solve(Hbar, S)

    def no_stream(*key):
        raise AssertionError(f"the link engine opened stream {key}")

    monkeypatch.setattr(bf, "solve_passive_weights", reject_listed_draws)
    monkeypatch.setattr(mc, "stream", no_stream)
    ests = []
    for chunk in (2, 512):
        monkeypatch.setattr(mc, "_CHUNK", chunk)
        ests.append(mc.simulate_ergodic_rate(plan, cfg, fidelity="link_level"))
    assert ests[0] == ests[1]
    assert ests[0].degenerate_draws == 2


def test_link_level_requires_solvable_geometry():
    plan = mc.TrialPlan(trials=10, master_seed=1)
    with pytest.raises(ValueError):
        mc.simulate_op(plan, _cfg(M=2, K=3, N=5), fidelity="link_level")


def test_link_level_degenerate_fraction_small():
    cfg = _cfg(M=2, K=2, N=5)    # N >= MK + 1
    plan = mc.TrialPlan(trials=20000, master_seed=8)
    est = mc.simulate_op(plan, cfg, fidelity="link_level")
    assert est.degenerate_draws / est.trials_used < 1e-4


def test_op_model_matches_closed_form_deep_window():
    # at OP ~ 1e-5 the tail model is honest; 3 standard errors covers it
    cfg = _cfg(p_b=1e-3 * 10 ** 0.8)
    plan = mc.TrialPlan(trials=10 ** 6, master_seed=42)
    est = mc.simulate_op(plan, cfg)
    want = an.op_closed_form(cfg)
    assert abs(est.mean - want) <= 3.0 * est.std_error


def test_rate_model_vs_gamma_quadrature_with_band():
    # the Gamma model is a lower bound; the documented band is 3 se + 10%
    cfg = _cfg(N=8, p_b=5000.0)
    plan = mc.TrialPlan(trials=2 * 10 ** 5, master_seed=31)
    est = mc.simulate_ergodic_rate(plan, cfg)
    want = an.ergodic_rate_quadrature(cfg)
    assert est.mean >= want - 3.0 * est.std_error          # lower bound
    assert abs(est.mean - want) <= 3.0 * est.std_error + 0.10 * want


@pytest.fixture
def pools(monkeypatch):
    """Worker counts of the pools the engines construct, from no cached pool on."""
    sizes = []

    class RecordingPool(mc.ProcessPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            sizes.append(max_workers)

    mc._drop_pool()
    monkeypatch.setattr(mc, "ProcessPoolExecutor", RecordingPool)
    yield sizes
    mc._drop_pool()


def test_worker_count_is_checked_and_capped(pools):
    cfg = _cfg(p_b=0.01)
    one_block = mc.TrialPlan(trials=mc.BLOCK, master_seed=3)
    three_blocks = mc.TrialPlan(trials=_ODD_TRIALS, master_seed=3)
    serial = {p: mc.simulate_op(p, cfg) for p in (one_block, three_blocks)}
    assert mc.simulate_op(one_block, cfg, n_workers=64) == serial[one_block]
    assert pools == []                          # a single block runs in this process
    assert mc.simulate_op(three_blocks, cfg, n_workers=64) == serial[three_blocks]
    assert mc.optimal_power_split("df", three_blocks, _rc(), grid=[0.5], n_workers=2)
    assert pools == [3, 2]                      # split search: both passes on one pool
    for bad in (0, -3):
        with pytest.raises(ValueError, match=f"n_workers must be >= 1, got {bad}"):
            mc.simulate_op(one_block, cfg, n_workers=bad)
    assert pools == [3, 2]


def test_consecutive_calls_share_one_pool(pools):
    plan = mc.TrialPlan(trials=_ODD_TRIALS, master_seed=7)
    cfg = _cfg(N=3)
    assert mc.simulate_op(plan, cfg, n_workers=2) == mc.simulate_op(plan, cfg)
    assert (mc.simulate_ergodic_rate_axis(plan, cfg, _POWERS, n_workers=2)
            == mc.simulate_ergodic_rate_axis(plan, cfg, _POWERS))
    assert pools == [2]


def test_new_worker_count_replaces_the_pool(pools):
    plan = mc.TrialPlan(trials=_ODD_TRIALS, master_seed=7)
    cfg = _cfg(N=3)
    want = mc.simulate_op(plan, cfg)
    assert mc.simulate_op(plan, cfg, n_workers=2) == want
    old = multiprocessing.active_children()
    assert len(old) == 2
    assert mc.simulate_op(plan, cfg, n_workers=3) == want
    assert pools == [2, 3]
    assert not any(p.is_alive() for p in old)
    new = multiprocessing.active_children()
    assert len(new) == 3 and not {p.pid for p in new} & {p.pid for p in old}


_TEST_PID = os.getpid()


def _sigkill_own_worker(blk):
    """A block function whose worker dies on the first block."""
    if os.getpid() == _TEST_PID:
        raise RuntimeError("the block ran in the test process, not in a pool worker")
    if blk[0] == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return blk[0]


def test_killed_worker_breaks_its_call_and_the_next_call_forks_a_new_pool(pools):
    with pytest.raises(BrokenProcessPool):
        mc._run_blocks(_sigkill_own_worker, _ODD_TRIALS, 2)
    plan = mc.TrialPlan(trials=_ODD_TRIALS, master_seed=7)
    cfg = _cfg(N=3)
    assert mc.simulate_op(plan, cfg, n_workers=2) == mc.simulate_op(plan, cfg)
    assert pools == [2, 2]


def _run_script(body):
    """Standard output of a fresh interpreter that runs ``body`` after a prelude.

    On a timeout its whole process group is killed, left workers included.
    """
    code = ("import multiprocessing\n"
            "from irislab import geometry, montecarlo\n"
            "cfg = geometry.NetworkConfig(M=1, K=1, N=2, t1=2.0, t2=1.0, p_b=1.0)\n"
            f"plan = montecarlo.TrialPlan(trials={_ODD_TRIALS}, master_seed=3)\n" + body)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    with subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:       # left workers keep the pipes open
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    assert proc.returncode == 0, err
    return out


def test_pool_workers_are_joined_at_interpreter_exit():
    pids = [int(pid) for pid in _run_script(
        "montecarlo.simulate_op(plan, cfg, n_workers=2)\n"
        "print(*(p.pid for p in multiprocessing.active_children()))\n").split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_forked_child_starts_its_own_pool_and_exits():
    # the child inherits the pool but not the threads that serve it, and a
    # multiprocessing child joins its children before the interpreter's exit hooks
    out = _run_script(
        "want = montecarlo.simulate_op(plan, cfg, n_workers=2)\n"
        "ctx = multiprocessing.get_context('fork')\n"
        "reader, writer = ctx.Pipe(duplex=False)\n"
        "child = ctx.Process(target=lambda: writer.send(\n"
        "    montecarlo.simulate_op(plan, cfg, n_workers=2)))\n"
        "child.start()\n"
        "print(reader.poll(30) and reader.recv() == want)\n"
        "child.join(30)\n"
        "print(child.exitcode)\n"
        "if child.is_alive():\n"
        "    child.kill()\n")
    assert out.split() == ["True", "0"]


def test_fsum_of_list_equals_fsum_of_array():
    rng = np.random.default_rng(4)
    for _ in range(20):
        vals = rng.standard_normal(4096) * 10.0 ** rng.integers(-300, 300, 4096)
        vals[::7] = -vals[::5][: len(vals[::7])]        # exact cancellations
        assert mc._fsum(vals) == math.fsum(vals)
    assert mc._fsum(np.array([1e308, 1.0, -1e308, 1e-308])) == math.fsum([1.0, 1e-308])


def _assert_fsum_of_list(vals):
    """``_fsum`` is ``math.fsum(vals.tolist())`` bit for bit, errors included,
    and leaves ``vals`` as it was."""
    vals = np.array(vals, dtype=float)
    before = vals.tobytes()
    try:
        want = math.fsum(vals.tolist())
    except (OverflowError, ValueError) as e:
        with pytest.raises(type(e)):
            mc._fsum(vals)
    else:
        assert float.hex(mc._fsum(vals)) == float.hex(want)
    assert vals.tobytes() == before


_ANY_FLOAT = st.one_of(st.floats(), st.floats(-1e6, 1e6), st.floats(-1e-300, 1e-300),
                       st.integers(-1074, 1023).map(lambda k: math.ldexp(1.0, k)),
                       st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0 ** -53, 2.0 ** 900]))


@given(st.lists(_ANY_FLOAT, min_size=1, max_size=300), st.booleans())
def test_fsum_matches_fsum_of_list_on_any_floats(vals, cancel):
    _assert_fsum_of_list(vals + [-v for v in vals] if cancel else vals)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 1000, mc.BLOCK - 1, mc.BLOCK, 5000])
def test_fsum_matches_fsum_of_list_on_random_blocks(n):
    rng = np.random.default_rng(n)
    rates = np.log2(1.0 + rng.gamma(2.0, 3.0, n) * 10.0 ** rng.uniform(-6.0, 3.0, n))
    normals = rng.standard_normal(n)
    for vals in (rates, rates * rates, normals, normals * 10.0 ** rng.integers(-30, 30, n),
                 normals * 2.0 ** rng.integers(-1074, -1000, n), normals * 1e-300,
                 np.concatenate([normals * 1e16, -normals * 1e16, normals])):
        _assert_fsum_of_list(vals)


@pytest.mark.parametrize("vals", [
    [1.5], [-0.0], [0.0], [5e-324], [2.0 ** 900], [2.0 ** 901], [2.0 ** -900], [2.0 ** -901],
    [-0.0, -0.0], [1e16, 1.0, -1e16], [1.0, -1.0], [-0.0, 3.0, -3.0],        # cancellations
    [1.0, 2.0 ** -53], [1.0 + 2.0 ** -52, 2.0 ** -53], [1.0, 2.0 ** -53, 2.0 ** -106],
    [1.0, 2.0 ** -53, -2.0 ** -106], [-1.0, -(2.0 ** -53)],                  # ties
    [2.0 ** 900, 1.0, 2.0 ** -60],                                           # cutoffs
    [math.nextafter(2.0 ** 900, math.inf), 1.0, -(2.0 ** 900)],
    [2.0 ** -900, 2.0 ** -953, 2.0 ** -1074], [2.0 ** -901, 2.0 ** -1074],
    list(2.0 ** np.arange(-890.0, 890.0, 7.0) * (-1.0) ** np.arange(255)),   # many rounds
    [1e308, 1e308], [math.inf, -math.inf],            # OverflowError, ValueError
    [math.inf, 1.0], [math.nan, 1.0]])
def test_fsum_matches_fsum_of_list_on_edge_cases(vals):
    _assert_fsum_of_list(vals)


# a trial count that is not a multiple of BLOCK: two full blocks and one trial
_ODD_TRIALS = 2 * mc.BLOCK + 1
_POWERS = [1e-4, 1e-3, 0.01, 0.1, 1.0]


@pytest.mark.parametrize("n_workers", [1, 2])
def test_power_axis_equals_per_power_calls(n_workers):
    plan = mc.TrialPlan(trials=_ODD_TRIALS, master_seed=21)
    cfg = _cfg(M=1, K=2, N=3)
    ops = mc.simulate_op_axis(plan, cfg, _POWERS, n_workers=n_workers)
    rates = mc.simulate_ergodic_rate_axis(plan, cfg, _POWERS, n_workers=n_workers)
    assert len(ops) == len(rates) == len(_POWERS)
    for p_b, op, rate in zip(_POWERS, ops, rates):
        assert op == mc.simulate_op(plan, replace(cfg, p_b=p_b))
        assert rate == mc.simulate_ergodic_rate(plan, replace(cfg, p_b=p_b))
    squared = mc.simulate_op_axis(plan, cfg, _POWERS, n_workers=n_workers, gain="squared")
    for p_b, est in zip(_POWERS, squared):
        assert est == mc.simulate_op_axis(plan, cfg, [p_b], gain="squared")[0]


def _whole_block_draws(gen, cfg, nb, rows):
    """A model-level block's distances, BS-side and user-side amplitudes, each in one draw."""
    r = geo.sample_user_distance(gen, cfg.R, cfg.r0, nb)
    h = np.sqrt(geo.sample_nakagami_power(gen, cfg.t1, (nb, cfg.N)))
    g = np.sqrt(geo.sample_nakagami_power(gen, cfg.t2, (nb, rows, cfg.N)))
    return r, h, g


def test_squared_gain_outage_matches_loop_reference():
    # reference: threshold the squared combining gain of the rate engine's draws
    plan = mc.TrialPlan(trials=_ODD_TRIALS, master_seed=8)
    cfg = _cfg(M=1, K=3, N=4)
    got = mc.simulate_op_axis(plan, cfg, _POWERS, gain="squared")
    for p_b, est in zip(_POWERS, got):
        count = 0.0
        for bi, lo, hi in mc._block_ranges(plan.trials):
            gen = geo.stream(plan.master_seed, mc._TAG_RATE_MODEL, bi)
            r, h, g = _whole_block_draws(gen, cfg, hi - lo, cfg.Q)
            s = (g * h[:, np.newaxis, :]).sum(axis=2)
            gain = (s ** 2).sum(axis=1)
            pl = cfg.ref_atten_lin * (cfg.d1 * r) ** (-cfg.alpha)
            snr = gain * pl * p_b / (cfg.Q * cfg.sigma2)
            count += float((np.log2(1.0 + snr) < cfg.R_m).sum())
        mean = count / plan.trials
        assert est.mean == mean
        assert est.std_error == math.sqrt(max(mean * (1.0 - mean), 0.0) / plan.trials)
    with pytest.raises(ValueError):
        mc.simulate_op_axis(plan, cfg, _POWERS, gain="cubed")
    with pytest.raises(ValueError):        # a model-level event only
        mc.simulate_op_axis(plan, cfg, _POWERS, gain="squared", fidelity="link_level")


def _whole_block_parts(plan, cfg, powers, squared, outage, blk):
    """``mc._model_block``'s aggregates, from whole-block draws, as ``float.hex``."""
    bi, lo, hi = blk
    gen = geo.stream(plan.master_seed, mc._TAG_RATE_MODEL if squared else mc._TAG_OP_MODEL, bi)
    r, h, g = _whole_block_draws(gen, cfg, hi - lo, cfg.Q if squared else 1)
    s = (g * h[:, np.newaxis, :]).sum(axis=2)
    gain = (s ** 2).sum(axis=1) if squared else s[:, 0]
    base = gain * (cfg.ref_atten_lin * (cfg.d1 * r) ** (-cfg.alpha))
    parts = []
    for p_b in powers:
        vals = np.log2(1.0 + base * p_b / (cfg.Q * cfg.sigma2))
        if outage:
            parts.append((float((vals < cfg.R_m).sum()).hex(), 0.0.hex()))
        else:
            parts.append((math.fsum(vals.tolist()).hex(), math.fsum((vals * vals).tolist()).hex()))
    return parts


# (value budget, M, K, N): with a budget of 60, the squared gain's rows * N
# is 12, 60 and 75 (below, at and above it: sub-blocks of 5, 1 and 1 trials)
# and the amplitude's 4, 20 and 25 (15, 3 and 2 trials); op_fading_sweep's
# shape under the module's own budget takes 655 and 6553 (one pass)
@pytest.mark.parametrize("budget, M, K, N", [
    (60, 1, 3, 4), (60, 1, 3, 20), (60, 1, 3, 25), (mc._GAIN_BUDGET, 1, 10, 10)])
@pytest.mark.parametrize("blk", [(0, 0, mc.BLOCK), (0, 0, 1),
                                 mc._block_ranges(_ODD_TRIALS)[-1]])
@pytest.mark.parametrize("squared, outage", [(False, True), (True, True), (True, False)])
def test_sub_blocked_model_block_equals_whole_block_draws(monkeypatch, budget, M, K, N,
                                                          blk, squared, outage):
    monkeypatch.setattr(mc, "_GAIN_BUDGET", budget)
    draws = []

    def counting(gen, t, size):
        draws.append(size)
        return geo.sample_nakagami_power(gen, t, size)
    monkeypatch.setattr(mc, "sample_nakagami_power", counting)
    plan = mc.TrialPlan(trials=_ODD_TRIALS, master_seed=29)
    cfg = _cfg(M=M, K=K, N=N, t1=2.5, t2=1.5)
    got = mc._model_block(plan, cfg, _POWERS, squared, outage, blk)
    assert [(a.hex(), b.hex()) for a, b, _ in got] == _whole_block_parts(
        plan, cfg, _POWERS, squared, outage, blk)
    assert all(deg == 0 for *_, deg in got)
    nb, rows = blk[2] - blk[1], cfg.Q if squared else 1
    sub = max(1, budget // (rows * N))
    assert len(draws) == 1 + -(-nb // sub)      # BS side, then each sub-block
    assert sum(math.prod(d) for d in draws[1:]) == nb * rows * N


@pytest.mark.parametrize("N, limit_mib", [(10, 2.0), (128, 8.0)])
def test_model_block_peak_memory_is_bounded(N, limit_mib):
    # op_fading_sweep's shape (M=1, K=10, N=10), one full block, squared gain.
    # Measured tracemalloc peaks: 1.66 MiB at N=10 and 5.3 MiB at N=128, where
    # whole-block draws held 6.9 and 84 MiB
    plan = mc.TrialPlan(trials=mc.BLOCK, master_seed=3)
    cfg = _cfg(M=1, K=10, N=N)
    powers = [10.0 ** (dbm / 10.0) / 1000.0 for dbm in range(-20, 15, 5)]
    tracemalloc.start()
    try:
        mc._model_block(plan, cfg, powers, True, True, (0, 0, mc.BLOCK))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2 ** 20


def test_power_axis_draws_once_per_block(monkeypatch):
    keys = []
    real_stream = mc.stream

    def counting_stream(seed, *key):
        keys.append(key)
        return real_stream(seed, *key)

    monkeypatch.setattr(mc, "stream", counting_stream)
    plan = mc.TrialPlan(trials=_ODD_TRIALS, master_seed=3)
    mc.simulate_op_axis(plan, _cfg(), _POWERS)
    mc.optimal_power_split("df_min_of_means", plan, _rc())
    n_blocks = len(mc._block_ranges(plan.trials))
    # the split search: one pass for every split, one more for the candidates
    assert len(keys) == n_blocks + 2 * n_blocks
    assert len(set(keys)) == 2 * n_blocks


# ---------------------------------------------------------------------------
# Relays
# ---------------------------------------------------------------------------

def _rc(**kw):
    base = dict(t1=3.0, t2=1.0, d1=25.0, p_b=1.0)
    base.update(kw)
    return geo.NetworkConfig(**base)


def test_relay_rate_vanishes_without_power():
    plan = mc.TrialPlan(trials=20000, master_seed=2)
    rc = _rc(p_b=1e-30)
    assert mc.af_relay_rate(plan, rc, 0.5).mean < 1e-9
    assert mc.df_relay_rate(plan, rc, 0.5).mean < 1e-9
    # second hop starves when nearly all power stays at the BS
    rc2 = _rc(p_b=1.0)
    assert mc.df_relay_rate(plan, rc2, 0.99).mean < mc.df_relay_rate(plan, rc2, 0.5).mean


def test_relay_split_validation():
    plan = mc.TrialPlan(trials=10, master_seed=2)
    with pytest.raises(ValueError):
        mc.af_relay_rate(plan, _rc(), 0.0)
    with pytest.raises(ValueError):
        mc.df_relay_rate(plan, _rc(), 1.0)


def test_af_noise_amplification_term_hurts():
    # dropping the forwarded-noise term can only increase the rate, per draw
    plan = mc.TrialPlan(trials=40000, master_seed=6)
    rc = _rc()
    for blk in mc._block_ranges(2048):
        g1, g2 = mc._relay_draws(rc, plan.master_seed, blk)
        pb = pd = 0.5 * rc.p_b
        eps_a = pd / (pb * g1)
        with_noise = eps_a * g1 * g2 * pb / (rc.sigma2 * (1.0 + eps_a * g2))
        without = eps_a * g1 * g2 * pb / rc.sigma2
        assert np.all(without >= with_noise)
        assert np.mean(np.log2(1 + without)) > np.mean(np.log2(1 + with_noise))


def test_df_dominates_af_on_matched_draws():
    plan = mc.TrialPlan(trials=50000, master_seed=7)
    rc = _rc(p_b=10.0)
    af = mc.af_relay_rate(plan, rc, 0.5)
    df = mc.df_relay_rate(plan, rc, 0.5)
    assert df.mean >= af.mean


def _one_split(scheme, plan, rc, split, n_workers=1):
    """The scheme's ``Estimate`` at one split, as the split search reduces it."""
    return mc._relay_estimates(scheme, plan, rc, [split], n_workers)[0]


def test_df_min_of_means_variant():
    plan = mc.TrialPlan(trials=50000, master_seed=7)
    rc = _rc()
    per_draw = mc.df_relay_rate(plan, rc, 0.5)
    mom = _one_split("df_min_of_means", plan, rc, 0.5)
    assert mom.mean >= per_draw.mean      # Jensen direction


def test_df_hops_balance_in_symmetric_setup():
    # relay at the mean user distance with equal fading: hops within 10%
    plan = mc.TrialPlan(trials=10 ** 5, master_seed=11)
    rc = _rc(t1=1.0, t2=1.0, d1=66.673267326732673)
    r1 = _one_split("df_min_of_means", plan, rc, 0.5)
    # recompute each hop separately for the comparison
    hop1, hop2 = 0.0, 0.0
    for blk in mc._block_ranges(plan.trials):
        g1, g2 = mc._relay_draws(rc, plan.master_seed, blk)
        hop1 += float(np.sum(0.5 * np.log2(1 + 0.5 * rc.p_b * g1 / rc.sigma2)))
        hop2 += float(np.sum(0.5 * np.log2(1 + 0.5 * rc.p_b * g2 / rc.sigma2)))
    m1, m2 = hop1 / plan.trials, hop2 / plan.trials
    assert abs(m1 - m2) <= 0.10 * max(m1, m2)
    assert r1.mean == pytest.approx(min(m1, m2), rel=1e-9)


def test_optimal_split_properties():
    plan = mc.TrialPlan(trials=30000, master_seed=13)
    rc = _rc(t1=1.0, t2=1.0, d1=66.673267326732673)
    split, best = mc.optimal_power_split("df", plan, rc)
    assert abs(split - 0.5) <= 0.05
    assert best.mean >= mc.df_relay_rate(plan, rc, 0.5).mean
    # weaker first hop pulls power toward the BS side
    far = _rc(t1=1.0, t2=1.0, d1=90.0)
    split_far, _ = mc.optimal_power_split("df", plan, far)
    assert split_far > 0.5


def _loop_split_search(scheme, plan, rc, grid):
    """Reference: one full evaluation per split, first strictly greater mean wins."""
    best_split, best = None, None
    for split in grid:
        est = _one_split(scheme, plan, rc, float(split))
        if best is None or est.mean > best.mean:
            best_split, best = float(split), est
    return best_split, best


_SCHEMES = ["af", "df", "df_min_of_means"]


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("scheme", _SCHEMES)
def test_split_grid_equals_per_split_calls(scheme, n_workers):
    plan = mc.TrialPlan(trials=_ODD_TRIALS, master_seed=17)
    rc = _rc(p_b=0.1)
    grid = np.round(np.arange(0.05, 1.0, 0.05), 2)
    got = mc.optimal_power_split(scheme, plan, rc, grid=grid, n_workers=n_workers)
    assert got == _loop_split_search(scheme, plan, rc, grid)
    assert _one_split(scheme, plan, rc, 0.3, n_workers) == _one_split(scheme, plan, rc, 0.3)
    engine = {"af": mc.af_relay_rate, "df": mc.df_relay_rate}.get(scheme)
    if engine is not None:
        assert engine(plan, rc, 0.3, n_workers) == _one_split(scheme, plan, rc, 0.3)


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("scheme", _SCHEMES)
@pytest.mark.parametrize("p_b,grid", [
    (0.1, [0.3, 0.45, 0.3, 0.6, 0.3]),                      # the winner, three times
    (1e-30, np.round(np.arange(0.05, 1.0, 0.05), 2)),       # every rate is 0.0
    (0.1, None),                                            # flatter than the sums' error
])
def test_split_search_ties_and_flat_grids_equal_per_split_calls(scheme, n_workers, p_b, grid):
    plan = mc.TrialPlan(trials=_ODD_TRIALS, master_seed=17)
    rc = _rc(p_b=p_b)
    if grid is None:
        # 1e-15 apart at the optimum, the means differ by less than a numpy
        # block sum's rounding, and for AF and DF its argmax is not the exact one
        centre, _ = mc.optimal_power_split(scheme, plan, rc)
        grid = [centre + k * 1e-15 for k in range(-20, 21)]
    got = mc.optimal_power_split(scheme, plan, rc, grid=grid, n_workers=n_workers)
    assert got == _loop_split_search(scheme, plan, rc, grid)


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("scheme", _SCHEMES)
def test_non_finite_bounded_pass_keeps_every_split(monkeypatch, scheme, n_workers):
    plan = mc.TrialPlan(trials=_ODD_TRIALS, master_seed=17)
    rc = _rc(p_b=0.1)
    grid = np.round(np.arange(0.05, 1.0, 0.05), 2)
    real = mc._relay_parts
    exact_splits = []

    def corrupted(scheme, plan, rc, splits, exact, n_workers):
        parts = real(scheme, plan, rc, splits, exact, n_workers)
        if exact:
            exact_splits.append(list(splits))
        else:
            parts[7][-1][1] = math.nan           # a block sum of the split's last rate
        return parts

    monkeypatch.setattr(mc, "_relay_parts", corrupted)
    got = mc.optimal_power_split(scheme, plan, rc, grid=grid, n_workers=n_workers)
    monkeypatch.undo()
    assert exact_splits == [[float(s) for s in grid]]
    assert got == _loop_split_search(scheme, plan, rc, grid)


@pytest.mark.parametrize("scheme", _SCHEMES)
def test_default_grid_reduces_few_splits_exactly(monkeypatch, scheme):
    calls = []
    real = mc._fsum

    def counting(vals):
        calls.append(len(vals))
        return real(vals)

    monkeypatch.setattr(mc, "_fsum", counting)
    plan = mc.TrialPlan(trials=_ODD_TRIALS, master_seed=3)
    mc.optimal_power_split(scheme, plan, _rc())
    n_rates = 2 if scheme == "df_min_of_means" else 1
    n_blocks = len(mc._block_ranges(plan.trials))
    # a sum and a sum of squares per split, rate and block; at most 3 of 99 splits
    assert 0 < len(calls) <= 2 * 3 * n_rates * n_blocks


def test_relay_rates_match_per_draw_reference():
    plan = mc.TrialPlan(trials=_ODD_TRIALS, master_seed=5)
    rc = _rc()
    pb, pd = 0.4 * rc.p_b, (1.0 - 0.4) * rc.p_b
    parts = {"af": [], "df": [], "hop1": [], "hop2": []}
    for blk in mc._block_ranges(plan.trials):
        g1, g2 = mc._relay_draws(rc, plan.master_seed, blk)
        eps_a = pd / (pb * g1)
        sinr = eps_a * g1 * g2 * pb / (rc.sigma2 * (1.0 + eps_a * g2))
        hop1 = 0.5 * np.log2(1.0 + pb * g1 / rc.sigma2)
        hop2 = 0.5 * np.log2(1.0 + pd * g2 / rc.sigma2)
        for key, vals in (("af", 0.5 * np.log2(1.0 + sinr)), ("df", np.minimum(hop1, hop2)),
                          ("hop1", hop1), ("hop2", hop2)):
            parts[key].append((math.fsum(vals), math.fsum(vals * vals), 0))
    want = {k: mc._reduce_blocks(v, plan.trials, binary=False) for k, v in parts.items()}
    assert mc.af_relay_rate(plan, rc, 0.4) == want["af"]
    assert mc.df_relay_rate(plan, rc, 0.4) == want["df"]
    est1, est2 = want["hop1"], want["hop2"]
    assert _one_split("df_min_of_means", plan, rc, 0.4) == (
        est1 if est1.mean <= est2.mean else est2)


def test_split_search_needs_a_relay_engine():
    plan = mc.TrialPlan(trials=10, master_seed=2)
    # the old call form passed the engine itself
    for scheme in (mc.af_relay_rate, mc.df_relay_rate, lambda *a, **k: None,
                   "AF", "df_hops", "min_of_means", "", None):
        with pytest.raises(ValueError, match="known: af, df, df_min_of_means"):
            mc.optimal_power_split(scheme, plan, _rc())
    with pytest.raises(ValueError):
        mc.optimal_power_split("af", plan, _rc(), grid=[0.5, 1.0])
    with pytest.raises(ValueError, match="at least one power split"):
        mc.optimal_power_split("af", plan, _rc(), grid=[])


def test_empirical_diversity_slope():
    curve = [(s, 3.0 * (10 ** (s / 10.0)) ** (-4.0)) for s in (10.0, 20.0, 30.0)]
    assert mc.empirical_diversity_slope(curve) == pytest.approx(4.0, abs=1e-6)
    with pytest.raises(ValueError):
        mc.empirical_diversity_slope([(10.0, 0.0)])
    # exact zeros carry no slope and are skipped
    assert mc.empirical_diversity_slope(curve + [(40.0, 0.0)]) == pytest.approx(4.0, abs=1e-6)


@pytest.mark.parametrize("bad", [(10.0, math.nan), (10.0, -1e-3), (10.0, 1.5), (10.0, math.inf),
                                 (math.nan, 1e-2), (-math.inf, 1e-2)])
def test_empirical_diversity_slope_rejects_bad_points(bad):
    curve = [(0.0, 0.1), bad, (20.0, 1e-3)]
    with pytest.raises(ValueError, match="bad outage point"):
        mc.empirical_diversity_slope(curve)
