"""Benchmark workloads, built from the bundled presets through the public API.

Every workload is a batch: a list of ``(name, spec, n_workers)`` sweeps that
one process runs one after another.  The seed becomes ``plan.master_seed``
of every spec; in ``closed_form`` it also picks the offsets of the power
grids.  Presets are read with ``importlib.resources`` and turned into specs
with ``harness.spec_from_dict`` only, so refactors behind ``harness`` cannot
break the benchmark.
"""

from __future__ import annotations

import json
import random
from importlib import resources

from irislab import harness

# Trial count of the Monte Carlo sweeps: two 4096-trial blocks per engine
# call, so a 2-worker call really runs on both workers.
TRIALS = 8192


def preset(name: str) -> dict:
    root = resources.files("irislab").joinpath("presets")
    return json.loads(root.joinpath(f"{name}.json").read_text(encoding="utf-8"))


def _spec(name: str, seed: int, trials: int, sweep: dict, outputs: list,
          base: dict | None = None) -> harness.ExperimentSpec:
    d = preset(name)
    d["sweep"] = sweep
    d["outputs"] = outputs
    d["base"].update(base or {})
    d["plan"].update(trials=trials, master_seed=seed)
    return harness.spec_from_dict(d)


def _split(label: str, name: str, seed: int, trials: int, sweep: dict, outputs: list,
           axis: str, base: dict | None = None) -> list:
    """One spec per value of ``axis``: short sweeps, each timed on its own."""
    return [(f"{label}.{axis}={v}",
             _spec(name, seed, trials, {**sweep, axis: [v]}, outputs, base))
            for v in sweep[axis]]


def _grid(start: float, stop: float, step: float, offset: float) -> list:
    n = int(round((stop - start) / step)) + 1
    return [round(start + i * step + offset, 2) for i in range(n)]


def closed_form(seed: int, smoke: bool = False) -> list:
    """Analytical series only: no draws, no pool."""
    rng = random.Random(seed)
    off_op, off_asym, off_erg, off_fad = (rng.uniform(0.0, 1.0) for _ in range(4))
    n_op = [1, 2, 3, 4, 5, 6, 7, 8]
    op_grid = _grid(-10.0, 20.0, 1.0, off_op)
    # the high-SNR series converges for b R^alpha < 1, i.e. above ~3.5 dBm
    asym_grid = _grid(4.0, 20.0, 1.0, off_asym)
    erg = {"t1": [1, 1.5, 2, 3], "n_elements": [2, 4, 8, 16],
           "pb_dbm": _grid(-10.0, 30.0, 5.0, off_erg)}
    fad = preset("op_fading_sweep")["sweep"]
    fad["pb_dbm"] = [v + round(off_fad * 5.0, 2) for v in fad["pb_dbm"]]
    if smoke:
        n_op, op_grid, asym_grid = [1, 4], op_grid[::10], asym_grid[::8]
        erg = {k: v[::3] for k, v in erg.items()}
        fad = {k: v[::3] for k, v in fad.items()}
    return [(label, spec, 1) for label, spec in [
        ("op_vs_snr.analytical", _spec("op_vs_snr", seed, 1, {
            "n_elements": n_op, "pb_dbm": op_grid}, ["analytical"])),
        ("op_vs_snr.asymptotic", _spec("op_vs_snr", seed, 1, {
            "n_elements": n_op, "pb_dbm": asym_grid}, ["asymptotic"])),
        *_split("ergodic_vs_snr.analytical", "ergodic_vs_snr", seed, 1, erg, ["analytical"], "t1"),
        ("throughput_surface", _spec("throughput_surface", seed, 1,
                                     preset("throughput_surface")["sweep"], ["analytical"])),
        ("ee_sweep", _spec("ee_sweep", seed, 1, preset("ee_sweep")["sweep"],
                           ["se_analytical", "power_w", "ee"])),
        ("op_fading_sweep.analytical", _spec("op_fading_sweep", seed, 1, fad, ["analytical"])),
    ]]


def model_mc(seed: int, smoke: bool = False) -> list:
    """The three presets that dominate shipped run time, on one worker."""
    trials = 1024 if smoke else TRIALS
    fad = {"t1": [1, 3], "t2": [2], "pb_dbm": preset("op_fading_sweep")["sweep"]["pb_dbm"]}
    erg = preset("ergodic_vs_snr")["sweep"]
    relay = {"n_elements": [2, 10]}
    if smoke:
        fad["pb_dbm"] = fad["pb_dbm"][::3]
        erg = {k: v[::4] for k, v in erg.items()}
        relay = {"n_elements": [2]}
    sweeps = (_split("op_fading_sweep", "op_fading_sweep", seed, trials, fad,
                     ["analytical", "montecarlo_model"], "t1")
              + _split("ergodic_vs_snr", "ergodic_vs_snr", seed, trials, erg,
                       ["analytical", "montecarlo_model"], "t1")
              + [(f"relay_compare.{series}", _spec("relay_compare", seed, trials, relay, [series]))
                 for series in ("irs_model", "af_optimal", "df_optimal", "df_min_of_means")])
    return [(label, spec, 1) for label, spec in sweeps]


def link_parallel(seed: int, smoke: bool = False, n_workers: int = 2) -> list:
    """Link-level pipeline and per-call pools, on two workers."""
    trials = 1024 if smoke else TRIALS
    op = preset("op_vs_snr")["sweep"]
    if smoke:
        op = {k: v[::8] for k, v in op.items()}
    sweeps = ([("op_vs_snr.montecarlo_link", _spec(
                  "op_vs_snr", seed, trials, {"n_elements": [6], "pb_dbm": [5]},
                  ["montecarlo_link"], base={"M": 2, "K": 3, "N": 6}))]
              + _split("op_vs_snr.montecarlo_model", "op_vs_snr", seed, trials, op,
                       ["montecarlo_model"], "n_elements"))
    return [(label, spec, n_workers) for label, spec in sweeps]


WORKLOADS = {"closed_form": closed_form, "model_mc": model_mc, "link_parallel": link_parallel}


def build(workload: str, seed: int, smoke: bool = False) -> list:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return WORKLOADS[workload](seed, smoke=smoke)
