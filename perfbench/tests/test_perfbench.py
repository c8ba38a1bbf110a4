"""Tests of the benchmark itself, at smoke scale.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_irislab()

import batch  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from irislab import geometry, harness, montecarlo  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_declared_metric(workload, trace, section):
    res = _result(_bench("--workload", workload, "--seed", "5", "--seconds", "0",
                         "--trace", str(trace), "--smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) for v in res["metrics"].values())
    if trace == 0:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "closed_form", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_same_seed_same_specs_and_digest(tmp_path):
    a = batch.run_batch(workloads.build("model_mc", 3, smoke=True), tmp_path)
    b = batch.run_batch(workloads.build("model_mc", 3, smoke=True), tmp_path)
    c = batch.run_batch(workloads.build("model_mc", 4, smoke=True), tmp_path)
    assert not a.problems and a.digest == b.digest != c.digest


def test_tracing_keeps_digests_and_restores_the_package(tmp_path):
    sweeps = workloads.build("link_parallel", 2, smoke=True)
    before = {m: dict(vars(m)) for m in (geometry, harness, montecarlo)}
    plain = batch.run_batch(sweeps, tmp_path)
    tracer = tracing.Tracer()
    with tracer.patch():
        traced = batch.run_batch(workloads.link_parallel(2, smoke=True, n_workers=1), tmp_path)
    assert plain.digest == traced.digest
    assert {m: dict(vars(m)) for m in (geometry, harness, montecarlo)} == before
    summary = tracer.summary(sum(traced.wall.values()))
    assert summary["beamforming.solve_beamforming.calls"] == summary["geometry.draw_channel.calls"] > 0
    self_total = sum(summary[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert self_total == pytest.approx(summary["harness.run_experiment.busy_s"], rel=1e-9)


def test_redundant_draw_share_keys_on_the_draw_sequence():
    tracer = tracing.Tracer()
    with tracer.patch():
        for size in (4, 8):                 # same key, differently shaped draws
            montecarlo.stream(1, 13, 0).gamma(2.0, 0.5, size)
        assert tracer.redundant_draw_share() == 0.0
        montecarlo.stream(1, 13, 0).gamma(2.0, 0.5, 8)    # exact repeat of the second
    assert tracer.redundant_draw_share() == pytest.approx(8 / 20)
    assert tracer.counters["geometry.gamma.samples"] == 20


def test_output_check_flags_bad_rows():
    spec = workloads.build("closed_form", 1, smoke=True)[0][1]
    header = ",".join([f"axis_{n}" for n, _ in spec.sweep] + ["series", "value", "std_error", "trials"])
    good = [f"{n},{p},analytical,0.5,0.0,0" for n in spec.sweep[0][1] for p in spec.sweep[1][1]]
    assert batch.check_csv("\n".join([header] + good), spec) == []
    for bad in ("1.5,0.0,0", "nan,0.0,0", "0.5,-1.0,0"):
        rows = good[:-1] + [good[-1].rsplit(",", 3)[0] + "," + bad]
        assert batch.check_csv("\n".join([header] + rows), spec)
    assert batch.check_csv("\n".join([header] + good[:-1]), spec)
