"""The benchmark's view of the package: traced names and a traced batch.

``perfbench/tracing.py`` wraps functions by name from outside; a rename in
``irislab`` would otherwise surface only in the benchmark's own tests.
"""

import importlib
import importlib.util
import sys
from functools import cache
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@cache
def _perfbench(name):
    """A perfbench module, loaded from its file without touching ``sys.path``;
    it is registered under a prefixed name, as its dataclasses need."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_its_module():
    tracing = _perfbench("tracing")
    names = [(layer, name) for layer, names in tracing.TRACED.items() for name in names]
    names += [("montecarlo", "math"), ("montecarlo", "ProcessPoolExecutor")]
    missing = [f"irislab.{layer}.{name}" for layer, name in names
               if not hasattr(importlib.import_module(f"irislab.{layer}"), name)]
    assert missing == []


def test_traced_model_mc_batch_keeps_its_digest_and_sees_every_split_search(tmp_path):
    batch, tracing, workloads = (_perfbench(n) for n in ("batch", "tracing", "workloads"))
    plain = batch.run_batch(workloads.build("model_mc", 3, smoke=True), tmp_path)
    tracer = tracing.Tracer()
    with tracer.patch():
        traced = batch.run_batch(workloads.build("model_mc", 3, smoke=True), tmp_path)
    assert plain.failed == traced.failed == 0
    assert plain.digest == traced.digest
    # one search per relay series: af_optimal, df_optimal, df_min_of_means
    assert tracer.counters["montecarlo.optimal_power_split.calls"] == 3


def test_link_parallel_batch_digest_does_not_depend_on_workers(tmp_path):
    batch, workloads = (_perfbench(n) for n in ("batch", "workloads"))
    sweeps = workloads.build("link_parallel", 3, smoke=True)
    assert {n_workers for _, _, n_workers in sweeps} == {2}
    pooled = batch.run_batch(sweeps, tmp_path)
    serial = batch.run_batch([(name, spec, 1) for name, spec, _ in sweeps], tmp_path)
    assert pooled.failed == serial.failed == 0
    assert pooled.digest == serial.digest
