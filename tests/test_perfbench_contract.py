"""The names the benchmark's tracer patches must exist in the package.

``perfbench/tracing.py`` wraps functions by name from outside; a rename in
``irislab`` would otherwise surface only in the benchmark's own tests.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves_in_its_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(layer, name) for layer, names in tracing.TRACED.items() for name in names]
    names += [("montecarlo", "math"), ("montecarlo", "ProcessPoolExecutor")]
    missing = [f"irislab.{layer}.{name}" for layer, name in names
               if not hasattr(importlib.import_module(f"irislab.{layer}"), name)]
    assert missing == []
