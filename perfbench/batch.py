"""Run one workload batch through the public harness API and check its output.

A batch runs every sweep of a workload once.  Each sweep's CSV is written
with ``harness.emit_csv`` and checked: every value and standard error is
finite, every standard error is >= 0, every outage probability lies in
[0, 1], and each (point, series) record is present.  The batch digest is the
SHA-256 over the per-sweep CSV digests, so it changes when any CSV byte does.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from irislab import harness

# experiments whose every series is an outage probability
_PROBABILITY_EXPERIMENTS = ("op_vs_snr", "op_fading_sweep")

# Best time of ``reference_seconds``'s kernel on an otherwise idle 2-core
# Xeon VM; scaled times are expressed at that machine speed.
REFERENCE_S = 0.0135


@dataclass
class BatchResult:
    wall: dict = field(default_factory=dict)     # sweep -> seconds inside run_experiment
    cpu: dict = field(default_factory=dict)      # sweep -> user + sys s, with pool children
    rows: int = 0
    trials: int = 0              # sum of the CSV trials column
    attempted: int = 0           # (point, series) records requested
    failed: int = 0              # failed records, or records of a sweep that failed a check
    digest: str = ""             # SHA-256 over the sweeps' CSV SHA-256s
    problems: list = field(default_factory=list)
    reference_s: float = 0.0     # reference kernel time around the batch


def reference_seconds(repeats: int = 3) -> float:
    """Best time of a fixed mix of interpreter loop, gamma draws and ``fsum``.

    Other tenants of a shared machine slow every process on it for seconds
    to minutes at a time.  Timing this kernel next to the program and
    dividing by it cancels most of that: the program's time relative to the
    kernel moves only when the program changes.
    """
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        math.fsum(np.random.Generator(np.random.Philox(12345)).gamma(2.0, 0.5, 100_000))
        acc = 0
        for i in range(100_000):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def _cpu_now() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _points(spec) -> int:
    return math.prod(len(values) for _, values in spec.sweep)


def check_csv(text: str, spec) -> list:
    """Problems found in one sweep's CSV; empty when it passes."""
    lines = text.splitlines()
    n_axes = len(spec.sweep)
    header = [f"axis_{name}" for name, _ in spec.sweep] + ["series", "value", "std_error", "trials"]
    if not lines or lines[0].split(",") != header:
        return ["unexpected CSV header"]
    problems = []
    seen = set()
    for line in lines[1:]:
        cells = line.split(",")
        axes, series = tuple(cells[:n_axes]), cells[n_axes]
        value, se, trials = float(cells[n_axes + 1]), float(cells[n_axes + 2]), int(cells[n_axes + 3])
        seen.add((axes, series))
        if not (math.isfinite(value) and math.isfinite(se)):
            problems.append(f"non-finite value at {axes} {series}")
        if se < 0.0 or trials < 0:
            problems.append(f"negative std_error or trials at {axes} {series}")
        if spec.experiment in _PROBABILITY_EXPERIMENTS and not 0.0 <= value <= 1.0:
            problems.append(f"outage probability {value} outside [0, 1] at {axes} {series}")
    expected = _points(spec) * len(spec.outputs)
    if len(seen) != expected or len(lines) - 1 != expected:
        problems.append(f"{len(lines) - 1} rows, expected {expected}")
    return problems


def run_batch(sweeps, out_dir: Path) -> BatchResult:
    """Run every ``(name, spec, n_workers)`` sweep once, then check its CSV.

    ``harness.run_experiment`` is looked up at call time so that a tracer can
    stand in for it.  The reference kernel runs before and after the batch.
    """
    out = BatchResult()
    digests = {}
    out_dir.mkdir(parents=True, exist_ok=True)
    before = reference_seconds()
    for name, spec, n_workers in sweeps:
        records = _points(spec) * len(spec.outputs)
        out.attempted += records
        cpu0 = _cpu_now()
        t0 = time.perf_counter()
        try:
            result = harness.run_experiment(spec, n_workers=n_workers)
        except Exception:                           # noqa: BLE001 - counted, run goes on
            out.failed += records
            out.problems.append(f"{name}: {traceback.format_exc(limit=3)}")
            continue
        finally:
            out.wall[name] = time.perf_counter() - t0
            out.cpu[name] = _cpu_now() - cpu0
        path = out_dir / f"{name}.csv"
        harness.emit_csv(result, path)
        data = path.read_bytes()
        path.unlink()
        digests[name] = hashlib.sha256(data).hexdigest()
        problems = [f"{name}: {msg}" for _, _, msg in result.failures]
        problems += [f"{name}: {p}" for p in check_csv(data.decode("utf-8"), spec)]
        out.failed += records if problems else 0
        out.problems += problems
        out.rows += len(result.rows)
        out.trials += sum(row[4] for row in result.rows)
    combined = "".join(f"{n}:{d}\n" for n, d in digests.items())
    out.digest = hashlib.sha256(combined.encode("utf-8")).hexdigest()
    out.reference_s = 0.5 * (before + reference_seconds())
    return out


def sweep_total(batches, attr: str, scaled: bool = True) -> float:
    """Sum over sweeps of each sweep's median time over the batches.

    ``scaled`` first multiplies each time by ``REFERENCE_S`` over the
    reference time of its batch.  The median per sweep drops bursts that hit
    a few batches; the scaling removes slower phases that hit them all.
    """
    def value(b, name):
        v = getattr(b, attr)[name]
        return v * REFERENCE_S / b.reference_s if scaled else v
    return sum(statistics.median(value(b, n) for b in batches) for n in getattr(batches[0], attr))
