#!/usr/bin/env python3
"""irislab benchmark: one workload, end-to-end metrics or traced per-layer metrics.

    python3 perfbench/run.py --workload model_mc --seed 3 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
run repeats the workload's batch of sweeps for ``--seconds`` seconds (at
least three times), checks every batch's CSVs, and prints a table of
metrics followed, on the last line, by one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the ``end_to_end`` metrics of ``BENCHMARK.json``; ``--trace 1``
alternates untraced and traced batches and reports the ``per_layer`` ones.
``--smoke`` runs the workload at tiny scale for the benchmark's own tests.
See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 7
MIN_BATCHES = 3


def _import_irislab():
    """Import the package from this checkout's sources, never from elsewhere."""
    if not (SRC / "irislab" / "__init__.py").is_file():
        raise SystemExit(f"error: no irislab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import irislab
    if SRC.resolve() not in Path(irislab.__file__).resolve().parents:
        raise SystemExit(f"error: irislab was imported from {irislab.__file__}, not {SRC}")


def _setup_probe(workload: str, seed: int) -> float:
    """Fresh-process set-up: import the package and build the workload's specs."""
    t0 = time.perf_counter()
    _import_irislab()
    import workloads
    workloads.build(workload, seed)
    return time.perf_counter() - t0


def _setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up time of fresh processes, scaled and raw."""
    from batch import REFERENCE_S, reference_seconds
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        before = reference_seconds()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        t = float(proc.stdout.strip().splitlines()[-1])
        raw.append(t)
        scaled.append(t * REFERENCE_S / (0.5 * (before + reference_seconds())))
    return statistics.median(scaled), statistics.median(raw)


def _peak_rss_mb() -> float:
    """High-water RSS of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class Run:
    """The batches of one benchmark run and their output checks."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        import workloads
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.sweeps = workloads.build(workload, seed, smoke=smoke)
        recorded = {} if smoke else json.loads(DIGESTS.read_text(encoding="utf-8"))
        self.expected = recorded.get(workload, {}).get(str(seed))
        self.first_digest = None
        self.attempted = self.failed = 0
        self.problems = []

    def batch(self, sweeps=None):
        from batch import run_batch
        b = run_batch(sweeps or self.sweeps, OUT_DIR)
        if self.first_digest is None:
            self.first_digest = b.digest
        if self.expected is not None and b.digest != self.expected:
            b.problems.append(f"digest {b.digest} differs from the recorded {self.expected}")
        elif b.digest != self.first_digest:
            b.problems.append(f"digest {b.digest} differs from this run's first {self.first_digest}")
        self.attempted += b.attempted
        self.failed += b.attempted if b.problems else b.failed
        self.problems += b.problems
        return b

    def digest_note(self) -> str:
        if self.smoke:
            return "smoke scale: digests checked for agreement between batches only"
        if self.expected is not None:
            return f"digest checked against the one recorded for seed {self.seed}"
        return (f"no digest recorded for seed {self.seed}: digests checked for "
                "agreement between batches only")


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    from batch import sweep_total
    batches = []
    t_end = time.perf_counter() + seconds
    while len(batches) < MIN_BATCHES or time.perf_counter() < t_end:
        batches.append(run.batch())
    wall = sweep_total(batches, "wall")
    values = {
        "wall_s": wall,
        "rows_per_s": batches[0].rows / wall,
        "cpu_s": sweep_total(batches, "cpu"),
        "peak_rss_mb": _peak_rss_mb(),
    }
    extras = {"batches": (len(batches), "count"),
              "failed_share": (run.failed / run.attempted, "ratio")}
    if batches[0].trials:
        extras["trials_per_s"] = (batches[0].trials / wall, "trials/s")
    values["setup_s"], raw_setup = _setup_seconds(run.workload, run.seed)
    extras["raw.setup_s"] = (raw_setup, "s")
    extras["raw.wall_s"] = (sweep_total(batches, "wall", scaled=False), "s")
    extras["raw.cpu_s"] = (sweep_total(batches, "cpu", scaled=False), "s")
    extras["reference_s"] = (statistics.median(b.reference_s for b in batches), "s")
    return values, extras


def per_layer(run: Run, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced batches; median per counter."""
    import workloads
    from batch import sweep_total
    from tracing import Tracer, median_summary
    plain, traced, summaries = [], [], []
    t_end = time.perf_counter() + seconds
    while len(traced) < MIN_BATCHES or time.perf_counter() < t_end:
        plain.append(run.batch())
        tracer = Tracer()
        with tracer.patch():
            b = run.batch()
        traced.append(b)
        summaries.append(tracer.summary(sum(b.wall.values())))
    values = median_summary(summaries)
    values["trace.overhead_share"] = (sweep_total(traced, "wall")
                                      / sweep_total(plain, "wall") - 1.0)
    extras = {"batches": (len(traced), "count"),
              "failed_share": (run.failed / run.attempted, "ratio")}
    if run.workload == "link_parallel":
        # spans inside pool workers are lost: take geometry and beamforming
        # from a traced pass on one worker, which must give the same digest
        tracer = Tracer()
        with tracer.patch():
            b = run.batch(workloads.link_parallel(run.seed, smoke=run.smoke, n_workers=1))
        one = tracer.summary(sum(b.wall.values()))
        values.update({k: v for k, v in one.items() if k.startswith(("geometry.", "beamforming."))})
        extras["one_worker.trace.wall_s"] = (one["trace.wall_s"], "s")
        extras["one_worker.trace.unattributed_s"] = (one["trace.unattributed_s"], "s")
        for layer in ("harness", "analysis", "specfun", "montecarlo"):
            extras[f"one_worker.{layer}.self_s"] = (one[f"{layer}.self_s"], "s")
    return values, extras


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return seed


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny scale, for tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(repr(_setup_probe(args.workload, args.seed)))
        return 0
    _import_irislab()
    run = Run(args.workload, args.seed, args.smoke)
    try:
        if args.trace:
            values, extras = per_layer(run, args.seconds)
            declared = bench["per_layer"]
        else:
            values, extras = end_to_end(run, args.seconds)
            declared = bench["end_to_end"]
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)

    import numpy
    import scipy
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}; "
          f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}, nproc {os.cpu_count()}")
    print(f"# {run.digest_note()}")
    if args.trace and args.workload == "link_parallel":
        print("# geometry.* and beamforming.* come from a traced one-worker pass; "
              "every other counter from the two-worker passes")
    for problem in dict.fromkeys(run.problems):
        print("# FAILED " + problem.rstrip().replace("\n", "\n#   "))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    rows = [(k, v["value"], v["unit"]) for k, v in metrics.items()]
    rows += [(k, v, unit) for k, (v, unit) in extras.items()]
    for name, value, unit in rows:
        print(f"{name:44s} {value:16.6g} {unit}")
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
