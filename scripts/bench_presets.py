#!/usr/bin/env python3
"""Record the wall times of bundled presets in ``BENCH_presets.json``.

    python3 scripts/bench_presets.py ergodic_vs_snr relay_compare --runs 5
    python3 scripts/bench_presets.py ergodic_vs_snr --runs 5 --parent ../irislab-parent

Every run is ``irislab run <preset>`` at shipped scale (``--smoke``: the
CLI's reduced scale) in a fresh process, with ``PYTHONPATH`` set to a
checkout's ``src/`` and a fresh output directory.  ``--parent DIR`` pairs
each run of this checkout with one of the checkout at DIR, and swaps the
order within every other pair, so drift of the host falls on both sides.

Per preset, worker count and side it records the median and quartiles of
``wall_s`` (the run time that ``irislab run`` reports), of ``process_s``
(the whole process, imports included) and of ``peak_rss_mb`` (that
process's high-water RSS, or its largest reaped child's, such as a pool
worker, if larger; read from ``os.wait4`` for each run), the median time of
each series (the run JSON's ``series_wall_s``; empty for a checkout that
does not write it), the trials (the run JSON's ``trials``), the rows, the
per-point failures and the CSV SHA-256; all but the times must be the same
on every run.  With ``--parent``, it also records each pair's times, the
median of the parent/change ratios and the number of pairs this checkout
won, for ``wall_s`` and for ``process_s``.  The file also names each side's
git commit, the host, the Python, numpy and scipy versions, and the SIMD
target of numpy's float64 ``log2`` and ``power``, on which the digests of
the rate rows rest, as the first run's JSON names it.  The script imports
no package of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_LINE = re.compile(r"^wrote (?P<csv>.+\.csv) and \.json: (?P<rows>\d+) rows in \S+s, "
                   r"(?P<failures>\d+) per-point failures, sha256 (?P<sha>[0-9a-f]{64})$")


def _commit(root: Path) -> dict:
    """The checkout's HEAD, and whether its ``src/`` differs from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        return {"commit": git("rev-parse", "HEAD"),
                "src_modified": bool(git("status", "--porcelain", "--", "src"))}
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "src_modified": None}


def _host(numpy_dispatch: dict) -> dict:
    """The host, with the SIMD targets that a run's JSON names: the recorder
    imports no package, so its own process stays small."""
    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "numpy_dispatch": numpy_dispatch}


def run_once(root: Path, preset: str, workers: int, smoke: bool) -> dict:
    """One ``irislab run`` of ``preset`` in a fresh process on ``root``'s sources."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    with tempfile.TemporaryDirectory() as out:
        cmd = [sys.executable, "-m", "irislab.cli", "run", preset, "--out", out,
               "--workers", str(workers)] + (["--smoke"] if smoke else [])
        stdout, stderr = Path(out) / "stdout.txt", Path(out) / "stderr.txt"
        with stdout.open("w") as fo, stderr.open("w") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=env, stdout=fo, stderr=fe)
            # reaped here, so the usage is this process's own, not RUSAGE_CHILDREN's maximum
            _, status, usage = os.wait4(proc.pid, 0)
            process_s = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise SystemExit(f"error: {' '.join(cmd[1:])} on {root} exited "
                             f"{proc.returncode}: {stderr.read_text().strip()}")
        first = stdout.read_text().partition("\n")[0]
        match = _LINE.match(first)
        if match is None:
            raise SystemExit(f"error: unexpected output of irislab run: {first!r}")
        csv = Path(match["csv"])
        sha = hashlib.sha256(csv.read_bytes()).hexdigest()
        if sha != match["sha"]:
            raise SystemExit(f"error: {csv.name} has SHA-256 {sha}, the CLI printed {match['sha']}")
        meta = json.loads(csv.with_suffix(".json").read_text(encoding="utf-8"))["metadata"]
    return {"wall_s": meta["wall_time_s"], "process_s": round(process_s, 3),
            "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 2), "series_wall_s": meta.get("series_wall_s", {}), "trials": meta["trials"],
            "rows": int(match["rows"]), "failures": int(match["failures"]), "sha256": sha,
            "numpy_dispatch": meta["numpy_dispatch"]}


def _quartiles(xs) -> dict:
    q1, median, q3 = (statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1
                      else (xs[0],) * 3)
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def summarize(runs) -> dict:
    """Quartiles of the runs' ``wall_s``, ``process_s`` and ``peak_rss_mb``, median series times,
    and the trials and output, which must not change from run to run."""
    outputs = {(r["trials"], r["rows"], r["failures"], r["sha256"]) for r in runs}
    if len(outputs) != 1:
        raise SystemExit(f"error: the output changed between runs: {sorted(outputs)}")
    trials, rows, failures, sha = outputs.pop()
    series = {s: statistics.median(r["series_wall_s"][s] for r in runs)
              for s in runs[0]["series_wall_s"]}
    return {"wall_s": _quartiles([r["wall_s"] for r in runs]),
            "process_s": _quartiles([r["process_s"] for r in runs]),
            "peak_rss_mb": _quartiles([r["peak_rss_mb"] for r in runs]), "series_wall_s": series,
            "trials": trials, "rows": rows, "failures": failures, "sha256": sha, "runs": runs}


def _pairs(parent_runs, change_runs, key: str) -> dict:
    pairs = [(p[key], c[key]) for p, c in zip(parent_runs, change_runs)]
    return {"parent_s": [p for p, _ in pairs], "change_s": [c for _, c in pairs],
            "speedup_median": statistics.median(p / c for p, c in pairs),
            "change_wins": sum(c < p for p, c in pairs)}


def bench(presets, worker_counts, n_runs: int, smoke: bool, parent: Path | None) -> dict:
    sides = {"change": ROOT} if parent is None else {"change": ROOT, "parent": parent}
    results = []
    for preset in presets:
        for workers in worker_counts:
            runs = {side: [] for side in sides}
            for i in range(n_runs):
                for side in (list(sides) if i % 2 == 0 else list(sides)[::-1]):
                    runs[side].append(run_once(sides[side], preset, workers, smoke))
                    print(f"{preset} workers={workers} {side} run {i + 1}: "
                          f"{runs[side][-1]['wall_s']} s", file=sys.stderr)
            entry = {"preset": preset, "workers": workers,
                     "sides": {side: summarize(r) for side, r in runs.items()}}
            if parent is not None:
                entry["pairs"] = {
                    **_pairs(runs["parent"], runs["change"], "wall_s"),
                    "process_s": _pairs(runs["parent"], runs["change"], "process_s"),
                    "same_csv": entry["sides"]["parent"]["sha256"]
                    == entry["sides"]["change"]["sha256"]}
            results.append(entry)
    first = results[0]["sides"]["change"]["runs"][0]
    return {"scale": "smoke" if smoke else "shipped", "runs_per_side": n_runs,
            "host": _host(first["numpy_dispatch"]),
            "checkouts": {side: _commit(root) for side, root in sides.items()},
            "results": results}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("presets", nargs="+", help="bundled preset names")
    parser.add_argument("--runs", type=int, default=3, help="runs per preset, worker count "
                                                            "and side (default 3)")
    parser.add_argument("--workers", default="1", help="comma-separated worker counts")
    parser.add_argument("--parent", type=Path, default=None,
                        help="root of a second checkout to alternate with this one")
    parser.add_argument("--smoke", action="store_true", help="run the presets at smoke scale")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_presets.json")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    workers = [int(w) for w in args.workers.split(",")]
    if args.parent is not None and not (args.parent / "src" / "irislab").is_dir():
        parser.error(f"--parent {args.parent} has no src/irislab")
    record = bench(args.presets, workers, args.runs, args.smoke, args.parent)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for entry in record["results"]:
        line = f"{entry['preset']} workers={entry['workers']}:"
        for side, s in entry["sides"].items():
            line += (f" {side} median {s['wall_s']['median']:.3f} s"
                     f" (process {s['process_s']['median']:.3f} s,"
                     f" peak RSS {s['peak_rss_mb']['median']:.1f} MB),")
        if "pairs" in entry:
            for name, p in (("wall", entry["pairs"]), ("process", entry["pairs"]["process_s"])):
                line += (f" {name} parent/change {p['speedup_median']:.2f}x, change won "
                         f"{p['change_wins']} of {len(p['change_s'])},")
        print(line.rstrip(","))


if __name__ == "__main__":
    main()
