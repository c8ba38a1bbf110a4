"""The script, run as a user runs it: a subprocess with PYTHONPATH=src."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)


def _script(name, *args):
    proc = _run(name, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_diversity_slope_prints_the_exact_slope():
    lines = _script("diversity_slope.py", "--elements", "1")
    assert len(lines) == 1 and lines[0].startswith("N=1: exact slope  2.000")


def test_bench_presets_records_the_digest_that_irislab_run_prints(tmp_path):
    out = tmp_path / "BENCH_presets.json"
    _script("bench_presets.py", "throughput_surface", "--smoke", "--runs", "1",
            "--parent", str(ROOT), "--out", str(out))
    record = json.loads(out.read_text())
    assert record["scale"] == "smoke" and set(record["checkouts"]) == {"change", "parent"}
    assert {"python", "numpy", "scipy"} <= set(record["host"])
    assert set(record["host"]["numpy_dispatch"]) == {"log2", "power"}
    [entry] = record["results"]
    assert (entry["preset"], entry["workers"]) == ("throughput_surface", 1)
    change = entry["sides"]["change"]
    assert (change["trials"], change["rows"], change["failures"]) == (1000, 9, 0)
    assert set(change["series_wall_s"]) == {"analytical"}
    for key in ("wall_s", "process_s", "peak_rss_mb"):
        assert change[key]["q1"] <= change[key]["median"] <= change[key]["q3"]
    assert change["wall_s"]["median"] < change["process_s"]["median"]
    # each run's own high-water mark: at least the interpreter with numpy, far below a GB
    [run] = change["runs"]
    assert run["peak_rss_mb"] == change["peak_rss_mb"]["median"]
    assert 10.0 < run["peak_rss_mb"] < 1000.0
    assert entry["pairs"]["same_csv"] and len(entry["pairs"]["change_s"]) == 1
    assert entry["pairs"]["process_s"]["change_s"] == [change["process_s"]["median"]]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "irislab.cli", "run", "throughput_surface",
                           "--smoke", "--out", str(tmp_path / "run")], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].endswith(f" sha256 {change['sha256']}")
