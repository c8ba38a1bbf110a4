"""The two scripts, run as a user runs them: a subprocess with PYTHONPATH=src."""

import os
import re
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


def test_reproduce_figures_prints_one_digest_per_preset(tmp_path):
    lines = _script("reproduce_figures.py", "--smoke", "--only", "throughput_surface,ee_sweep",
                    "--out", str(tmp_path))
    assert [line.split(":")[0] for line in lines] == ["ee_sweep", "throughput_surface"]
    assert all(re.search(r"sha256 [0-9a-f]{64}$", line) for line in lines)
    assert (tmp_path / "ee_sweep.csv").is_file()


def test_reproduce_figures_rejects_an_unknown_preset(tmp_path):
    proc = _run("reproduce_figures.py", "--smoke", "--only", "op_vs_snrr,ee_sweep",
                "--out", str(tmp_path))
    assert proc.returncode == 2 and proc.stdout == ""
    assert "unknown preset(s) op_vs_snrr; presets: ee_sweep, ergodic_vs_snr, " in proc.stderr
    assert not any(tmp_path.iterdir())
