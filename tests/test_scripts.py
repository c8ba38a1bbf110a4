"""The script, run as a user runs it: a subprocess with PYTHONPATH=src."""

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

