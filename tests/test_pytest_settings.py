"""The repository's pytest settings, applied to a test that fails on purpose."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails_from_ten(n):
    assert n < 10
"""


def test_a_failing_hypothesis_test_prints_its_falsifying_example(tmp_path):
    # every warning is an error, so one raised inside hypothesis's report hook
    # would end the run in INTERNALERROR before the example is printed
    (tmp_path / "test_failing.py").write_text(_FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "Falsifying example: test_fails_from_ten(" in proc.stdout
    assert "n=10," in proc.stdout
