"""The project metadata in pyproject.toml against the installed dependencies."""

import tomllib
from importlib.metadata import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _floor(spec: str) -> tuple:
    """``(3, 11)`` of ``">=3.11"``; any other form of specifier fails the test."""
    assert spec.startswith(">=") and "," not in spec, spec
    return tuple(int(part) for part in spec[2:].split("."))


def test_python_floor_admits_the_installed_scipy():
    # pip cannot install the package on a Python that its scipy rejects; the
    # private scipy extensions are checked on the installed scipy only
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert _floor(project["requires-python"]) >= _floor(metadata("scipy")["Requires-Python"])
