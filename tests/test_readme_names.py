"""README.md names only what the package defines.

Every backticked ``module.name`` whose module is an irislab module, and every
backticked ``_private`` name, must resolve in irislab, so a rename or a
removal that leaves the README behind fails here.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import irislab

_README = Path(__file__).resolve().parents[1] / "README.md"
_MODULES = {m.name: importlib.import_module(f"irislab.{m.name}")
            for m in pkgutil.iter_modules(irislab.__path__)}


def _spans():
    text = re.sub(r"```.*?```", "", _README.read_text(encoding="utf-8"), flags=re.S)
    return re.findall(r"`([^`\n]+)`", text)


def _resolves(obj, dotted):
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_readme_module_names_resolve():
    pattern = re.compile(rf"(?<![\w.])(?:irislab\.)?({'|'.join(_MODULES)})\.(\w+(?:\.\w+)*)")
    names = [m.groups() for span in _spans() for m in pattern.finditer(span)]
    assert len(names) >= 5
    assert [f"{mod}.{name}" for mod, name in names
            if not _resolves(_MODULES[mod], name)] == []


def test_readme_private_names_resolve():
    pattern = re.compile(r"(?<![\w.])_[A-Za-z]\w*(?:\.\w+)*")
    names = [name for span in _spans() for name in pattern.findall(span)]
    assert len(names) >= 5
    assert [name for name in names
            if not any(_resolves(module, name) for module in _MODULES.values())] == []
