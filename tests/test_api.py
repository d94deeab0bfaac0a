"""Every exported name resolves, and no module or test file imports a name it
does not use."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import wavecal

# `wavecal.__main__` runs the CLI when imported, so it is left out
MODULES = ["wavecal"] + sorted(f"wavecal.{info.name}"
                               for info in pkgutil.iter_modules(wavecal.__path__)
                               if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_modules_found():
    assert {"wavecal.shrinkage", "wavecal.wavelet", "wavecal.cli"} <= set(MODULES)


def _unused_imports(path):
    """The names that the module at ``path`` imports but neither uses nor
    lists in its ``__all__``, with their line numbers."""
    tree = ast.parse(path.read_text())
    imported, used, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used | exported)


@pytest.mark.parametrize("path", sorted(Path(wavecal.__file__).parent.glob("*.py"))
                         + sorted(Path(__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_unused_import_is_found(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("from __future__ import annotations\n"
                    "import os.path\nfrom typing import Optional, Sequence\n"
                    "from .a import b as c, d\n__all__ = ['d']\n"
                    "def f(x: Sequence) -> None:\n    return os.path.join(x)\n")
    assert _unused_imports(path) == ["module.py:3 Optional", "module.py:4 c"]
