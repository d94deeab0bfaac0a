"""Every exported name resolves, every private name the docs name in
backticks exists, every private module-level name is read somewhere, and no
module or test file imports a name it does not use."""

import ast
import importlib
import pkgutil
import re
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


def _stale_names(text):
    """The backticked private names in ``text``, `_x` or `module._x`, that
    are no attribute of a wavecal module (of ``module``, when it is named)."""
    modules = {name.rpartition(".")[2]: importlib.import_module(name) for name in MODULES}
    stale = []
    for module, name in re.findall(r"`(?:(\w+)\.)?(_[A-Za-z]\w*)`", text):
        if module:
            owners = [modules[module]] if module in modules else []
        else:
            owners = modules.values()
        if not any(hasattr(owner, name) for owner in owners):
            stale.append(f"{module}.{name}" if module else name)
    return stale


@pytest.mark.parametrize("path", sorted(Path(wavecal.__file__).parent.glob("*.py"))
                         + [Path(__file__).parents[1] / "README.md"],
                         ids=lambda path: path.name)
def test_backticked_private_names_exist(path):
    assert _stale_names(path.read_text()) == []


def test_stale_name_is_found():
    text = "`_pinv`, `decomposition._stage`, `shrinkage._stage`, `_gone` and `np._x`"
    assert _stale_names(text) == ["shrinkage._stage", "_gone", "np._x"]


def _orphan_names(paths, users):
    """The module-level private functions, classes and constants of the
    modules at ``paths`` that no code in ``paths`` or ``users`` reads, an
    import included, with their line numbers."""
    defined, read = {}, set()
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [(node.name, node.lineno)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [(t.id, t.lineno) for t in names if isinstance(t, ast.Name)]
            else:
                targets = []
            defined.update((f"{path.name}:{line} {name}", name) for name, line in targets
                           if name.startswith("_") and not name.startswith("__"))
    for path in [*paths, *users]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(where for where, name in defined.items() if name not in read)


def test_no_orphan_private_names():
    # bench/ is read, never changed: `shrinkage._phi` lives only for its counters
    source = Path(wavecal.__file__).parent
    users = sorted((source.parents[1] / "bench").glob("*.py"))
    assert _orphan_names(sorted(source.glob("*.py")), users) == []


def test_orphan_name_is_found(tmp_path):
    (tmp_path / "a.py").write_text("_KEPT = 1\n_GONE: int = 2\n__all__ = []\n"
                                   "def _helper():\n    return _KEPT\n"
                                   "class _Unused:\n    _attribute = 3\n")
    (tmp_path / "b.py").write_text("from .a import _helper\n")
    assert _orphan_names([tmp_path / "a.py"], [tmp_path / "b.py"]) == [
        "a.py:2 _GONE", "a.py:6 _Unused"]


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
