"""Every exported name resolves."""

import importlib
import pkgutil

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
