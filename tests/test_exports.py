import importlib
import pkgutil

import pytest

import steinchaos

MODULES = [
    mod.name
    for mod in pkgutil.iter_modules(steinchaos.__path__, "steinchaos.")
    if hasattr(importlib.import_module(mod.name), "__all__")
]


def test_modules_declare_exports():
    assert len(MODULES) >= 7


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []
