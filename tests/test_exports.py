"""Every name a module exports through __all__ resolves."""

import importlib
import pkgutil

import pytest

import difflaw

MODULES = [difflaw] + [
    importlib.import_module(f"difflaw.{info.name}")
    for info in pkgutil.iter_modules(difflaw.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_exported_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
