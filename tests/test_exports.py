"""Every name a module exports through __all__ resolves, and the package
re-exports each name of the modules it gathers."""

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


# checks and cli are imported on demand and stay out of the package namespace
GATHERED = [m for m in MODULES[1:] if m.__name__ not in ("difflaw.checks", "difflaw.cli")]


def test_package_namespace_is_union_of_modules():
    names = {"__version__"}
    for module in GATHERED:
        for name in module.__all__:
            assert name in difflaw.__all__, f"{module.__name__}.{name}"
            assert getattr(difflaw, name) is getattr(module, name), name
        names.update(module.__all__)
    assert set(difflaw.__all__) == names
