"""Every name a tensorcast module exports in __all__ must resolve."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import tensorcast

MODULES = ["tensorcast"] + [
    f"tensorcast.{info.name}" for info in pkgutil.iter_modules(tensorcast.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", []) if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


# The package re-exports every module's __all__ but the CLI's.
REEXPORTED = [name for name in MODULES[1:] if name != "tensorcast.cli"]


@pytest.mark.parametrize("name", REEXPORTED)
def test_package_exports_each_module_name_once_as_its_own_object(name):
    module = importlib.import_module(name)
    lists = {other: importlib.import_module(other).__all__ for other in REEXPORTED}
    elsewhere = {export for other, names in lists.items() if other != name for export in names}
    shared = set(module.__all__) & elsewhere
    assert not shared, f"{name}.__all__ shares {sorted(shared)} with another module"
    assert len(tensorcast.__all__) == 1 + sum(len(names) for names in lists.values())
    for export in module.__all__:
        assert tensorcast.__all__.count(export) == 1, export
        assert getattr(tensorcast, export) is getattr(module, export), f"tensorcast.{export}"
