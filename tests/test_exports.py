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
