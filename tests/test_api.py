"""Every name a module exports resolves, so deletions leave no dead exports."""

import importlib
import pkgutil

import pytest

import gridhalo

MODULES = sorted(m.name for m in pkgutil.iter_modules(gridhalo.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"gridhalo.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"gridhalo.{name}.__all__ names missing attributes: {missing}"
