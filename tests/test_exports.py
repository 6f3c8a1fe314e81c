"""Every name the package and its modules export must resolve."""

import importlib
import pkgutil

import pytest

import cerm

MODULES = ["cerm"] + [f"cerm.{info.name}" for info in pkgutil.iter_modules(cerm.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_export_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
