import importlib
import pkgutil

import pytest

import endiff

MODULES = ["endiff"] + [f"endiff.{m.name}" for m in pkgutil.iter_modules(endiff.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale re-export of a deleted function would fail here, not at a
    # caller's `from endiff... import *`
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(mod, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
