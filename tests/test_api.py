"""The public names: every exported name resolves, so star imports work."""
import importlib
import types

import pytest

import smctune

MODULES = ("errors", "structure", "smc", "freqresp", "tuning", "lqr", "sim")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"smctune.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    exec(f"from smctune.{name} import *", {})


def test_package_reexports_only_public_module_names():
    # each name the package re-exports is in the __all__ of a module that
    # defines it, so a name dropped from a module cannot linger here
    public = set()
    for name in MODULES:
        public.update(importlib.import_module(f"smctune.{name}").__all__)
    exported = {n for n, v in vars(smctune).items()
                if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert exported - public == set()
    exec("from smctune import *", {})
