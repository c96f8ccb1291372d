"""Every name a module of the package lists in __all__ resolves.

A stale __all__ entry breaks `from module import *` while every direct
import still works, so no other test would notice it.
"""

import importlib
import pkgutil

import pytest

import gammasub

MODULES = ["gammasub"] + [f"gammasub.{info.name}"
                          for info in pkgutil.iter_modules(gammasub.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    exec(f"from {name} import *", {})
