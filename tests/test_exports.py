"""Every exported name resolves: tracing tools walk ``__all__`` and look
each name up, so a stale entry would crash them."""

import importlib
import pkgutil

import pytest

import confset

MODULES = [
    "core",
    "scoring",
    "conformal",
    "metrics",
    "datagen",
    "io",
    "experiment",
    "validation",
    "cli",
]


@pytest.mark.parametrize("module", ["confset"] + [f"confset.{m}" for m in MODULES])
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_every_module_is_listed():
    # a new module must join MODULES, so its __all__ is checked too
    found = {m.name for m in pkgutil.iter_modules(confset.__path__)}
    assert found == set(MODULES)
