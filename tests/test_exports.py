"""Every exported name resolves: tracing tools walk ``__all__`` and look
each name up, so a stale entry would crash them."""

import importlib
import inspect
import pkgutil
import re
import runpy
from pathlib import Path

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


def test_package_all_is_the_module_lists_in_import_order():
    # the package spells out no public name but __version__: each module's
    # __all__, which the tracer also reads, is the one list
    modules = [importlib.import_module(f"confset.{m}") for m in MODULES[:-1]]
    expected = ["__version__"] + [name for mod in modules for name in mod.__all__]
    assert confset.__all__ == expected
    assert len(set(confset.__all__)) == len(confset.__all__)
    for mod in modules:
        for name in mod.__all__:
            assert getattr(confset, name) is getattr(mod, name), name


SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_function_perfbench_names_is_exported():
    # perfbench wraps only the functions in a module's __all__, so a name it
    # counts or times that leaves __all__ would silently read 0. Names that
    # no longer exist at all are perfbench's to drop.
    spans = runpy.run_path(str(SPANS))
    names = set(re.findall(r'"(\w+)\.(\w+)"', SPANS.read_text()))
    names |= {tuple(n.split(".")) for n in spans["READERS"] | spans["WRITERS"]}
    checked, hidden = set(), []
    for layer, name in sorted(names):
        if layer not in spans["LAYERS"]:
            continue
        mod = importlib.import_module(f"confset.{layer}")
        if not inspect.isfunction(getattr(mod, name, None)):
            continue
        checked.add(f"{layer}.{name}")
        if name not in mod.__all__:
            hidden.append(f"{layer}.{name}")
    assert hidden == []
    # the functions behind the work counts are found and checked
    assert set(spans["COUNTERS"]) - spans["READERS"] - spans["WRITERS"] <= checked
