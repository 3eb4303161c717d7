"""The public names of the package."""

import importlib
import pkgutil

import pytest

import tricert

MODULES = ["tricert"] + [f"tricert.{m.name}" for m in pkgutil.iter_modules(tricert.__path__)]


def test_every_module_is_listed():
    assert {"tricert.dynamics", "tricert.verify", "tricert.scan", "tricert.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # tools that look the exports up by name skip a missing one silently,
    # so a stale entry would go unnoticed
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    assert len(exports) == len(set(exports))
    assert [attr for attr in exports if not hasattr(module, attr)] == []
