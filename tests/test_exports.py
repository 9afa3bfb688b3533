"""Every name that the package or one of its modules lists in ``__all__``
resolves (``chernoff.cli`` lists none)."""

import importlib
import pkgutil

import pytest

import chernoff

_MODULES = ["chernoff"] + ["chernoff." + m.name
                           for m in pkgutil.iter_modules(chernoff.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
