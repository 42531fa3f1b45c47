import importlib
import pkgutil

import pytest

import hardylab

MODULES = [hardylab] + [importlib.import_module(f"hardylab.{m.name}")
                        for m in pkgutil.iter_modules(hardylab.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_every_exported_name_exists(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
