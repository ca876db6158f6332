"""Every public name a module lists in ``__all__`` exists."""

import importlib

import pytest

MODULES = ["thermocurv", "thermocurv.catalog", "thermocurv.davies", "thermocurv.geometry",
           "thermocurv.responses"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
