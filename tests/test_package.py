"""The package exports every layer's public names, and only those: each
module's __all__ is the one list of its public names."""

import importlib
import pkgutil
from types import ModuleType

import pytest

import soclecalc

# every submodule but the console entry point
LAYERS = [m.name for m in pkgutil.iter_modules(soclecalc.__path__) if m.name != "cli"]


@pytest.mark.parametrize("layer", LAYERS)
def test_package_exports_each_public_name_of_the_layer(layer):
    module = importlib.import_module(f"soclecalc.{layer}")
    for name in module.__all__:
        assert getattr(soclecalc, name, None) is getattr(module, name), name


def test_package_exports_nothing_else():
    listed = {
        name
        for layer in LAYERS
        for name in importlib.import_module(f"soclecalc.{layer}").__all__
    }
    public = {
        name
        for name, value in vars(soclecalc).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == listed
