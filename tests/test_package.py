"""The package exports every layer's public names, and only those: each
module's __all__ is the one list of its public names, and every public
function is used by the package or its benchmarks.  Importing it
loads neither dataclasses nor typing (nor csv, which only csv output
needs), and its value types behave as the frozen dataclasses they
replace."""

import ast
import copy
import importlib
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import pytest

import soclecalc
from soclecalc.modfit import FitInconsistency
from soclecalc.qseries import QSeries
from soclecalc.report import CheckResult
from soclecalc.socle import SocleQuery, SocleResult, Wheel

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


def _loaded_names(tree):
    # every name the module reads, bare or as an attribute, except a
    # function's reads of its own name: recursion is not a use
    loaded = set()

    def visit(node, own):
        if isinstance(node, ast.FunctionDef):
            own = node.name
        if isinstance(getattr(node, "ctx", None), ast.Load):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name not in (None, own):
                loaded.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(tree, None)
    return loaded


def test_every_public_function_is_used_by_the_package_or_benchmarks():
    benchmarks = Path(__file__).resolve().parents[1] / "benchmarks"
    files = [*Path(soclecalc.__file__).parent.glob("*.py"), *benchmarks.glob("*.py")]
    loaded = set().union(*(_loaded_names(ast.parse(f.read_text())) for f in files))
    unused = []
    for layer in LAYERS:
        module = importlib.import_module(f"soclecalc.{layer}")
        for name in module.__all__:
            value = getattr(module, name)
            if callable(value) and not isinstance(value, type) and name not in loaded:
                unused.append(f"{layer}.{name}")
    assert unused == []


def test_import_loads_neither_dataclasses_nor_typing():
    # -S: no site hooks, which may import typing themselves, as on a
    # clean install
    src = os.path.dirname(os.path.dirname(soclecalc.__file__))
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import soclecalc, soclecalc.cli; "
        "print(' '.join(m for m in sys.argv[2:] if m in sys.modules))"
    )
    heavy = ["csv", "dataclasses", "inspect", "typing"]
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, src, *heavy],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == []


# one instance of each value type, an instance with one field changed,
# and the dataclass-format repr of the first
VALUES = {
    "CheckResult": (
        lambda: CheckResult("dr.oracle", {"g": 1}, "fail", (2, 3)),
        lambda: CheckResult("dr.oracle", {"g": 2}, "fail", (2, 3)),
        "CheckResult(check='dr.oracle', params={'g': 1}, status='fail', "
        "witness=(2, 3))",
    ),
    "QSeries": (
        lambda: QSeries((1, Fraction(1, 2))),
        lambda: QSeries((1, Fraction(1, 3))),
        "QSeries(coeffs=(Fraction(1, 1), Fraction(1, 2)))",
    ),
    "FitInconsistency": (
        lambda: FitInconsistency(7, 12),
        lambda: FitInconsistency(8, 12),
        "FitInconsistency(first_inconsistent_power=7, max_weight=12)",
    ),
    "SocleQuery": (
        lambda: SocleQuery(2, (1, 1)),
        lambda: SocleQuery(2, (2, 0)),
        "SocleQuery(g=2, d=(1, 1))",
    ),
    "Wheel": (
        lambda: Wheel((1, 2), (0, 1)),
        lambda: Wheel((1, 2), (1, 0)),
        "Wheel(cycle=(1, 2), genera=(0, 1))",
    ),
    "SocleResult": (
        lambda: SocleResult(Fraction(1, 24), None),
        lambda: SocleResult(Fraction(1, 24), Fraction(1, 24)),
        "SocleResult(faber_value=Fraction(1, 24), necklace_value=None)",
    ),
}


@pytest.mark.parametrize("kind", VALUES)
def test_value_types_behave_as_frozen_dataclasses(kind):
    make, make_other, text = VALUES[kind]
    value, twin, other = make(), make(), make_other()
    fields = list(inspect.signature(type(value)).parameters)
    assert type(value).__name__ == kind
    assert value == twin and value is not twin
    assert value != other
    assert value != tuple(getattr(value, name) for name in fields)
    others = [build() for name, (build, _, _) in VALUES.items() if name != kind]
    assert all(value != x for x in others)
    try:
        hash(tuple(getattr(value, name) for name in fields))
    except TypeError:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(twin)
    assert repr(value) == text
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == twin
    assert copy.copy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
