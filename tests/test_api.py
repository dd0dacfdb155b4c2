"""Each module's ``__all__`` names exist and list every public class and
function the module defines."""

import importlib
import inspect
import pkgutil

import pytest

import gatesynth

# the command-line module is an entry point, not an importable API
MODULES = [m.name for m in pkgutil.iter_modules(gatesynth.__path__) if m.name != "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_every_public_definition(name):
    mod = importlib.import_module(f"gatesynth.{name}")
    exported = set(mod.__all__)
    assert len(exported) == len(mod.__all__), "a name is listed twice"
    assert not [n for n in exported if not hasattr(mod, n)]
    defined = {
        n for n, obj in vars(mod).items()
        if not n.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == mod.__name__
    }
    assert sorted(defined - exported) == []


def test_every_module_checked():
    assert sorted(MODULES) == [
        "circuit", "formulas", "gates", "monitor", "odesim", "signals", "synth",
        "worstcase",
    ]
