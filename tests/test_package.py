"""The package surface: ``padiaphony`` re-exports each module's public names.

A module's public names are its ``__all__``; ``errors`` has none, so its
public names are the exception classes it defines.  The names are read
from the modules, never listed here.
"""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import padiaphony

# every submodule but the command line and its ``python -m`` entry point
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(padiaphony.__path__) if m.name not in ("cli", "__main__")
)


def _exports(name: str) -> list[str]:
    module = importlib.import_module(f"padiaphony.{name}")
    if hasattr(module, "__all__"):
        return list(module.__all__)
    return [n for n, v in vars(module).items()
            if inspect.isclass(v) and v.__module__ == module.__name__]


def test_modules_are_found():
    assert {"diaphony", "errors", "padic"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_are_the_package_names(name):
    module = importlib.import_module(f"padiaphony.{name}")
    exports = _exports(name)
    assert exports
    for attr in exports:
        assert getattr(padiaphony, attr, None) is getattr(module, attr), f"{name}.{attr}"


def test_no_name_is_exported_twice():
    seen = {}
    for name in MODULES:
        for attr in _exports(name):
            assert attr not in seen, f"{attr} from {seen.get(attr)} and {name}"
            seen[attr] = name


def test_other_public_attributes_are_submodules():
    exported = {attr for name in MODULES for attr in _exports(name)}
    assert isinstance(padiaphony.__version__, str)
    for attr, value in vars(padiaphony).items():
        if attr.startswith("_") or attr in exported:
            continue
        assert isinstance(value, types.ModuleType), f"padiaphony.{attr} leaks"
        assert value.__name__ == f"padiaphony.{attr}"


def test_every_export_is_found_at_its_module():
    # pickles look a class or function up at its __module__; the names that
    # core took over keep the module that defined them before, so pickles
    # and the per-module layers of perfbench/tracing.py are unchanged
    for name in MODULES:
        for attr in _exports(name):
            value = getattr(padiaphony, attr)
            if callable(value):
                assert value.__module__ != "padiaphony.core", attr
                assert getattr(importlib.import_module(value.__module__), attr) is value, attr


@pytest.mark.parametrize("listing", [
    "names = {}\nexec('from padiaphony import *', names)\nnames.pop('__builtins__')\n",
    "names = dir(padiaphony)\n",
], ids=["star-import", "dir"])
def test_star_import_and_dir_give_the_union_of_the_exports(listing):
    # a fresh interpreter, where the listing is the package's first use
    exported = sorted({attr for name in MODULES for attr in _exports(name)})
    script = "import json, padiaphony\n" + listing + "print(json.dumps(sorted(names)))\n"
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == exported
