"""The names the benchmark's tracer wraps exist where it looks them up.

``perfbench/tracing.py`` replaces each name in its ``_TARGETS`` at the
module globals its callers read.  A refactor that drops one of those names
breaks only traced benchmark runs, so this checks them here, without
installing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [
    (module_name, attr)
    for module_name, names in _load_tracing()._TARGETS.items()
    for attr in names
]


def test_targets_are_listed():
    assert TARGETS


@pytest.mark.parametrize("module_name, attr", TARGETS, ids=lambda x: x)
def test_traced_name_is_a_callable_module_attribute(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
