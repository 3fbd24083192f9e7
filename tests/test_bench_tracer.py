"""The benchmark tracer wraps mrdist functions by name, so each name it
lists must still be a function of its module: a deleted or renamed one
would only show when a traced benchmark run fails."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _traced() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


TRACED_NAMES = [(layer, name) for layer, names in _traced().items() for name in names]


def test_tracer_lists_names():
    assert len(TRACED_NAMES) >= 10


@pytest.mark.parametrize("layer, name", TRACED_NAMES, ids=map(".".join, TRACED_NAMES))
def test_traced_name_is_a_callable_of_its_layer(layer, name):
    module = importlib.import_module(f"mrdist.{layer}")
    assert callable(getattr(module, name, None)), f"mrdist.{layer}.{name}"
