"""Every function the traced benchmark wraps still exists in its obgcs module.

The tracer in bench/tracing.py looks each name up with getattr, so a deleted
or renamed function breaks only the traced benchmark run; this test catches
that in the tier-1 suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced_table():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


TRACED = [(layer, name) for layer, names in _traced_table().items() for name in names]


@pytest.mark.parametrize("layer,name", TRACED, ids=[f"{a}.{b}" for a, b in TRACED])
def test_traced_name_resolves(layer, name):
    obj = importlib.import_module(f"obgcs.{layer}")
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
