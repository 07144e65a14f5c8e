"""The benchmark's per-layer tracer names only functions that exist.

``bench/run.py --trace`` replaces each ``(module, attribute)`` of
``bench/tracer.py``'s ``LAYERS`` by a wrapper, so deleting or renaming a
traced function breaks the traced run; this test makes that fail here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()
TRACED = [(layer, module, attr) for layer, pairs in tracer.LAYERS.items() for module, attr in pairs]


@pytest.mark.parametrize("layer, module, attr", TRACED, ids=[f"{m}.{a}" for _, m, a in TRACED])
def test_every_traced_function_resolves(layer, module, attr):
    importlib.import_module(module)
    owner, name = tracer._resolve(module, attr)
    assert callable(getattr(owner, name, None)), f"{layer}: {module}.{attr} is gone"
