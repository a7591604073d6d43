"""The benchmark's per-layer tracer wraps phonodec names that must exist.

perfbench/tracer.py replaces module-level functions by name; a refactor that
drops one of them silently removes that layer from the traced benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("target", sorted({**tracer.TARGETS, **tracer.COUNTED}))
def test_traced_name_is_a_phonodec_callable(target):
    module_name, name = target.split(".")
    module = importlib.import_module(f"phonodec.{module_name}")
    assert callable(getattr(module, name, None)), f"phonodec.{target} is gone"
