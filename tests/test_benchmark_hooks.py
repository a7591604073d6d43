"""The benchmark's per-layer tracer wraps phonodec names that must exist.

perfbench/tracer.py replaces module-level functions by name; a refactor that
drops one of them, or moves work out of one it times, silently removes that
work from its layer of the traced benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from phonodec import runs

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


def test_write_csv_writes_what_to_csv_returns(monkeypatch, tmp_path):
    # the tracer times runs.to_csv as runs.csv_busy_s and counts its returned
    # text as runs.csv_bytes; rendering outside it would escape both
    sentinel = "# sentinel = \u03b3\nt_s\n1.0\n"
    monkeypatch.setattr(runs, "to_csv", lambda run: sentinel)
    path = tmp_path / "x.csv"
    runs.write_csv(None, path)
    assert path.read_bytes() == sentinel.encode("utf-8")
