"""The benchmark's tracer interposes on program names: they must exist."""

import importlib
import importlib.util
from pathlib import Path

from mars.data import RawTable

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = load_tracing().TARGETS
    assert targets
    for module_name, attr, _ in targets:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)
    assert isinstance(RawTable.__dict__["from_csv"], classmethod)
