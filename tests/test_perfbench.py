"""The per-layer tracer of the benchmark wraps functions that exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, function in tracer.LAYERS:
        target = importlib.import_module(f"clockprobe.{module}")
        assert callable(getattr(target, function, None)), f"{module}.{function}"
