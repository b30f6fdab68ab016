"""The benchmark's traced runs wrap package functions by name
(``bench/tracer.py``); a renamed function would crash them."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{layer}.{name}"
        for layer, name in tracer.TRACED
        if not callable(getattr(importlib.import_module(f"{tracer.PACKAGE}.{layer}"), name, None))
    ]
    assert tracer.TRACED and not missing
