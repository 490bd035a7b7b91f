"""The benchmark's traced mode rebinds package names; every one must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "cwbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("cwbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    bindings = load_tracing().BINDINGS
    # the tracer also replaces search.Point2 to count the points a search builds
    pairs = [(module, name) for module, name, _ in bindings] + [("search", "Point2")]
    missing = [
        f"{module}.{name}"
        for module, name in pairs
        if not hasattr(importlib.import_module(f"circuitwalks.{module}"), name)
    ]
    assert not missing
    assert len(pairs) > 40
