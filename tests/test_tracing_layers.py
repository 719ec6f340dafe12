"""The benchmark tracer's span table must name functions that exist.

``perfbench/tracing.py`` wraps every function in ``LAYERS`` by looking it
up on its module; a renamed or deleted library function would crash the
traced benchmark run instead of failing here.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for layer, names in tracing.LAYERS.items():
        module = importlib.import_module(f"magicsets.{layer}")
        missing += [f"{layer}.{n}" for n in names if not callable(getattr(module, n, None))]
    assert not missing
