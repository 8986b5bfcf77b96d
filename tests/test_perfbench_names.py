"""The benchmark's traced mode names real kgexplain functions.

``perfbench/tracer.py`` rebinds every name in its ``TRACED`` table with
``getattr``; a renamed or deleted function would make ``--trace 1`` stop
with ``AttributeError``. The tracer is loaded by path and only read.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for layer, names in tracer.TRACED.items():
        module = importlib.import_module(f"kgexplain.{layer}")
        for name in names:
            if isinstance(name, tuple):
                owner, attr = getattr(module, name[0], None), name[1]
            else:
                owner, attr = module, name
            if not callable(getattr(owner, attr, None)):
                missing.append(f"{layer}.{name}")
    assert missing == []
