"""The benchmark's tracer wraps capsub functions by module-global name.

``perfbench/spans.py`` is compiled from its source rather than imported, so
this guard writes nothing beside it and leaves no module behind.
"""

import importlib
import sys
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves_in_capsub(monkeypatch):
    spans = types.ModuleType("perfbench_spans")
    monkeypatch.setitem(sys.modules, spans.__name__, spans)  # dataclasses look the module up
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), spans.__dict__)
    assert spans.TARGETS
    missing = [f"capsub.{module}.{name}" for module, name, _counter in spans.TARGETS
               if not callable(getattr(importlib.import_module(f"capsub.{module}"), name, None))]
    assert missing == []
