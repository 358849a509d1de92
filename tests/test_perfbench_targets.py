"""The benchmark imports capsub names and its tracer wraps capsub functions by name.

Every ``perfbench`` file is read as source rather than imported, so these
guards write nothing beside the files and leave no module behind. A capsub name the
benchmark still uses cannot be deleted without failing here.
"""

import ast
import importlib
import sys
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def test_every_traced_name_resolves_in_capsub(monkeypatch):
    spans = types.ModuleType("perfbench_spans")
    monkeypatch.setitem(sys.modules, spans.__name__, spans)  # dataclasses look the module up
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), spans.__dict__)
    assert spans.TARGETS
    missing = [f"capsub.{module}.{name}" for module, name, _counter in spans.TARGETS
               if not callable(getattr(importlib.import_module(f"capsub.{module}"), name, None))]
    assert missing == []


def test_every_name_perfbench_imports_from_capsub_resolves():
    imported = []
    for path in sorted(PERFBENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "capsub":
                imported += [(path.relative_to(PERFBENCH), node.module, alias.name)
                             for alias in node.names]
    assert imported
    missing = [f"{source}: from {module} import {name}" for source, module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
