"""The benchmark's probes and imports still resolve against the package.

perfbench/ traces a run by patching functions at the names their callers
look up, and reports a metric as null when its probe no longer resolves.
These tests fail first instead, when a rename or a deletion in src/ would
leave a probe or an import of the benchmark pointing at nothing.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_every_probe_resolves(spans):
    unresolved = [
        f"{module}.{path}" for module, path, _ in spans.PROBES
        if spans._resolve(module, path) is None
    ]
    assert unresolved == []


def test_names_the_workloads_import_exist():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pointcutmix")
        for alias in node.names
    ]
    assert {name for _, name in imported} >= {"parse_off", "sample_surface", "make_stream"}
    missing = [
        f"{module}.{name}" for module, name in imported
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
