"""The traced benchmark pass patches package functions by name; each name must still resolve.

Only ``perfbench/spans.py`` knows these names, and only a ``--trace`` pass would
otherwise notice a renamed or deleted one.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

import pareto_forge

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for mod_name in {mod_name for mod_name, _, _ in module.ENTRY_POINTS}:
        importlib.import_module(f"pareto_forge.{mod_name}")
    return module


def _bindings(spans):
    """(owner, attribute, current binding) of every patched name, the simplex solve included."""
    rows = []
    for mod_name, path, _ in spans.ENTRY_POINTS:
        owner, attr = spans._resolve(getattr(pareto_forge, mod_name), path)
        rows.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
    simplex = pareto_forge.lp.SimplexSolver
    rows.append((simplex, "solve", simplex.__dict__["solve"]))
    return rows


def test_every_entry_point_resolves(spans):
    for mod_name, path, _ in spans.ENTRY_POINTS:
        owner, attr = spans._resolve(getattr(pareto_forge, mod_name), path)
        assert callable(getattr(owner, attr)), f"{mod_name}.{path}"


def test_uninstall_restores_every_binding(spans):
    before = _bindings(spans)
    recorder = spans.SpanRecorder(pareto_forge)
    recorder.install()
    try:
        patched = [getattr(owner, attr) for owner, attr, _ in before]
        assert all(now is not original for now, (_, _, original) in zip(patched, before))
    finally:
        recorder.uninstall()
    for owner, attr, original in before:
        now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is original, f"{owner.__name__}.{attr}"
