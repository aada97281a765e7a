"""The benchmark's tracer hooks program attributes by name; they must exist and come back.

``perfbench/spans.py`` swaps each hooked module attribute for a span
wrapper while installed. Dropping or renaming one of those attributes in
``src/`` makes ``Tracer().installed()`` raise AttributeError, so
``perfbench/run.py --trace 1`` stops working.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pcorient.cli

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_hooks_exist_and_are_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    before = [getattr(mod, attr) for mod, attr, _, _ in spans._HOOKS]
    routes = dict(pcorient.cli._DECISION_SOLVERS)
    with spans.Tracer().installed():
        during = [getattr(mod, attr) for mod, attr, _, _ in spans._HOOKS]
        assert all(a is not b for a, b in zip(before, during))
        assert all(pcorient.cli._DECISION_SOLVERS[r] is not routes[r] for r in spans._ROUTE_SPANS)
    assert [getattr(mod, attr) for mod, attr, _, _ in spans._HOOKS] == before
    assert pcorient.cli._DECISION_SOLVERS == routes
