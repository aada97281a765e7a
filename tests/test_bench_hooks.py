"""The benchmark's tracer hooks program attributes by name; they must exist and come back.

``perfbench/spans.py`` swaps each hooked module attribute for a span
wrapper while installed. Dropping or renaming one of those attributes in
``src/`` makes ``Tracer().installed()`` raise AttributeError, so
``perfbench/run.py --trace 1`` stops working. A stage that the program
binds at import, instead of looking it up in its module at call time,
escapes the wrapper; the decision routes and ``tests/data/slot_growth.py``
must still see every stage.
"""

from __future__ import annotations

import importlib
from pathlib import Path
from random import Random

import pytest

import pcorient.cli
from pcorient import Instance, io

from util import exact, inst, random_regular_multigraph, subset

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
DATA = Path(__file__).resolve().parent / "data"


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


@pytest.mark.parametrize("kind, route", [(exact, "pco-dec"), (subset, "pco-dsc")], ids=["pco-dec", "pco-dsc"])
def test_decision_solves_span_every_stage(kind, route, monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (1, 3), (3, 4)]
    i = inst(5, edges, {0: 1, 1: 0, 2: 1, 3: 0}, conflicts=(kind(0, 0, 1, 2),), forced={6: 4})
    doc, out = tmp_path / "instance.json", tmp_path / "heads.txt"
    doc.write_text(io.serialize_instance(i))
    tracer = spans.Tracer()
    with tracer.installed():
        assert pcorient.cli.main(["solve", str(doc), "-v", "-o", str(out)]) == 0
    assert capsys.readouterr().err == f"route: {route}\n"
    stages = {
        "eo2dec.lprime", "matching.max_matching", "eo2dec.assemble", "reductions.reduce",
        "reductions.pull_back", "core.normalize", "core.contract_forced", "core.verify",
    }
    assert stages <= {s.name for s in tracer.spans}


def test_slot_growth_times_every_stage(monkeypatch):
    monkeypatch.syspath_prepend(str(DATA))
    slot_growth = importlib.import_module("slot_growth")
    spent = slot_growth.timed_solve(Instance(random_regular_multigraph(Random(7), 40, 4)))
    assert all(spent[name] > 0 for name, _ in slot_growth.STAGES)
