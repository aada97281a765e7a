"""Outside-in tracing of a solve: spans around the calls between layers.

Each layer entry point is replaced, while the tracer is installed, by a
wrapper bound to the attribute of the module that calls it, so the
program's own files are not touched. A span has a name, a start, an end
and the index of its parent span, plus a few counts read off the call's
arguments and result. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator, NamedTuple

import pcorient.cli
import pcorient.eo2dec
import pcorient.fpt
import pcorient.io
import pcorient.pco
import pcorient.reductions

Counter = Callable[[tuple, Any], dict[str, int]]


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a solve's root span
    counts: dict[str, int]


def _matching(args: tuple, result: Any) -> dict[str, int]:
    mate = result.mate
    exposed = mate.count(-1)
    return {"nodes": len(mate), "size": (len(mate) - exposed) // 2, "exposed": exposed}


def _lprime(args: tuple, result: Any) -> dict[str, int]:
    return {"links": len(result.links)}


def _reduced(args: tuple, result: Any) -> dict[str, int]:
    return {"edges": result[0].graph.edge_count}


def _leaf(args: tuple, result: Any) -> dict[str, int]:
    return {"feasible": int(result.feasible)}


# (module, attribute, span name, counter). Each attribute is the name the
# calling module looks up at call time, so wrapping it there catches every
# call that layer makes.
_HOOKS: tuple[tuple[Any, str, str, Counter | None], ...] = (
    (pcorient.io, "parse_instance", "io.parse", None),
    (pcorient.io, "serialize_orientation", "io.serialize", None),
    (pcorient.cli, "solve_pco_2dec", "eo2dec.engine", None),
    (pcorient.pco, "_solve", "pco.solve", None),
    (pcorient.pco, "contract_forced", "core.contract_forced", None),
    (pcorient.pco, "components", "core.components", None),
    (pcorient.eo2dec, "contract_forced", "core.contract_forced", None),
    (pcorient.eo2dec, "normalize", "core.normalize", None),
    (pcorient.eo2dec, "verify", "core.verify", None),
    (pcorient.eo2dec, "build_lprime", "eo2dec.lprime", _lprime),
    (pcorient.eo2dec, "max_matching", "matching.max_matching", _matching),
    (pcorient.eo2dec, "matching_to_orientation", "eo2dec.assemble", None),
    (pcorient.eo2dec, "pco_to_eo", "reductions.reduce", _reduced),
    (pcorient.eo2dec, "pco_dec_to_eo_2dec", "reductions.reduce", _reduced),
    (pcorient.eo2dec, "eo_dsc_to_eo_2dec", "reductions.reduce", _reduced),
    (pcorient.eo2dec, "pull_back", "reductions.pull_back", None),
    (pcorient.reductions, "emit_network", "switching.emit", None),
    (pcorient.fpt, "solve_pco", "fpt.leaf", _leaf),
    (pcorient.fpt, "verify", "core.verify", None),
)

# The CLI dispatches decision routes through a table built at import.
_ROUTE_SPANS = {
    "pco-dec": "eo2dec.decide",
    "pco-dsc": "eo2dec.decide",
    "pco-ec-fpt": "fpt.branch",
    "pco-sc-fpt": "fpt.branch",
}


class Tracer:
    """In-memory span recorder for one benchmark run, one thread."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, counter: Counter | None = None) -> Callable:
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, {})
            if counter is not None:
                self.spans[index].counts.update(counter(args, result))
            return result

        return traced

    def solve(self, fn: Callable, *args) -> Any:
        """Call fn as the root span of one traced solve."""
        return self.wrap("solve", fn)(*args)

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Route the hooked calls through span wrappers; restore them on exit."""
        table = pcorient.cli._DECISION_SOLVERS
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in _HOOKS]
        saved_routes = dict(table)
        try:
            for mod, attr, name, counter in _HOOKS:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr), counter))
            for route, name in _ROUTE_SPANS.items():
                table[route] = self.wrap(name, table[route])
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)
            table.update(saved_routes)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part of it that child spans cover."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent >= 0:
                children[s.parent].append(s)
        out = []
        for i, s in enumerate(self.spans):
            covered = 0.0
            reach = s.start
            for c in sorted(children[i], key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(s.end - s.start - covered)
        return out

    def solve_index(self) -> list[int]:
        """Per span: the number of the traced solve it belongs to, from 0."""
        out: list[int] = []
        k = -1
        for i, s in enumerate(self.spans):
            if s.parent < 0:
                k += 1
            out.append(k)
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent, counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.counts]) + "\n")
