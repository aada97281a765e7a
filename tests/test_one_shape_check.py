"""Which conflict shapes each route takes is stated in ``core`` alone.

``core.fits`` is the one predicate that ``pick_route`` and every route's
entry call. A module outside ``core`` that reads ``pairwise_disjoint``
itself has grown a shape check of its own beside it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pcorient


def test_only_core_reads_pairwise_disjoint():
    found = []
    for path in sorted(Path(pcorient.__file__).parent.rglob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "pairwise_disjoint":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
