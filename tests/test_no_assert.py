"""Correctness checks in the package raise; none is a bare ``assert``.

``python -O`` strips assert statements, so a check written as one would
silently stop guarding anything.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pcorient


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(Path(pcorient.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
