"""No module in the package or its tests imports a name it never uses.

A module-level import counts as used when its name appears as a name
anywhere in the module or is listed in ``__all__``. ``__future__``
imports are skipped, and so is an import marked ``# noqa: F401``, which
keeps a name in place for code that looks it up by name.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pcorient


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in used:
                found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_no_module_level_import_goes_unused():
    package = sorted(Path(pcorient.__file__).parent.glob("*.py"))
    tests = sorted(Path(__file__).parent.glob("*.py"))
    found = [hit for path in package + tests for hit in _unused_imports(path)]
    assert not found, found
