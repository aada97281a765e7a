"""No module in the package or its tests imports a name it never uses.

A module-level import counts as used when its name appears as a name
anywhere in the module or is listed in ``__all__``; an import inside a
function counts as used when its name appears in that function.
``__future__`` imports are skipped, and so is an import marked
``# noqa: F401``, which keeps a name in place for code that looks it up
by name.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pcorient

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _scoped_imports(tree: ast.Module) -> list[tuple[ast.Import | ast.ImportFrom, ast.AST]]:
    """Every import, each with the innermost function holding it, or the module."""
    found = []

    def visit(node: ast.AST, scope: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                found.append((child, scope))
            visit(child, child if isinstance(child, _FUNCTIONS) else scope)

    visit(tree, tree)
    return found


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used: dict[ast.AST, set[str]] = {}
    found = []
    for node, scope in _scoped_imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        if scope not in used:
            used[scope] = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
            if scope is tree:
                used[scope] |= exported
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in used[scope]:
                found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_no_module_level_import_goes_unused():
    package = sorted(Path(pcorient.__file__).parent.glob("*.py"))
    tests = sorted(Path(__file__).parent.glob("*.py"))
    found = [hit for path in package + tests for hit in _unused_imports(path)]
    assert not found, found


def test_an_import_counts_only_where_its_function_uses_it(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import json\n"
        "\n"
        "def dump(x):\n"
        "    import json as js\n"
        "    import os\n"
        "    return js.dumps(x), json\n"
        "\n"
        "def load(x):\n"
        "    import sys\n"
        "    return os.fspath(x)\n",
        encoding="utf-8",
    )
    assert _unused_imports(path) == ["mod.py:5 os", "mod.py:9 sys"]
