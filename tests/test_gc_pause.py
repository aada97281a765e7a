"""``cli.main`` pauses the cyclic collector per command, and nothing needs it.

A command runs with the collector off, so any reference cycle it leaves
stays in memory until something collects. Each command here is run with
the collector disabled, and ``gc.collect()`` afterwards must find
nothing. ``main`` restores the caller's collector state on every exit,
and no module but ``cli`` touches ``gc``: the library leaves it alone.
"""

from __future__ import annotations

import ast
import gc
from pathlib import Path

import pytest

import pcorient
from pcorient import cli, eo2dec, io
from pcorient.core import Orientation

from util import cycle_edges, even_parity, exact, inst, path_edges, subset

# One document per route, plus one the branching search exhausts.
DOCS = {
    "pco": inst(4, cycle_edges(4), even_parity(4)),
    "pco-2dec": inst(3, path_edges(3), {1: 1}, (exact(1, 0, 1),)),
    "pco-dec": inst(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)], {1: 1, 3: 1}, (exact(0, 0, 1, 2), exact(2, 3, 4))),
    "pco-dsc": inst(4, cycle_edges(4), even_parity(4), (subset(0, 0, 3), subset(2, 1, 2))),
    "pco-ec-fpt": inst(6, cycle_edges(6), even_parity(6), (exact(0, 0, 5), exact(0, 0), subset(2, 1, 2), exact(4, 3, 4))),
    "pco-sc-fpt": inst(6, cycle_edges(6), even_parity(6), (subset(0, 0, 5), subset(0, 0), subset(2, 1, 2), subset(4, 3))),
    "fpt-infeasible": inst(4, cycle_edges(4), {**even_parity(4), 3: 1}, (subset(0, 0, 3), exact(2, 1, 2))),
    "single-edge-exact": inst(3, path_edges(3), conflicts=(exact(1, 0),)),
}


@pytest.fixture(autouse=True)
def collector_state():
    """Leave the collector as this test found it, whatever the test does."""
    was = gc.isenabled()
    yield
    if was:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("gc")
    paths = {name: tmp / f"{name}.json" for name in DOCS}
    for name, i in DOCS.items():
        paths[name].write_text(io.serialize_instance(i))
    paths["heads"] = tmp / "heads.txt"
    paths["heads"].write_text("1\n1\n3\n3\n")
    paths["formula"] = tmp / "formula.txt"
    paths["formula"].write_text("1 2 3\n-1 2 4\n")
    paths["bad"] = tmp / "bad.json"
    paths["bad"].write_text('{"version": 1')
    paths["out"] = tmp / "out.txt"
    paths["labels"] = tmp / "labels.json"
    # numpy's first import leaves cyclic garbage of its own; pay it here.
    assert cli.main(["oracle", str(paths["pco"]), "-o", str(paths["out"])]) == 0
    gc.collect()
    return paths


COMMANDS = {
    **{f"solve-{name}": (["solve", f"@{name}", "-v", "-o", "@out"], 0) for name in DOCS if name.startswith("pco")},
    "solve-fpt-infeasible": (["solve", "@fpt-infeasible", "-v"], 1),
    "oracle": (["oracle", "@pco-ec-fpt", "-o", "@out"], 0),
    "oracle-decision": (["oracle", "@pco-ec-fpt", "--decision", "-o", "@out"], 0),
    "oracle-decision-infeasible": (["oracle", "@fpt-infeasible", "--decision"], 1),
    "verify": (["verify", "@pco", "@heads"], 0),
    "export-dot": (["export-dot", "@pco", "--orientation", "@heads", "-o", "@out"], 0),
    "generate-ec": (["generate", "ec", "@formula", "-o", "@out"], 0),
    "generate-ec-labels": (["generate", "ec", "@formula", "-o", "@out", "--labels", "@labels"], 0),
    "exit-2": (["solve", "@bad"], 2),
    "exit-3": (["solve", "@single-edge-exact", "--solver", "pco-dec"], 3),
}


def _argv(files, argv):
    """Each ``@name`` becomes the path of that file."""
    return [str(files[a[1:]]) if a.startswith("@") else a for a in argv]


@pytest.mark.parametrize("command", COMMANDS)
def test_no_command_leaves_cyclic_garbage(command, files, capsys):
    argv, code = COMMANDS[command]
    argv = _argv(files, argv)
    gc.disable()
    gc.collect()
    assert cli.main(argv) == code
    assert gc.collect() == 0
    capsys.readouterr()


def test_a_route_fault_leaves_no_cyclic_garbage(files, monkeypatch, capsys):
    # The route's self-check turns the malformed orientation into exit 4.
    def off_the_graph(con, o):
        return Orientation((10**6,) * len(o.heads))

    monkeypatch.setattr(eo2dec, "expand_orientation", off_the_graph)
    gc.disable()
    gc.collect()
    assert cli.main(["solve", str(files["pco-dsc"])]) == 4
    assert gc.collect() == 0
    assert "internal error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["exit-2", "exit-3", "solve-fpt-infeasible", "solve-pco"])
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_restores_the_collector(command, enabled, files, monkeypatch, capsys):
    seen = []
    solve = cli._DECISION_SOLVERS["pco"]

    def spy(i):
        seen.append(gc.isenabled())
        return solve(i)

    monkeypatch.setitem(cli._DECISION_SOLVERS, "pco", spy)
    gc.enable() if enabled else gc.disable()
    argv, code = COMMANDS[command]
    assert cli.main(_argv(files, argv)) == code
    assert gc.isenabled() is enabled
    assert seen == ([False] if command == "solve-pco" else [])
    capsys.readouterr()


def test_main_restores_the_collector_after_exit_4(files, monkeypatch, capsys):
    def broken(i):
        raise KeyError("lost vertex")

    monkeypatch.setitem(cli._DECISION_SOLVERS, "pco", broken)
    gc.enable()
    assert cli.main(["solve", str(files["pco"])]) == 4
    assert gc.isenabled()
    capsys.readouterr()


@pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit], ids=["interrupt", "exit"])
def test_main_restores_the_collector_after_an_exception_it_does_not_catch(exc, files, monkeypatch):
    def interrupted(i):
        assert not gc.isenabled()
        raise exc()

    monkeypatch.setitem(cli._DECISION_SOLVERS, "pco", interrupted)
    gc.enable()
    with pytest.raises(exc):
        cli.main(["solve", str(files["pco"])])
    assert gc.isenabled()


@pytest.mark.parametrize("argv", [["solve", "--no-such-flag", "x"], ["--help"], ["solve"]], ids=["bad-flag", "help", "missing"])
def test_argparse_exits_before_the_pause(argv, monkeypatch, capsys):
    paused = []
    monkeypatch.setattr(gc, "disable", lambda: paused.append(True))
    gc.enable()
    with pytest.raises(SystemExit):
        cli.main(argv)
    assert gc.isenabled() and paused == []
    capsys.readouterr()


def test_only_cli_touches_gc():
    found = []
    for path in sorted(Path(pcorient.__file__).parent.rglob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Name):
                names = [node.id]
            if "gc" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
