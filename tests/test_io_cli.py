"""Document parsing, DOT export, and the command-line front end."""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from pcorient import PcoResult, cli, core, eo2dec, fpt, io, parse_formula, reduce_to_pco_2ec, reduce_to_pco_2sc
from pcorient.cli import main, pick_route
from pcorient.core import Conflict, ConflictKind, Instance, Multigraph, Orientation, verify
from pcorient.errors import InvalidDocumentError, InvalidInstanceError
from pcorient.matching import Matching
from pcorient.oracle import decide_feasible

from networks import build_switching_network
from util import (
    cycle_edges,
    even_parity,
    exact,
    inst,
    path_edges,
    rand_conflicts,
    rand_disjoint_conflicts,
    rand_disjoint_pairs,
    rand_forced,
    rand_graph,
    rand_parity,
    serialize_reference,
    subset,
)

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
DATA = Path(__file__).resolve().parent / "data"

MINIMAL = """
{
  "version": 1,
  "vertices": 2,
  "edges": [[0, 1]]
}
"""


def test_minimal_document_parses_with_empty_optionals():
    i = io.parse_instance(MINIMAL)
    assert i.graph.vertex_count == 2
    assert i.graph.edges == ((0, 1),)
    assert i.parity == {} and i.conflicts == () and i.forced == {}


def test_round_trip_is_canonical_on_seeded_instances():
    rng = random.Random(5)
    for _ in range(60):
        g = rand_graph(rng, nmax=6, mmax=10)
        kind = rng.choice([ConflictKind.EXACT, ConflictKind.SUBSET])
        i = inst(
            g.vertex_count,
            list(g.edges),
            parity=rand_parity(rng, g.vertex_count),
            conflicts=rand_conflicts(rng, g, kind),
            forced=rand_forced(rng, g),
        )
        text = io.serialize_instance(i)
        again = io.parse_instance(text)
        assert again == i
        assert io.serialize_instance(again) == text


def sweep_instance(rng: random.Random) -> Instance:
    """10-40 vertices, so string and numeric key order differ, plus a hub
    of degree 10-14 whose conflict can reach 10 members; any field may be empty."""
    g = rand_graph(rng, nmin=10, nmax=40, mmin=0, mmax=60)
    n = g.vertex_count
    hub = rng.randrange(n)
    spokes = [(hub, rng.choice([w for w in range(n) if w != hub])) for _ in range(rng.randint(10, 14))]
    g = Multigraph(n, g.edges + tuple(spokes))
    conflicts = rand_conflicts(rng, g, None, max_count=4, max_size=5)
    if rng.random() < 0.5:
        wide = rng.sample(g.incident(hub), rng.randint(10, g.degree(hub)))
        conflicts += (Conflict(hub, frozenset(wide), rng.choice(list(ConflictKind))),)
    return Instance(
        g,
        rand_parity(rng, n, rng.choice([0.0, 0.7, 1.0])),
        conflicts,
        rand_forced(rng, g, rng.choice([0.0, 0.15, 0.5])),
    )


def test_writer_matches_json_on_seeded_instances():
    rng = random.Random(25)
    for trial in range(300):
        i = sweep_instance(rng)
        assert io.serialize_instance(i) == serialize_reference(i), f"trial {trial}"


@pytest.mark.parametrize(
    "i",
    [
        inst(0, []),
        inst(2, [(0, 1)]),
        inst(12, path_edges(12), parity={v: v % 2 for v in range(12)}),
        inst(12, path_edges(12), forced={e: e + 1 for e in range(11)}),
        inst(3, path_edges(3), conflicts=(Conflict(1, frozenset(), ConflictKind.EXACT),)),
        inst(13, [(0, v) for v in range(1, 13)], conflicts=(subset(0, *range(12)), exact(0, *range(10)))),
    ],
    ids=["empty", "edges-only", "parity-only", "forced-only", "empty-conflict", "wide-conflicts"],
)
def test_writer_matches_json_on_empty_and_wide_fields(i):
    assert io.serialize_instance(i) == serialize_reference(i)


@pytest.mark.parametrize(
    "i",
    [
        inst(2, [(0, 1)], parity={0: True, 1: False}, forced={0: True}),
        inst(2**64 + 1, [(2**63, 2**64)], parity={2**63: 1, 0: 2**70}, forced={0: 2**64}),
        inst(2, [(0, 1)], parity={0: 1.0, True: -1}, forced={0: None}),
        inst(2, [(0, 1)], parity={0: [1, [0, {"b": 1, "a": []}]]}, forced={0: {"x": [2], "\u00e9\n": '"'}}),
        inst(2, [(0, 1)], conflicts=(Conflict(True, frozenset([0.5, 2**64]), ConflictKind.SUBSET),)),
    ],
    ids=["bools", "above-2**63", "float-none-bool-key", "nested", "odd-conflict"],
)
def test_writer_falls_back_to_json_for_values_other_than_ints(i):
    assert io.serialize_instance(i) == serialize_reference(i)


def test_writer_matches_json_on_benchmark_documents(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import run

    for name in run._workloads():
        for seed in (1, 2):
            for p in run._generate(name, seed):
                assert io.serialize_instance(p.instance) == serialize_reference(p.instance), p.name


def test_writer_matches_json_on_hardness_and_network_instances(tmp_path):
    formulas = [(DATA / "one_in_three_sat.txt").read_text(), "1 2 3\n", "1 2 3\n-1 -2 4\n2 3 -4\n1 -3 5\n"]
    out = tmp_path / "doc.json"
    for text in formulas:
        formula = tmp_path / "f.txt"
        formula.write_text(text)
        for construction, reduce in (("ec", reduce_to_pco_2ec), ("sc", reduce_to_pco_2sc)):
            assert main(["generate", construction, str(formula), "-o", str(out)]) == 0
            assert out.read_text() == serialize_reference(reduce(parse_formula(text)).instance)
    for k in range(2, 10):
        i = build_switching_network(k).instance
        assert io.serialize_instance(i) == serialize_reference(i), f"k={k}"


def test_parse_rejects_unknown_fields():
    doc = json.loads(MINIMAL)
    doc["extra"] = 1
    with pytest.raises(InvalidDocumentError, match="unknown fields: extra"):
        io.parse_instance(json.dumps(doc))


def test_parse_rejects_wrong_version():
    doc = json.loads(MINIMAL)
    doc["version"] = 2
    with pytest.raises(InvalidDocumentError, match="unsupported version 2"):
        io.parse_instance(json.dumps(doc))


TWO_EDGES = {"version": 1, "vertices": 2, "edges": [[0, 1], [0, 1]]}


@pytest.mark.parametrize("value", [True, 1.0], ids=["true", "float"])
@pytest.mark.parametrize(
    "change, message",
    [
        ({"version": "X"}, "unsupported version"),
        ({"vertices": "X"}, "field 'vertices' must be an integer"),
        ({"edges": [[0, 1], [0, "X"]]}, "edges[1] must be a pair of vertex ids"),
        ({"edges": [["X", 0], [0, 1]]}, "edges[0] must be a pair of vertex ids"),
        ({"parity": {"0": "X"}}, "field 'parity': value for '0' must be an integer"),
        ({"forced": {"0": "X"}}, "field 'forced': value for '0' must be an integer"),
        ({"conflicts": [{"vertex": "X", "edges": [0, 1], "kind": "exact"}]}, "conflicts[0].vertex must be an integer"),
        ({"conflicts": [{"vertex": 1, "edges": [0, "X"], "kind": "exact"}]}, "conflicts[0].edges must be a list"),
    ],
    ids=["version", "vertices", "edge-head", "edge-tail", "parity", "forced", "conflict-vertex", "conflict-member"],
)
def test_parse_rejects_true_and_floats_in_integer_fields(change, message, value):
    # True == 1 and 1.0 == 1, but neither is a JSON integer.
    text = json.dumps({**TWO_EDGES, **change}).replace('"X"', json.dumps(value))
    with pytest.raises(InvalidDocumentError, match=re.escape(message)):
        io.parse_instance(text)


def test_solve_exits_2_on_version_true(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**TWO_EDGES, "version": True}))
    assert main(["solve", str(path)]) == 2
    assert "unsupported version True, expected 1" in capsys.readouterr().err


def test_parse_rejects_bad_conflict_kind():
    doc = json.loads(MINIMAL)
    doc["conflicts"] = [{"vertex": 0, "edges": [0], "kind": "both"}]
    with pytest.raises(InvalidDocumentError, match="must be 'exact' or 'subset', got 'both'"):
        io.parse_instance(json.dumps(doc))


@pytest.mark.parametrize(
    "edges, index",
    [
        ([[0, 1], [0], [True, 0], [0, 1, 2]], 1),
        ([[0, 1], [0, 1], [True, 0]], 2),
        ([[True, 0]], 0),
        ([[0, 1, 2]], 0),
        ([[0]], 0),
        ([[0, 1], {"0": 0, "1": 1}], 1),
        ([[0, 1], "01"], 1),
        ([[0, 1], [0, 1.0], None], 1),
    ],
    ids=["several", "last", "true", "triple", "single", "object", "string", "float"],
)
def test_parse_names_the_first_bad_edge(edges, index):
    text = json.dumps({**TWO_EDGES, "edges": edges})
    with pytest.raises(InvalidDocumentError, match=re.escape(f"edges[{index}] must be a pair of vertex ids")):
        io.parse_instance(text)


def test_parse_rejects_malformed_edge_entry():
    doc = json.loads(MINIMAL)
    doc["edges"] = [[0, 1, 2]]
    with pytest.raises(InvalidDocumentError, match=r"edges\[0\] must be a pair"):
        io.parse_instance(json.dumps(doc))


def test_parse_locates_json_syntax_errors():
    with pytest.raises(InvalidDocumentError, match="line 2, column"):
        io.parse_instance('{\n  "version": 1,,\n}')


def test_parse_rejects_non_integer_parity_key():
    doc = json.loads(MINIMAL)
    doc["parity"] = {"a": 0}
    with pytest.raises(InvalidDocumentError, match="key 'a' is not an integer"):
        io.parse_instance(json.dumps(doc))


@pytest.mark.parametrize(
    "field, value, key",
    [
        ("parity", {"1": 0, "01": 1}, "01"),
        ("parity", {"1_0": 0}, "1_0"),
        ("forced", {" 0": 1}, " 0"),
        ("forced", {"+0": 1}, "+0"),
    ],
    ids=["leading-zero-alias", "underscore", "space", "plus-sign"],
)
def test_parse_rejects_non_canonical_id_keys(field, value, key, tmp_path, capsys):
    doc = json.loads(MINIMAL)
    doc[field] = value
    text = json.dumps(doc)
    with pytest.raises(InvalidDocumentError, match=re.escape(f"field '{field}': key {key!r}")):
        io.parse_instance(text)
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main(["solve", str(path)]) == 2
    assert "not a canonical integer" in capsys.readouterr().err


def test_parse_rejects_a_duplicate_parity_key():
    text = '{"version": 1, "vertices": 2, "edges": [[0, 1]], "parity": {"1": 0, "1": 1}}'
    with pytest.raises(InvalidDocumentError, match="duplicate key '1'"):
        io.parse_instance(text)


def test_solve_exits_2_on_a_duplicate_top_level_key(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text('{"version": 1, "vertices": 2, "vertices": 3, "edges": [[0, 1]]}')
    assert main(["solve", str(path)]) == 2
    assert "duplicate key 'vertices'" in capsys.readouterr().err


TRIANGLE_REPEATED_MEMBER = json.dumps(
    {
        "version": 1,
        "vertices": 3,
        "edges": [[0, 1], [1, 2], [0, 2]],
        "parity": {"0": 0, "1": 0, "2": 0},
        "conflicts": [{"vertex": 0, "edges": [0, 0], "kind": "subset"}],
    }
)


def test_parse_rejects_a_repeated_conflict_member():
    with pytest.raises(InvalidDocumentError, match=re.escape("conflicts[0].edges repeats edge 0")):
        io.parse_instance(TRIANGLE_REPEATED_MEMBER)


def test_solve_exits_2_on_a_repeated_conflict_member(tmp_path, capsys):
    # Taken as a set, [0, 0] would be a one-edge subset conflict and the
    # triangle "infeasible".
    path = tmp_path / "doc.json"
    path.write_text(TRIANGLE_REPEATED_MEMBER)
    assert main(["solve", str(path)]) == 2
    assert "conflicts[0].edges repeats edge 0" in capsys.readouterr().err


def test_orientation_file_skips_comments_and_blanks():
    o = io.parse_orientation("# heads, one per edge\n\n1\n 2 \n")
    assert o == Orientation((1, 2))
    assert io.serialize_orientation(o) == "1\n2\n"


def test_orientation_file_reports_bad_line():
    with pytest.raises(InvalidDocumentError, match="line 3: expected a vertex id, got 'x'"):
        io.parse_orientation("0\n1\nx\n")


@pytest.mark.parametrize("line", ["1_0", "+10", "010"])
def test_orientation_file_rejects_non_canonical_ids(line, tmp_path, capsys):
    # Each line reads as 10 under int(), and 10 is a head of the edge.
    with pytest.raises(InvalidDocumentError, match=re.escape(f"line 2: vertex id {line!r} is not a canonical integer")):
        io.parse_orientation(f"# one edge\n{line}\n")
    doc = tmp_path / "doc.json"
    doc.write_text(io.serialize_instance(inst(11, [(0, 10)])))
    heads = tmp_path / "heads.txt"
    heads.write_text("10\n")
    assert main(["verify", str(doc), str(heads)]) == 0
    heads.write_text(f"{line}\n")
    assert main(["verify", str(doc), str(heads)]) == 2
    assert f"vertex id {line!r} is not a canonical integer" in capsys.readouterr().err


def test_export_dot_undirected():
    i = inst(3, path_edges(3), parity={1: 0})
    dot = io.export_dot(i)
    assert dot.startswith("graph g {\n")
    assert '  1 [label="1 p=0"];' in dot
    assert "  0;" in dot and "  2;" in dot
    assert '  0 -- 1 [label="e0"];' in dot
    assert '  1 -- 2 [label="e1"];' in dot


def test_export_dot_directed_tags_both_conflict_members():
    i = inst(3, path_edges(3), conflicts=[exact(1, 0, 1)])
    dot = io.export_dot(i, Orientation((1, 1)))
    assert dot.startswith("digraph g {\n")
    assert '  0 -> 1 [label="e0 c0:exact@1"];' in dot
    assert '  2 -> 1 [label="e1 c0:exact@1"];' in dot


def test_export_dot_rejects_mismatched_orientation():
    i = inst(3, path_edges(3))
    with pytest.raises(InvalidInstanceError, match="covers 1 edges, instance has 2"):
        io.export_dot(i, Orientation((1,)))


def test_pick_route_by_conflict_shape():
    c4 = cycle_edges(4)
    assert pick_route(inst(4, c4)) == "pco"
    assert pick_route(inst(4, c4, conflicts=[exact(0, 0, 3), exact(2, 1, 2)])) == "pco-2dec"
    assert pick_route(inst(4, c4, conflicts=[exact(0, 0, 3), exact(2, 1)])) == "pco-ec-fpt"
    assert pick_route(inst(4, [(0, 1)] * 3 + [(1, 2)], conflicts=[exact(1, 0, 1, 2)])) == "pco-dec"
    assert pick_route(inst(4, c4, conflicts=[subset(0, 0, 3)])) == "pco-dsc"
    assert pick_route(inst(4, c4, conflicts=[subset(0, 0, 3), subset(0, 0, 1)])) == "pco-sc-fpt"
    assert pick_route(inst(4, c4, conflicts=[exact(0, 0, 3), subset(2, 1, 2)])) == "pco-ec-fpt"


@pytest.fixture()
def c4_file(tmp_path):
    i = inst(4, cycle_edges(4), parity=even_parity(4))
    path = tmp_path / "c4.json"
    path.write_text(io.serialize_instance(i))
    return path


def test_cli_solve_writes_verifiable_orientation(c4_file, tmp_path):
    out = tmp_path / "heads.txt"
    assert main(["solve", str(c4_file), "-o", str(out)]) == 0
    i = io.parse_instance(c4_file.read_text())
    o = io.parse_orientation(out.read_text())
    assert verify(i, o).ok


def test_cli_solve_reports_infeasible(tmp_path, capsys):
    i = inst(3, cycle_edges(3), parity=even_parity(3))
    path = tmp_path / "tri.json"
    path.write_text(io.serialize_instance(i))
    assert main(["solve", str(path)]) == 1
    assert "infeasible" in capsys.readouterr().err


def test_cli_verbose_names_the_route(c4_file, capsys):
    assert main(["solve", str(c4_file), "-v", "-o", "-"]) == 0
    assert "route: pco\n" in capsys.readouterr().err


def test_cli_solver_override_can_hit_unsupported(tmp_path, capsys):
    i = inst(3, path_edges(3), conflicts=[exact(1, 0)])
    path = tmp_path / "single.json"
    path.write_text(io.serialize_instance(i))
    assert main(["solve", str(path), "--solver", "pco-dec"]) == 3
    assert "unsupported" in capsys.readouterr().err


def test_cli_max_parities_requires_the_exact_pair_route(c4_file, capsys):
    assert main(["solve", str(c4_file), "--max-parities"]) == 2
    assert "exact-pair route" in capsys.readouterr().err


def _document(tmp_path, name, i):
    path = tmp_path / f"{name}.json"
    path.write_text(io.serialize_instance(i))
    return path


@pytest.mark.parametrize("flags", [[], ["--max-parities"]], ids=["decision", "max-parities"])
def test_cli_pair_route_writes_a_feasible_orientation(tmp_path, capsys, flags):
    i = inst(4, cycle_edges(4), even_parity(4), (exact(0, 3, 0), exact(2, 1, 2)))
    path, out = _document(tmp_path, "pairs", i), tmp_path / "heads.txt"
    assert main(["solve", str(path), "-v", "-o", str(out), *flags]) == 0
    assert "route: pco-2dec\n" in capsys.readouterr().err
    assert verify(i, io.parse_orientation(out.read_text())).ok


def test_cli_pair_route_max_parities_writes_the_best_orientation(tmp_path, capsys):
    i = inst(3, cycle_edges(3), even_parity(3))
    path, out = _document(tmp_path, "tri", i), tmp_path / "heads.txt"
    assert main(["solve", str(path), "--solver", "pco-2dec", "--max-parities", "-o", str(out)]) == 1
    assert capsys.readouterr().err == "satisfied 2 of 3 parity constraints\n"
    assert len(verify(i, io.parse_orientation(out.read_text())).parity_violations) == 1


def test_cli_pair_route_reports_the_best_count_when_infeasible(tmp_path, capsys):
    path, out = _document(tmp_path, "tri", inst(3, cycle_edges(3), even_parity(3))), tmp_path / "heads.txt"
    assert main(["solve", str(path), "--solver", "pco-2dec", "-o", str(out)]) == 1
    assert capsys.readouterr().err == "infeasible; 2 of 3 parity constraints are satisfiable\n"
    assert not out.exists()


@pytest.mark.parametrize("flags", [[], ["--max-parities"]], ids=["decision", "max-parities"])
def test_cli_pair_route_unavoidable_conflict_is_infeasible(tmp_path, capsys, flags):
    i = inst(2, [(0, 1), (0, 1)], conflicts=(exact(0, 0, 1),), forced={0: 0, 1: 0})
    path, out = _document(tmp_path, "forced", i), tmp_path / "heads.txt"
    assert main(["solve", str(path), "-o", str(out), *flags]) == 1
    assert capsys.readouterr().err == "infeasible\n"
    assert not out.exists()


def test_cli_mixed_kinds_solve_on_the_branching_route(tmp_path, capsys):
    # Even C4: vertices 0 and 2 taking both their edges fires both
    # conflicts, so 1 and 3 must.
    i = inst(4, cycle_edges(4), even_parity(4), (subset(0, 0, 3), exact(2, 1, 2)))
    path, out = _document(tmp_path, "mixed", i), tmp_path / "heads.txt"
    assert main(["solve", str(path), "-v", "-o", str(out)]) == 0
    assert capsys.readouterr().err == "route: pco-ec-fpt\n"
    assert main(["verify", str(path), str(out)]) == 0
    assert capsys.readouterr().out == "ok\n"
    flipped = _document(tmp_path, "flipped", inst(4, cycle_edges(4), {**even_parity(4), 3: 1}, i.conflicts))
    assert main(["solve", str(flipped), "-o", str(out)]) == 1
    assert capsys.readouterr().err == "infeasible\n"


@pytest.mark.parametrize(
    "conflicts",
    [(exact(0, 0, 3), exact(2, 1)), (subset(0, 0, 3), subset(0, 0)), (subset(0, 0, 3), exact(2, 1, 2))],
    ids=["exact", "subset", "mixed"],
)
def test_cli_both_branching_names_write_the_same_bytes(tmp_path, conflicts):
    path = _document(tmp_path, "doc", inst(4, cycle_edges(4), even_parity(4), conflicts))
    written = []
    for route in ("pco-ec-fpt", "pco-sc-fpt"):
        out = tmp_path / f"{route}.txt"
        assert main(["solve", str(path), "--solver", route, "-o", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


# What still exits 3 on an auto-routed solve: forced edges that cut a
# conflict down on a decision route.
CUT_BY_FORCINGS = re.compile(
    r"unsupported: (a forced edge cut a conflict pair|forced edges shrink an exact conflict"
    r"|forced edges reduce an exact conflict at vertex \d+ to an at-least-one-incoming)"
)


@pytest.mark.parametrize("frac", [0.0, 0.3], ids=["unforced", "forced"])
def test_every_instance_routes_and_exits_3_only_when_forcings_cut_a_conflict(tmp_path, capsys, frac):
    # Quarters: no conflicts, disjoint exact pairs, other disjoint
    # conflicts, overlapping conflicts. The last two are exact, subset or
    # (half the time) mixed. A share frac of the edges is forced.
    choices = {*cli._DECISION_SOLVERS, "pco-2dec"}
    path, out = tmp_path / "doc.json", tmp_path / "heads.txt"
    rng = random.Random(17)
    routes, unsupported = set(), 0
    for trial in range(200):
        g = rand_graph(rng, nmax=7, mmax=12)
        kind = [ConflictKind.EXACT, ConflictKind.SUBSET, None, None][trial // 4 % 4]
        conflicts = [
            (),
            rand_disjoint_pairs(rng, g, max_count=4),
            rand_disjoint_conflicts(rng, g, kind, max_count=5, max_size=3),
            rand_conflicts(rng, g, kind, max_count=5),
        ][trial % 4]
        i = Instance(g, rand_parity(rng, g.vertex_count), conflicts, rand_forced(rng, g, frac))
        route = pick_route(i)
        assert route in choices
        routes.add(route)
        path.write_text(io.serialize_instance(i))
        code = main(["solve", str(path), "-o", str(out)])
        err = capsys.readouterr().err
        if code == 3:
            assert route in ("pco-2dec", "pco-dec") and i.forced and CUT_BY_FORCINGS.match(err), (i, err)
            unsupported += 1
            continue
        assert code == (0 if decide_feasible(i) is not None else 1), (i, err)
        if code == 0:
            assert verify(i, io.parse_orientation(out.read_text())).ok
    assert routes == choices and (unsupported > 0) == (frac > 0)


def test_cli_internal_error_exits_4(c4_file, monkeypatch, capsys):
    def broken(inst):
        raise RuntimeError("matching route bug")

    monkeypatch.setattr(cli, "solve_pco_2dec", broken)
    assert main(["solve", str(c4_file), "--solver", "pco-2dec"]) == 4
    assert "internal error: matching route bug" in capsys.readouterr().err


def test_cli_any_other_exception_exits_4(c4_file, monkeypatch, capsys):
    def broken(inst):
        raise KeyError("lost vertex")

    monkeypatch.setitem(cli._DECISION_SOLVERS, "pco", broken)
    assert main(["solve", str(c4_file), "--solver", "pco"]) == 4
    assert "internal error: KeyError: 'lost vertex'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "route, i",
    [
        ("pco-2dec", inst(3, path_edges(3), {1: 1}, (exact(1, 0, 1),))),
        ("pco-dec", inst(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)], even_parity(4), (exact(0, 0, 1, 2), exact(2, 3, 4)))),
    ],
    ids=["pco-2dec", "pco-dec"],
)
def test_cli_a_matcher_fault_exits_4(route, i, tmp_path, monkeypatch, capsys):
    # The faulty matcher pairs the two edges of a conflict pair, which are
    # barred at their one shared end, and pairs their old mates with each
    # other, so every edge stays covered.
    pairs = []
    build, match = eo2dec.build_lprime, eo2dec.max_matching

    def build_and_keep(g, conflicts):
        pairs.extend(sorted(c.edges) for c in conflicts if len({frozenset(g.edges[e]) for e in c.edges}) == 2)
        return build(g, conflicts)

    def barred_pair(rg):
        mate = list(match(rg).mate)
        a, b = pairs[-1]
        mate[mate[a]], mate[mate[b]] = mate[b], mate[a]
        mate[a], mate[b] = b, a
        return Matching(tuple(mate))

    monkeypatch.setattr(eo2dec, "build_lprime", build_and_keep)
    monkeypatch.setattr(eo2dec, "max_matching", barred_pair)
    assert main(["solve", str(_document(tmp_path, route, i)), "-v"]) == 4
    assert capsys.readouterr().err.startswith(f"route: {route}\ninternal error: ")


# A feasible document per route, and the seam that route's own check of
# its orientation runs after: the expansion of a contracted orientation
# on the pair routes, the leaf witness on the branching route.
SELF_CHECKED = {
    "pco-2dec": ((eo2dec, "expand_orientation"), inst(3, path_edges(3), {1: 1}, (exact(1, 0, 1),))),
    "pco-dec": ((eo2dec, "expand_orientation"), inst(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)], {1: 1, 3: 1}, (exact(0, 0, 1, 2), exact(2, 3, 4)))),
    "pco-dsc": ((eo2dec, "expand_orientation"), inst(4, cycle_edges(4), even_parity(4), (subset(0, 0, 3), subset(2, 1, 2)))),
    "pco-ec-fpt": ((fpt, "solve_pco"), inst(4, cycle_edges(4), even_parity(4), (subset(0, 0, 3), exact(2, 1, 2)))),
}


def _off_the_graph(out):
    """The seam's result with every head at a vertex off the graph."""
    if isinstance(out, PcoResult):
        return replace(out, orientation=_off_the_graph(out.orientation))
    return Orientation((10**6,) * len(out.heads))


@pytest.mark.parametrize("route", sorted(SELF_CHECKED))
def test_cli_a_route_self_check_fault_exits_4(route, tmp_path, monkeypatch, capsys):
    # A faulty seam points every edge at a vertex off the graph. The
    # route's verify of its own orientation rejects that, which is a bug
    # in the route, not bad input.
    (module, attr), i = SELF_CHECKED[route]
    path = _document(tmp_path, route, i)
    assert main(["solve", str(path), "-v", "-o", str(tmp_path / "heads.txt")]) == 0
    assert capsys.readouterr().err == f"route: {route}\n"
    real = getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda *args: _off_the_graph(real(*args)))
    assert main(["solve", str(path), "-v"]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"route: {route}\ninternal error: ")
    assert "head 1000000 is not an endpoint of edge 0" in err


def test_cli_verify_of_a_user_orientation_off_the_graph_exits_2(c4_file, tmp_path, capsys):
    heads = tmp_path / "heads.txt"
    heads.write_text("1000000\n" * 4)
    assert main(["verify", str(c4_file), str(heads)]) == 2
    assert capsys.readouterr().err == "input error: head 1000000 is not an endpoint of edge 0\n"


def test_cli_solving_loads_numpy_only_for_the_oracle_sweep(tmp_path):
    # A fresh interpreter: this test process may have loaded numpy already.
    docs = {route: _document(tmp_path, route, i) for route, (_, i) in SELF_CHECKED.items()}
    docs["pco"] = _document(tmp_path, "pco", inst(4, cycle_edges(4), even_parity(4)))
    script = "\n".join([
        "import sys",
        "from pathlib import Path",
        "import pcorient",
        "from pcorient import cli, io",
        "assert 'numpy' not in sys.modules, 'import pcorient'",
        *(f"assert cli.main(['solve', {str(p)!r}, '-o', '-']) == 0" for p in docs.values()),
        "assert 'numpy' not in sys.modules, 'solve'",
        f"i = io.parse_instance(Path({str(docs['pco'])!r}).read_text())",
        "assert pcorient.enumerate_best(i).best_satisfied_parities == 4",
        "assert 'numpy' in sys.modules, 'enumerate_best'",
    ])
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr


def test_cli_main_builds_no_parser_per_call(c4_file, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["solve", str(c4_file), "-o", "-"]) == 0
    assert main(["solve", str(c4_file), "-v", "-o", "-"]) == 0
    capsys.readouterr()
    assert built == []


def test_cli_flags_do_not_carry_over_to_the_next_call(tmp_path, capsys):
    # Each later call would read differently with a flag left over: -v
    # adds a route line, --solver pco-2dec adds the best count, and
    # --max-parities off the pair route is an input error.
    path, out = _document(tmp_path, "tri", inst(3, cycle_edges(3), even_parity(3))), tmp_path / "heads.txt"
    argv = ["solve", str(path), "-v", "--solver", "pco-2dec", "--max-parities", "-o", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "route: pco-2dec\nsatisfied 2 of 3 parity constraints\n"
    assert main(["solve", str(path)]) == 1
    assert capsys.readouterr().err == "infeasible\n"
    assert main(argv) == 1
    assert capsys.readouterr().err == "route: pco-2dec\nsatisfied 2 of 3 parity constraints\n"


def test_cli_verify_round_trip(c4_file, tmp_path, capsys):
    out = tmp_path / "heads.txt"
    assert main(["solve", str(c4_file), "-o", str(out)]) == 0
    assert main(["verify", str(c4_file), str(out)]) == 0
    assert capsys.readouterr().out == "ok\n"
    heads = io.parse_orientation(out.read_text()).heads
    flipped = list(heads)
    u, v = io.parse_instance(c4_file.read_text()).graph.edges[0]
    flipped[0] = u if heads[0] == v else v
    out.write_text("".join(f"{h}\n" for h in flipped))
    assert main(["verify", str(c4_file), str(out)]) == 1
    assert "parity violated" in capsys.readouterr().out


def test_cli_oracle_counts_and_exit_codes(c4_file, tmp_path, capsys):
    assert main(["oracle", str(c4_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "feasible: yes"
    assert lines[1] == "best-satisfied: 4 of 4"
    assert lines[2] == "min-odd-vertices: 0"
    tri = tmp_path / "tri.json"
    tri.write_text(io.serialize_instance(inst(3, cycle_edges(3), parity=even_parity(3))))
    assert main(["oracle", str(tri)]) == 1
    assert "feasible: no" in capsys.readouterr().out


def test_cli_oracle_above_64_free_edges_is_unsupported(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text(io.serialize_instance(inst(66, cycle_edges(66), parity=even_parity(66))))
    assert main(["oracle", "--max-edges", "100", str(big)]) == 3
    assert "unsupported: instance has 66 free edges" in capsys.readouterr().err


def test_cli_oracle_decision_mode(c4_file, tmp_path, capsys):
    out = tmp_path / "w.txt"
    assert main(["oracle", str(c4_file), "--decision", "-o", str(out)]) == 0
    assert capsys.readouterr().out == "feasible: yes\n"
    i = io.parse_instance(c4_file.read_text())
    assert verify(i, io.parse_orientation(out.read_text())).ok


def test_cli_generate_then_decide(tmp_path, capsys):
    formula = tmp_path / "f.txt"
    formula.write_text("1 2 3\n")
    out = tmp_path / "ec.json"
    labels = tmp_path / "labels.json"
    assert main(["generate", "ec", str(formula), "-o", str(out), "--labels", str(labels)]) == 0
    generated = io.parse_instance(out.read_text())
    assert decide_feasible(generated) is not None
    meta = json.loads(labels.read_text())
    assert set(meta) == {"labels", "padded_clauses", "padded_variables"}
    assert any(name.startswith("clause/") for name in meta["labels"])
    assert main(["generate", "sc", str(formula), "-o", str(out)]) == 0
    assert json.loads(out.read_text())["conflicts"][0]["kind"] == "subset"


@pytest.mark.parametrize("formula", ["one_in_three_sat.txt", "padded"])
@pytest.mark.parametrize("construction", ["ec", "sc"])
def test_cli_generate_labels_are_the_bytes_json_writes(construction, formula, tmp_path):
    # The role map is written directly, in the bytes of json's indent
    # encoder: sorted string keys, two-space nesting, [] when nothing is padded.
    text = (DATA / formula).read_text() if formula.endswith(".txt") else "1 2 3\n"
    (tmp_path / "f.txt").write_text(text)
    labels = tmp_path / "labels.json"
    argv = ["generate", construction, str(tmp_path / "f.txt"), "-o", str(tmp_path / "i.json"), "--labels", str(labels)]
    assert main(argv) == 0
    art = (reduce_to_pco_2ec if construction == "ec" else reduce_to_pco_2sc)(parse_formula(text))
    meta = {
        "labels": art.labels,
        "padded_clauses": list(art.padded_clauses),
        "padded_variables": list(art.padded_variables),
    }
    assert labels.read_text() == json.dumps(meta, sort_keys=True, indent=2) + "\n"
    assert bool(art.padded_clauses) == (construction == "sc")


def test_cli_rejects_bad_documents(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1')
    assert main(["solve", str(bad)]) == 2
    assert "input error" in capsys.readouterr().err
    missing = tmp_path / "nope.json"
    assert main(["solve", str(missing)]) == 2


def test_cli_export_dot(c4_file, tmp_path):
    out = tmp_path / "g.dot"
    heads = tmp_path / "heads.txt"
    assert main(["solve", str(c4_file), "-o", str(heads)]) == 0
    assert main(["export-dot", str(c4_file), "--orientation", str(heads), "-o", str(out)]) == 0
    assert out.read_text().startswith("digraph g {\n")
    assert main(["export-dot", str(c4_file), "-o", str(out)]) == 0
    assert out.read_text().startswith("graph g {\n")


# A feasible document per route.
ROUTE_DOCS = {
    **{route: i for route, (_, i) in SELF_CHECKED.items()},
    "pco": inst(4, cycle_edges(4), even_parity(4)),
    "pco-sc-fpt": inst(4, cycle_edges(4), even_parity(4), (subset(0, 0, 3), subset(0, 0))),
}


@pytest.mark.parametrize("route", sorted(ROUTE_DOCS))
def test_cli_solve_validates_the_instance_once(route, tmp_path, monkeypatch, capsys):
    # The branching route validates once more for each leaf witness it
    # builds with solve_pco.
    calls = {"validate": 0, "leaf": 0}

    def spy(name, fn):
        def run(*args):
            calls[name] += 1
            return fn(*args)

        return run

    monkeypatch.setattr(core, "validate_instance", spy("validate", core.validate_instance))
    monkeypatch.setattr(fpt, "solve_pco", spy("leaf", fpt.solve_pco))
    path = _document(tmp_path, route, ROUTE_DOCS[route])
    assert main(["solve", str(path), "-v", "-o", str(tmp_path / "heads.txt")]) == 0
    assert capsys.readouterr().err == f"route: {route}\n"
    assert calls["leaf"] == (route in ("pco-ec-fpt", "pco-sc-fpt"))
    assert calls["validate"] == 1 + calls["leaf"]


# Documents that pass every document check but name ids the instance
# does not have; core.require_valid, not io.parse_instance, rejects them.
BAD_IDS = {
    "endpoint": {"edges": [[0, 1], [1, 5]]},
    "self-loop": {"edges": [[0, 1], [2, 2]]},
    "conflict-edge": {"conflicts": [{"vertex": 1, "edges": [0, 7], "kind": "exact"}]},
    "forced-head": {"forced": {"0": 2}},
    "parity-vertex": {"parity": {"0": 0, "9": 1}},
}


@pytest.mark.parametrize("change", list(BAD_IDS.values()), ids=list(BAD_IDS))
def test_cli_exits_2_on_bad_ids_in_every_command(change, tmp_path, capsys):
    doc = {"version": 1, "vertices": 3, "edges": [[0, 1], [1, 2]], **change}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    i = io.parse_instance(path.read_text())
    with pytest.raises(InvalidInstanceError):
        core.require_valid(i)
    heads = tmp_path / "heads.txt"
    heads.write_text("1\n1\n")
    commands = [
        ["solve", str(path)],
        *(["solve", str(path), "--solver", route] for route in sorted([*cli._DECISION_SOLVERS, "pco-2dec"])),
        ["verify", str(path), str(heads)],
        ["oracle", str(path)],
        ["oracle", str(path), "--decision"],
        ["export-dot", str(path)],
        ["export-dot", str(path), "--orientation", str(heads)],
    ]
    for argv in commands:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("input error: "), argv


def test_console_script_end_to_end(c4_file, tmp_path):
    exe = shutil.which("pcorient")
    cmd = [exe] if exe else [sys.executable, "-m", "pcorient.cli"]
    out = tmp_path / "heads.txt"
    run = subprocess.run(
        [*cmd, "solve", str(c4_file), "-o", str(out), "-v"],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0
    assert "route: pco" in run.stderr
    i = io.parse_instance(c4_file.read_text())
    assert verify(i, io.parse_orientation(out.read_text())).ok
