"""The branching solver for overlapping or mixed conflicts, checked against backtracking."""

from __future__ import annotations

import time
from pathlib import Path
from random import Random

import pytest

import pcorient.fpt
from pcorient import Conflict, ConflictKind, Instance, solve_pco, solve_pco_fpt, verify
from pcorient.cli import main
from pcorient.fpt import _leaf_feasible, _leaf_table
from pcorient.io import parse_instance
from pcorient.oracle import decide_feasible

from util import (
    branch_reference,
    cycle_edges,
    even_parity,
    exact,
    inst,
    path_edges,
    rand_conflicts,
    rand_forced,
    rand_graph,
    rand_parity,
    subset,
)


def test_no_conflicts_delegates_to_base_solver():
    i = inst(4, cycle_edges(4), even_parity(4))
    res = solve_pco_fpt(i)
    assert res.feasible and res.branches == 1
    assert res.orientation.heads == solve_pco(i).orientation.heads


def test_subset_pair_on_path():
    i = inst(3, path_edges(3), parity={1: 0}, conflicts=(subset(1, 0, 1),))
    res = solve_pco_fpt(i)
    assert res.feasible
    rep = verify(i, res.orientation)
    assert rep.ok


def test_exact_pair_on_star():
    i = inst(4, [(0, 1), (0, 2), (0, 3)], parity={0: 0}, conflicts=(exact(0, 0, 1),))
    res = solve_pco_fpt(i)
    assert res.feasible == (decide_feasible(i) is not None)
    if res.feasible:
        assert verify(i, res.orientation).ok


def test_singleton_exact_conflict_is_handled():
    # The polynomial routes refuse this shape; branching must not.
    i = inst(3, cycle_edges(3), parity={0: 1}, conflicts=(exact(0, 0),))
    res = solve_pco_fpt(i)
    assert res.feasible == (decide_feasible(i) is not None)


def test_mixed_kinds_are_decided_as_the_oracle_decides():
    # Even C4: vertices 0 and 2 take both their edges, or 1 and 3 do. The
    # subset conflict at 0 bars the first, the exact one at 1 the second,
    # so only both together make the instance infeasible.
    both = (subset(0, 0, 3), exact(1, 0, 1))
    for conflicts in (both[:1], both[1:], both):
        i = inst(4, cycle_edges(4), even_parity(4), conflicts)
        res = solve_pco_fpt(i)
        assert res.feasible == (decide_feasible(i) is not None) == (conflicts != both)
        if res.feasible:
            assert verify(i, res.orientation).ok


def branch_limit(i: Instance) -> int:
    limit = 1
    for c in i.conflicts:
        limit *= i.graph.degree(c.vertex) + c.size
    return limit


def run_sweep(kind: ConflictKind | None, seed: int, trials: int = 150):
    rng = Random(seed)
    feasible_seen = 0
    for _ in range(trials):
        g = rand_graph(rng, nmax=6, mmax=10)
        i = Instance(
            g,
            rand_parity(rng, g.vertex_count),
            rand_conflicts(rng, g, kind, max_count=3, max_size=3),
            rand_forced(rng, g, 0.08),
        )
        res = solve_pco_fpt(i)
        want = decide_feasible(i)
        assert res.feasible == (want is not None), f"decision mismatch on {i}"
        assert res.branches is not None and res.branches <= branch_limit(i)
        if res.feasible:
            assert verify(i, res.orientation).ok
            feasible_seen += 1
    assert feasible_seen > trials // 4


# Kind None draws each conflict's kind on its own: mixed kinds.
KINDS = {"exact": ConflictKind.EXACT, "subset": ConflictKind.SUBSET, "mixed": None}


@pytest.mark.parametrize("name", KINDS)
def test_sweep_matches_backtracking(name):
    run_sweep(KINDS[name], seed={"exact": 11, "subset": 22, "mixed": 33}[name])


def test_overlapping_conflicts_at_one_vertex():
    # Two exact conflicts sharing an edge at the same vertex.
    g = [(0, 1), (0, 2), (0, 3), (0, 4)]
    i = inst(5, g, parity={0: 0}, conflicts=(exact(0, 0, 1), exact(0, 1, 2)))
    res = solve_pco_fpt(i)
    assert res.feasible == (decide_feasible(i) is not None)
    if res.feasible:
        assert verify(i, res.orientation).ok


def test_deterministic_output():
    i = inst(
        5,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)],
        parity={0: 0, 2: 0},
        conflicts=(exact(0, 0, 5), exact(2, 1, 5)),
    )
    a = solve_pco_fpt(i)
    b = solve_pco_fpt(i)
    assert a.feasible == b.feasible
    assert a.branches == b.branches
    if a.feasible:
        assert a.orientation.heads == b.orientation.heads


@pytest.mark.parametrize(
    "i, want",
    [
        # The instance of test_deterministic_output.
        (
            inst(
                5,
                [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)],
                parity={0: 0, 2: 0},
                conflicts=(exact(0, 0, 5), exact(2, 1, 5)),
            ),
            (True, 1, (1, 1, 2, 4, 4, 2)),
        ),
        # The instance of test_overlapping_conflicts_at_one_vertex.
        (
            inst(
                5,
                [(0, 1), (0, 2), (0, 3), (0, 4)],
                parity={0: 0},
                conflicts=(exact(0, 0, 1), exact(0, 1, 2)),
            ),
            (True, 1, (1, 2, 3, 4)),
        ),
        # Both away-edge leaves fail their pendant's parity; the all-in leaf is third.
        (
            inst(4, [(0, 1), (0, 2), (0, 3)], parity={0: 1, 1: 0, 2: 0}, conflicts=(exact(0, 0, 1),)),
            (True, 3, (0, 0, 0)),
        ),
    ],
)
def test_exploration_order_is_pinned(i, want):
    # Away edges by id first, then all-in plus an outside edge in incidence order.
    res = solve_pco_fpt(i)
    assert (res.feasible, res.branches, res.orientation.heads) == want


def _outcome(res):
    return res.feasible, res.branches, res.orientation.heads if res.feasible else None


@pytest.mark.parametrize("name", KINDS)
def test_leaf_table_search_matches_the_per_leaf_reference(name):
    # The reference decides every map by solve_pco, cuts the same inner
    # nodes, and counts the same leaves. Count searches that end past
    # their first leaf, won and lost, and those cut before any leaf.
    later_leaf_wins = later_leaves_fail = cut_before_a_leaf = 0
    for seed in range(3000):
        rng = Random(seed)
        g = rand_graph(rng, nmax=7, mmax=12)
        i = Instance(
            g,
            rand_parity(rng, g.vertex_count, density=0.8),
            rand_conflicts(rng, g, KINDS[name], max_count=4, max_size=3),
            rand_forced(rng, g, frac=0.2),
        )
        got = _outcome(solve_pco_fpt(i))
        assert got == _outcome(branch_reference(i)), f"seed {seed}: {i}"
        later_leaf_wins += got[0] and got[1] > 1
        later_leaves_fail += not got[0] and got[1] > 1
        cut_before_a_leaf += not got[0] and got[1] == 0
    # Measured: 23 / 23 / 1070 exact, 17 / 14 / 1213 subset, 29 / 13 / 1120 mixed.
    assert later_leaf_wins > 10 and later_leaves_fail > 10 and cut_before_a_leaf > 500


def test_the_cut_keeps_every_witness_of_the_unpruned_search():
    # Both kinds, up to 5 overlapping conflicts, dense and sparse targets.
    pruned = unpruned = 0
    for kind in ConflictKind:
        for density in (0.8, 0.3):
            rng = Random(f"{kind.value}-{density}")
            for _ in range(1500):
                g = rand_graph(rng, nmax=7, mmax=12)
                i = Instance(
                    g,
                    rand_parity(rng, g.vertex_count, density=density),
                    rand_conflicts(rng, g, kind, max_count=5, max_size=3),
                    rand_forced(rng, g, frac=0.2),
                )
                got = solve_pco_fpt(i)
                ref = branch_reference(i, cut=False)
                assert got.feasible == ref.feasible == (decide_feasible(i) is not None), i
                if got.feasible:
                    assert got.orientation.heads == ref.orientation.heads, i
                assert got.branches <= ref.branches, i
                pruned += got.branches
                unpruned += ref.branches
    # Measured: 4,215 of 7,795 leaves (54%).
    assert pruned <= 0.6 * unpruned, (pruned, unpruned)


def test_leaf_check_matches_the_base_solver():
    rng = Random(404)
    verdicts = set()
    for _ in range(600):
        g = rand_graph(rng, nmax=8, mmax=14)
        kind = rng.choice(list(ConflictKind))
        i = Instance(
            g,
            rand_parity(rng, g.vertex_count, density=0.8),
            rand_conflicts(rng, g, kind, max_count=4, max_size=3),
            rand_forced(rng, g, frac=0.2),
        )
        table = _leaf_table(i)
        for _ in range(5):
            forced = dict(i.forced)
            for e, *_ in table.edges:
                if rng.random() < 0.5:
                    forced[e] = g.edges[e][rng.randint(0, 1)]
            want = solve_pco(Instance(g, i.parity, (), forced)).feasible
            assert _leaf_feasible(table, forced) == want, (i, forced)
            verdicts.add(want)
    assert verdicts == {False, True}


def test_a_leaf_the_table_wrongly_passes_raises(monkeypatch):
    # The first leaf is already infeasible, so a table that passes it must raise.
    i = inst(4, [(0, 1), (0, 2), (0, 3)], parity={0: 1, 1: 0, 2: 0}, conflicts=(exact(0, 0, 1),))
    monkeypatch.setattr(pcorient.fpt, "_leaf_feasible", lambda table, forced: True)
    with pytest.raises(RuntimeError, match="leaf table"):
        solve_pco_fpt(i)


def test_the_leaf_bound_stops_the_search_as_it_is_passed(monkeypatch):
    # Path 0-1-2 with every target even: the root's relaxation passes, but
    # each choice turns an edge into an end of degree one, so every leaf
    # fails. Each choice repeated ten times makes 20 leaves against a bound
    # of deg + size = 4.
    i = inst(3, path_edges(3), parity={0: 0, 1: 0, 2: 0}, conflicts=(subset(1, 0, 1),))
    choices = pcorient.fpt._choices
    monkeypatch.setattr(pcorient.fpt, "_choices", lambda g, c: (d for d in choices(g, c) for _ in range(10)))
    maps: list[dict[int, int]] = []

    def spy(table, forced):
        maps.append(dict(forced))
        return _leaf_feasible(table, forced)

    monkeypatch.setattr(pcorient.fpt, "_leaf_feasible", spy)
    with pytest.raises(RuntimeError, match="leaf bound"):
        solve_pco_fpt(i)
    # The root gets the empty map; every other check is a leaf.
    assert maps[0] == {}
    assert len(maps) - 1 == 4 + 1


@pytest.mark.parametrize("kind", list(ConflictKind))
def test_a_root_that_fails_parity_reaches_no_leaf(kind):
    # K4 with every target even but one: the parity sum is odd against six
    # edges, so the conflict-free relaxation already fails at the root.
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    conflicts = tuple(
        Conflict(v, frozenset(members), kind) for v, members in ((0, (0, 1)), (0, (1, 2)), (1, (0, 3)))
    )
    i = inst(4, edges, parity={0: 1, 1: 0, 2: 0, 3: 0}, conflicts=conflicts)
    res = solve_pco_fpt(i)
    assert (res.feasible, res.branches) == (False, 0)
    assert decide_feasible(i) is None
    assert branch_reference(i, cut=False).branches > 0


FORMULA = Path(__file__).parent / "data" / "one_in_three_sat.txt"


@pytest.mark.parametrize("construction, route", [("ec", "pco-ec-fpt"), ("sc", "pco-sc-fpt")])
def test_a_satisfiable_hardness_instance_solves_in_time(construction, route, tmp_path, capsys):
    doc, heads = tmp_path / "instance.json", tmp_path / "heads.txt"
    start = time.perf_counter()
    assert main(["generate", construction, str(FORMULA), "-o", str(doc)]) == 0
    assert main(["solve", str(doc), "-v", "-o", str(heads)]) == 0
    assert f"route: {route}" in capsys.readouterr().err
    assert main(["verify", str(doc), str(heads)]) == 0
    assert capsys.readouterr().out == "ok\n"
    assert decide_feasible(parse_instance(doc.read_text())) is not None
    assert time.perf_counter() - start < 10.0
