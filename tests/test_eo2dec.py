"""Even orientation via line-graph matching, and the drivers built on it."""

from __future__ import annotations

import hashlib
from itertools import combinations
from random import Random

import pytest

from pcorient import (
    ConflictKind,
    Instance,
    Multigraph,
    Orientation,
    PcoResult,
    enumerate_best,
    solve_eo_2dec,
    solve_pco,
    solve_pco_2dec,
    solve_pco_dec,
    solve_pco_dsc,
    verify,
)
from pcorient import eo2dec
from pcorient.core import contract_forced
from pcorient.eo2dec import _slot_graph, build_lprime, matching_to_orientation
from pcorient.errors import InvalidInstanceError, UnsupportedError
from pcorient.matching import Matching, RoundGraph, max_matching
from pcorient.oracle import decide_feasible
from pcorient.reductions import eo_dsc_to_eo_2dec

from util import (
    conflict_menu,
    cycle_edges,
    even_parity,
    exact,
    inst,
    multigraphs_4v,
    path_edges,
    planted_instance,
    rand_disjoint_conflicts,
    rand_disjoint_pairs,
    rand_forced,
    rand_graph,
    rand_parity,
    random_regular_multigraph,
    round_graph,
    subset,
)

P3 = path_edges(3)
C4 = cycle_edges(4)


def test_lprime_path_without_conflicts():
    assert build_lprime(Multigraph(3, tuple(P3)), ()).links == ((0, 1),)


def test_lprime_conflict_removes_the_link():
    assert build_lprime(Multigraph(3, tuple(P3)), (exact(1, 0, 1),)).links == ()


def test_lprime_parallel_pair_keeps_other_witness():
    g = Multigraph(2, ((0, 1), (0, 1)))
    assert build_lprime(g, (exact(0, 0, 1),)).links == ((0, 1),)
    assert build_lprime(g, ()).links == ((0, 1),)
    assert build_lprime(g, (exact(0, 0, 1), exact(1, 0, 1))).links == ()


def test_lprime_rejects_bad_conflicts():
    # build_lprime trusts its conflicts; the pair route checks them at entry.
    with pytest.raises(InvalidInstanceError):
        solve_pco_2dec(inst(3, P3, conflicts=(subset(1, 0, 1),)))
    with pytest.raises(InvalidInstanceError):
        solve_pco_2dec(inst(3, P3, conflicts=(exact(1, 0),)))
    with pytest.raises(InvalidInstanceError):
        solve_pco_2dec(inst(3, P3, conflicts=(exact(2, 0, 1),)))
    g4 = [(0, 1), (1, 2), (1, 3), (1, 0)]
    with pytest.raises(InvalidInstanceError):
        solve_pco_2dec(inst(4, g4, conflicts=(exact(1, 0, 1), exact(1, 1, 2))))


def odd_vertices(g: Multigraph, o: Orientation) -> list[int]:
    return [v for v, d in enumerate(o.indegrees(g)) if d % 2]


def test_matching_to_orientation_perfect_on_c4():
    i = inst(4, C4)
    o = matching_to_orientation(i, Matching((1, 0, 3, 2)))
    assert odd_vertices(i.graph, o) == []
    assert o.indegrees(i.graph) == [0, 2, 0, 2]


def test_matching_to_orientation_rejects_an_uncovered_edge():
    i = inst(3, P3, conflicts=(exact(1, 0, 1),))
    with pytest.raises(RuntimeError):
        matching_to_orientation(i, Matching((-1, -1)))
    # Edge 1 is matched to vertex 2's slot, edge 0 is left exposed.
    with pytest.raises(RuntimeError):
        matching_to_orientation(i, Matching((-1, 4, -1, -1, 1)))


def test_matching_to_orientation_routes_around_two_conflicts():
    i = inst(4, C4, conflicts=(exact(0, 3, 0), exact(2, 1, 2)))
    assert build_lprime(i.graph, i.conflicts).links == ((0, 1), (2, 3))
    o = matching_to_orientation(i, Matching((1, 0, 3, 2)))
    assert odd_vertices(i.graph, o) == []
    assert o.incoming(i.graph, 0) == frozenset()
    assert o.incoming(i.graph, 2) == frozenset()


def test_matching_to_orientation_heads_a_parallel_pair_at_its_first_unbarred_end():
    pair = [(0, 1), (0, 1)]
    matched = Matching((1, 0))
    assert matching_to_orientation(inst(2, pair), matched).heads == (0, 0)
    barred_at_0 = inst(2, pair, conflicts=(exact(0, 0, 1),))
    assert matching_to_orientation(barred_at_0, matched).heads == (1, 1)
    barred_at_both = inst(2, pair, conflicts=(exact(0, 0, 1), exact(1, 0, 1)))
    with pytest.raises(RuntimeError, match="is not a link"):
        matching_to_orientation(barred_at_both, matched)


def test_matching_to_orientation_reads_slot_nodes():
    i = inst(3, P3)
    # Nodes 0-1 are the edges, 2-4 the slots of vertices 0-2, 5 carries no edge.
    o = matching_to_orientation(i, Matching((3, 4, -1, 0, 1, -1)))
    assert o.heads == (1, 2)
    assert odd_vertices(i.graph, o) == [1, 2]
    with pytest.raises(RuntimeError):
        matching_to_orientation(i, Matching((5, -1, -1, -1, -1, 0)))


def test_solve_eo_2dec_c4():
    assert 4 - solve_eo_2dec(inst(4, C4)).satisfied == 0


def test_solve_eo_2dec_single_edge():
    er = solve_eo_2dec(inst(2, [(0, 1)]))
    assert 2 - er.satisfied == 1


def test_solve_eo_2dec_conflicted_path():
    assert 3 - solve_eo_2dec(inst(3, P3, conflicts=(exact(1, 0, 1),))).satisfied == 2


def test_solve_eo_2dec_matches_oracle_min_odd():
    for seed in range(3000):
        rng = Random(seed)
        g = rand_graph(rng, nmax=7, mmax=13)
        i = Instance(g, {}, rand_disjoint_pairs(rng, g, max_count=4))
        er = solve_eo_2dec(i)
        t = g.vertex_count - er.satisfied
        want = enumerate_best(i).min_odd_vertices
        assert t == want, f"seed {seed}: t={t} oracle={want} on {i}"
        assert t % 2 == g.edge_count % 2
        assert er.feasible == (t == 0)
        assert verify(i, er.orientation).conflict_violations == (), f"seed {seed}"
        assert t == len(odd_vertices(g, er.orientation)), f"seed {seed}"


def test_solve_pco_2dec_path_decision():
    er = solve_pco_2dec(inst(3, P3, parity={1: 1}))
    assert er.orientation is not None
    assert er.feasible
    assert er.satisfied == 1


def test_solve_pco_2dec_triangle_best_effort():
    i = inst(3, cycle_edges(3), even_parity(3))
    er = solve_pco_2dec(i)
    assert er.orientation is not None
    assert not er.feasible
    assert er.satisfied == 2
    assert len(verify(i, er.orientation).parity_violations) == 1


def test_solve_pco_2dec_c4_with_pair_matches_oracle():
    i = inst(4, C4, even_parity(4), conflicts=(exact(0, 0, 3),))
    er = solve_pco_2dec(i)
    want = enumerate_best(i)
    assert er.orientation is not None
    assert (er.satisfied == 4) == want.feasible == er.feasible
    assert verify(i, er.orientation).conflict_violations == ()


def test_solve_pco_2dec_unavoidable_conflict_returns_none():
    i = inst(2, [(0, 1), (0, 1)], conflicts=(exact(0, 0, 1),), forced={0: 0, 1: 0})
    assert solve_pco_2dec(i) == PcoResult(False, None, 0)


def test_solve_pco_2dec_half_decided_pair_unsupported():
    i = inst(2, [(0, 1), (0, 1)], conflicts=(exact(0, 0, 1),), forced={0: 0})
    with pytest.raises(UnsupportedError):
        solve_pco_2dec(i)


def test_solve_pco_2dec_rejects_overlap_and_odd_sizes():
    g4 = [(0, 1), (1, 2), (1, 3), (1, 0)]
    with pytest.raises(InvalidInstanceError):
        solve_pco_2dec(inst(4, g4, conflicts=(exact(1, 0, 1), exact(1, 1, 2))))
    with pytest.raises(InvalidInstanceError):
        solve_pco_2dec(inst(4, g4, conflicts=(exact(1, 0, 1, 2),)))


@pytest.mark.parametrize("density", [0.3, 0.5, 0.7])
def test_solve_pco_2dec_maximizes_satisfied_parities(density):
    checked = 0
    for seed in range(3000):
        rng = Random(seed)
        g = rand_graph(rng, nmax=7, mmax=13)
        parity = rand_parity(rng, g.vertex_count, density)
        pairs = rand_disjoint_pairs(rng, g, max_count=4)
        i = Instance(g, parity, pairs, rand_forced(rng, g, frac=0.2))
        try:
            er = solve_pco_2dec(i)
        except UnsupportedError:
            continue
        checked += 1
        want = enumerate_best(i)
        if er.orientation is None:
            assert not want.feasible and want.best_satisfied_parities is None, f"seed {seed}"
            continue
        assert er.satisfied == want.best_satisfied_parities, f"seed {seed}: {i}"
        assert er.feasible == want.feasible, f"seed {seed}"
        rep = verify(i, er.orientation)
        assert rep.conflict_violations == (), f"seed {seed}"
        assert er.satisfied == len(i.parity) - len(rep.parity_violations)
    assert checked > 2000


def test_slot_matchings_are_pinned():
    # Every slot-graph mate array and pair-route result on a seeded corpus,
    # hashed together. The result is hashed as (feasible, orientation,
    # satisfied), which a route that found no orientation gives as
    # (False, None, 0). The digest was first taken when the link graph
    # still kept each link's witness endpoints; every matching and every
    # orientation has stayed as it was since.
    h = hashlib.sha256()
    for seed in range(600):
        rng = Random(seed)
        g = rand_graph(rng, nmax=7, mmax=13)
        pairs = rand_disjoint_pairs(rng, g, max_count=4)
        density = (1.0, 0.7, 0.3)[seed % 3]  # all constrained, then more and more free
        forced = rand_forced(rng, g, frac=0.2) if seed % 4 == 0 else {}
        i = Instance(g, rand_parity(rng, g.vertex_count, density), pairs, forced)
        try:
            er = solve_pco_2dec(i)
        except UnsupportedError:
            h.update(b"unsupported")
            continue
        h.update(repr((er.feasible, er.orientation, er.satisfied)).encode())
        con = contract_forced(i)
        if con is not None:
            red = con.instance
            mate = max_matching(_slot_graph(red, build_lprime(red.graph, red.conflicts))).mate
            h.update(repr(mate).encode())
    assert h.hexdigest() == "52ece8f02c9bbbb646df81d61f1ff525167ec4e3784ce2a32e49d459dcbb3e6a"


def test_slot_graph_free_vertex_gadget_is_linear():
    g = Multigraph(6, tuple(cycle_edges(6)) + ((0, 3), (1, 4)))
    for parity in ({0: 1, 1: 0, 2: 0, 3: 1, 4: 0, 5: 1}, {0: 1, 2: 0, 4: 0}, {}):
        i = Instance(g, parity)
        u = g.vertex_count - len(parity)
        base = g.edge_count + g.vertex_count + sum(p == 0 for p in parity.values())
        sg = _slot_graph(i, build_lprime(g, ()))
        assert sg.node_count - base == 2 * u + 1
        assert sum(b >= base for _, b in sg.links) == 4 * u
        assert sg.rounds[-1].nodes == [sg.node_count - 1]
        degree = [0] * sg.node_count
        for a, b in sg.links:
            degree[a] += 1
            degree[b] += 1
        assert max(degree[base:]) <= 3


def slot_links(i: Instance) -> RoundGraph:
    """The slot graph built link by link and split into its rounds: the
    reference for _slot_graph's direct build. Edges link at every shared end where they
    are not a barred pair; see _slot_graph for the slots and the path."""
    g = i.graph
    m, n = g.edge_count, g.vertex_count
    barred = {(c.vertex, *sorted(c.edges)) for c in i.conflicts}
    links = [(a, b) for v in range(n) for a, b in combinations(g.incident(v), 2) if (v, a, b) not in barred]
    links += [(e, m + v) for v in range(n) for e in g.incident(v)]
    odd = [m + v for v in range(n) if i.parity.get(v) == 1]
    even = [m + v for v in range(n) if i.parity.get(v) == 0]
    free = [m + v for v in range(n) if v not in i.parity]
    partners = list(range(m + n, m + n + len(even)))
    links += zip(even, partners)
    q = [m + n + len(even) + j for j in range(2 * len(free) + 1)]
    links += zip(q, q[1:])
    links += zip(free, q[::2])
    links += zip(free, q[1::2])
    return round_graph(q[-1] + 1, links, [list(range(m)) + odd + free, even + partners + q[:-1], q[-1:]])


def round_adjacency(rg: RoundGraph) -> list[tuple[list[int], dict[int, list[int]]]]:
    """Per round: its nodes, and each node's neighbours gained, in order."""
    out = []
    for nodes, grow in rg.rounds:
        adj: dict[int, list[int]] = {}
        for v, ws in grow:
            adj.setdefault(v, []).extend(ws)
        out.append((list(nodes), {v: ws for v, ws in adj.items() if ws}))
    return out


def test_slot_adjacency_matches_the_link_graph():
    # The adjacency the matcher gets on the pair route must be, round by
    # round and neighbour by neighbour, what splitting the link list gives.
    cases = [
        inst(3, [(0, 1), (0, 1), (1, 2)], {0: 0, 1: 1}, (exact(0, 0, 1),)),  # parallel pair barred at one end
        inst(3, [(0, 1), (0, 1), (0, 1)], {2: 0}, (exact(0, 0, 1), exact(1, 0, 1))),  # barred at both ends
        inst(5, [(0, 1)], {0: 1, 1: 0, 2: 0, 3: 0, 4: 1}),  # isolated even vertices; u = 0, a lone q_0
        inst(3, P3, {0: 0, 1: 1}),  # u = 1
        inst(4, C4, {1: 1}, (exact(0, 0, 3),)),  # u = 3
        inst(2, []),  # nothing but free slots
    ]
    for seed in range(600):  # the corpus of test_slot_matchings_are_pinned
        rng = Random(seed)
        g = rand_graph(rng, nmax=7, mmax=13)
        pairs = rand_disjoint_pairs(rng, g, max_count=4)
        density = (1.0, 0.7, 0.3)[seed % 3]
        forced = rand_forced(rng, g, frac=0.2) if seed % 4 == 0 else {}
        i = Instance(g, rand_parity(rng, g.vertex_count, density), pairs, forced)
        try:
            con = contract_forced(i)
        except UnsupportedError:
            continue
        if con is not None and all(c.size == 2 for c in con.instance.conflicts):
            cases.append(con.instance)
    for seed in range(3):
        rng = Random(seed)
        g = random_regular_multigraph(rng, 200, 4)
        parity = {v: rng.randint(0, 1) for v in rng.sample(range(200), 100)}
        cases.append(Instance(g, parity, rand_disjoint_pairs(rng, g, max_count=150)))
    for i in cases:
        direct = _slot_graph(i, build_lprime(i.graph, i.conflicts))
        generic = slot_links(i)
        assert direct.node_count == generic.node_count, i
        assert round_adjacency(direct) == round_adjacency(generic), i


@pytest.mark.parametrize(
    "max_size, solve", [(2, solve_pco_2dec), (4, solve_pco_dec)], ids=["pco-2dec", "pco-dec"]
)
def test_free_vertices_meet_every_planted_target_at_scale(max_size, solve):
    # Too large for the oracle; the planted orientation makes the optimum "all".
    for seed in range(40):
        i = planted_instance(Random(seed), max_size, density=0.3)
        got = solve(i)
        assert got.satisfied == len(i.parity), f"seed {seed}"
        assert verify(i, got.orientation).ok, f"seed {seed}"


@pytest.mark.parametrize(
    "i",
    [
        inst(6, [(1, 2), (1, 5)], parity={0: 1, 3: 1, 4: 1, 5: 0}, conflicts=(exact(1, 0, 1),)),
        inst(
            6,
            [(2, 3), (3, 5), (1, 2), (1, 5)],
            parity={1: 1, 2: 0},
            conflicts=(exact(2, 0, 2), exact(5, 1, 3), exact(3, 0, 1), exact(1, 2, 3)),
        ),
    ],
    ids=["short-by-one", "rerouting-did-not-converge"],
)
def test_solve_pco_2dec_meets_one_constraint_on_minimal_repros(i):
    er = solve_pco_2dec(i)
    assert er.orientation is not None
    assert er.satisfied == enumerate_best(i).best_satisfied_parities == 1
    assert verify(i, er.orientation).conflict_violations == ()


def test_solve_pco_dec_without_conflicts_matches_base_solver():
    rng = Random(61)
    for _ in range(40):
        g = rand_graph(rng, nmax=5, mmax=8)
        i = Instance(g, rand_parity(rng, g.vertex_count))
        assert solve_pco_dec(i).feasible == solve_pco(i).feasible


def test_solve_pco_dec_rejects_singleton_exact():
    i = inst(3, P3, parity={1: 1}, conflicts=(exact(1, 0),))
    with pytest.raises(UnsupportedError):
        solve_pco_dec(i)


def test_solve_pco_dec_answers_the_single_edge_exact_conflicts_normalize_drops():
    # Disjoint exact conflicts of two or three edges, plus single-edge ones
    # on edges the vertex has left over. One at an even-target vertex can
    # only fire with a parity violation, so normalize drops it and the
    # route answers; one that normalize keeps, or that forced edges leave
    # behind, is unsupported.
    answered = unsupported = 0
    for seed in range(400):
        rng = Random(seed)
        g = rand_graph(rng, nmax=6, mmax=10)
        conflicts = list(rand_disjoint_conflicts(rng, g, ConflictKind.EXACT, max_count=2, max_size=3))
        for v in range(g.vertex_count):
            spare = [e for e in g.incident(v) if all(c.vertex != v or e not in c.edges for c in conflicts)]
            if spare and rng.random() < 0.5:
                conflicts.append(exact(v, rng.choice(spare)))
        if all(c.size > 1 for c in conflicts):
            continue
        forced = rand_forced(rng, g, frac=0.2) if seed % 2 else {}
        i = Instance(g, rand_parity(rng, g.vertex_count), tuple(conflicts), forced)
        try:
            got = solve_pco_dec(i)
        except UnsupportedError:
            unsupported += 1
            continue
        answered += 1
        assert got.feasible == (decide_feasible(i) is not None), f"seed {seed}"
        if got.feasible:
            assert verify(i, got.orientation).ok, f"seed {seed}"
    assert answered > 0 and unsupported > 0, (answered, unsupported)


def test_solve_pco_dec_matches_oracle_decision():
    rng = Random(3141)
    for _ in range(120):
        g = rand_graph(rng, nmax=5, mmax=9)
        conflicts = rand_disjoint_pairs(rng, g, 2)
        i = Instance(g, rand_parity(rng, g.vertex_count), conflicts)
        assert solve_pco_dec(i).feasible == enumerate_best(i).feasible, f"mismatch on {i}"


@pytest.mark.parametrize(
    "kind, solver",
    [(ConflictKind.EXACT, solve_pco_dec), (ConflictKind.SUBSET, solve_pco_dsc)],
    ids=["exact", "subset"],
)
def test_decision_routes_match_the_oracle_through_every_small_gadget(kind, solver):
    # Every conflict of size 3 or 4 the menu offers on a 4-vertex
    # multigraph goes through a switching network (exact) or a fan
    # (subset), under criterion 4's three parity maps: all even, all set,
    # and two odd with two free.
    parity_maps = (even_parity(4), {0: 1, 1: 0, 2: 1, 3: 0}, {0: 1, 2: 1})
    checked = feasible = 0
    for g in multigraphs_4v():
        for config in conflict_menu(g, kind):
            if all(c.size < 3 for c in config):
                continue
            for par in parity_maps:
                i = Instance(g, par, config)
                got = solver(i)
                assert got.feasible == (decide_feasible(i) is not None), f"mismatch on {i}"
                if got.feasible:
                    feasible += 1
                    assert verify(i, got.orientation).ok, i
                checked += 1
    assert checked == 3180
    assert 0 < feasible < checked


def test_solve_pco_dsc_matches_oracle_decision():
    rng = Random(2718)
    checked = 0
    for _ in range(160):
        g = rand_graph(rng, nmax=5, mmax=9)
        pairs = rand_disjoint_pairs(rng, g, 2)
        conflicts = tuple(
            type(c)(c.vertex, c.edges, ConflictKind.SUBSET) for c in pairs
        )
        i = Instance(g, rand_parity(rng, g.vertex_count), conflicts)
        got = solve_pco_dsc(i)
        assert got.feasible == enumerate_best(i).feasible, f"mismatch on {i}"
        if got.feasible:
            checked += 1
            assert verify(i, got.orientation).ok
    assert checked > 20


def test_solve_pco_dsc_reduces_once_and_leaves_free_vertices_free(monkeypatch):
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4)]
    i = inst(5, edges, {0: 1, 1: 0, 3: 1}, conflicts=(subset(0, 0, 1, 2), subset(2, 3, 4)))
    seen = []

    def spy(con):
        red, rmap = eo_dsc_to_eo_2dec(con)
        seen.append(red)
        return red, rmap

    monkeypatch.setattr(eo2dec, "eo_dsc_to_eo_2dec", spy)
    got = solve_pco_dsc(i)
    assert got.feasible and verify(i, got.orientation).ok
    (red,) = seen
    assert [v for v in range(red.graph.vertex_count) if v not in red.parity] == [2, 4]
    want, rmap = eo_dsc_to_eo_2dec(i)
    assert red == want
    assert all(t.startswith("fan-") for _, t in rmap.new_vertices)


@pytest.mark.parametrize(
    "solver, reduction",
    [(solve_pco_dec, "pco_dec_to_eo_2dec"), (solve_pco_dsc, "eo_dsc_to_eo_2dec")],
    ids=["exact", "subset"],
)
def test_decision_routes_validate_contract_expand_and_verify_the_input_once(monkeypatch, solver, reduction):
    # A conflict of size three goes through a gadget, and a forced edge
    # gives contract_forced something to remove. The reduced instance goes
    # to the pair core alone: none of these four stages sees it.
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (1, 3), (3, 4)]
    kind = exact if solver is solve_pco_dec else subset
    i = inst(5, edges, {0: 1, 1: 0, 2: 1, 3: 0}, conflicts=(kind(0, 0, 1, 2),), forced={6: 4})
    calls = {name: [] for name in ("require_valid", "contract_forced", "expand_orientation", "verify")}
    reduced = []

    def spy(fn, log):
        def run(*args):
            log.append(args)
            return fn(*args)

        return run

    for name, log in calls.items():
        monkeypatch.setattr(eo2dec, name, spy(getattr(eo2dec, name), log))
    reduce = getattr(eo2dec, reduction)

    def reduce_and_keep(con):
        reduced.append(reduce(con))
        return reduced[-1]

    monkeypatch.setattr(eo2dec, reduction, reduce_and_keep)
    got = solver(i)
    assert got.feasible and verify(i, got.orientation).ok
    assert {name: len(log) for name, log in calls.items()} == dict.fromkeys(calls, 1)
    assert calls["require_valid"][0] == (i,) and calls["verify"][0][0] is i
    ((red, _),) = reduced
    assert red.graph.vertex_count > i.graph.vertex_count
    seen = [getattr(a, "instance", a) for log in calls.values() for args in log for a in args]
    assert all(a is not red and a != red for a in seen)


@pytest.mark.parametrize(
    "kind, solver",
    [(ConflictKind.EXACT, solve_pco_dec), (ConflictKind.SUBSET, solve_pco_dsc)],
    ids=["exact", "subset"],
)
def test_decision_routes_match_oracle_on_larger_disjoint_conflicts(kind, solver):
    # At density 0.3 most vertices are free, and free vertices make fewer
    # draws infeasible.
    for density, min_infeasible in ((0.7, 300), (0.3, 100)):
        checked = larger = feasible = 0
        for seed in range(1500):
            rng = Random(seed)
            g = rand_graph(rng, nmax=6, mmax=12)
            conflicts = rand_disjoint_conflicts(rng, g, kind, max_count=3, max_size=4)
            forced = rand_forced(rng, g, frac=0.2) if rng.random() < 1 / 3 else {}
            i = Instance(g, rand_parity(rng, g.vertex_count, density), conflicts, forced)
            try:
                got = solver(i)
            except UnsupportedError:
                continue
            checked += 1
            larger += any(c.size > 2 for c in conflicts)
            assert got.feasible == (decide_feasible(i) is not None), f"seed {seed}: {i}"
            if got.feasible:
                feasible += 1
                assert verify(i, got.orientation).ok, f"seed {seed}"
        assert checked > 1400 and larger > 500, (density, checked, larger)
        assert feasible > 700 and checked - feasible > min_infeasible, (density, checked, feasible)


def vacuous_conflicts(rng: Random, g: Multigraph, parity: dict[int, int], kind: ConflictKind):
    """Conflicts normalize removes, at most one per vertex: exact ones whose
    size disagrees with their vertex's target, or subset singletons."""
    out = []
    for v in range(g.vertex_count):
        at = list(g.incident(v))
        if kind is ConflictKind.SUBSET:
            if at and rng.random() < 0.5:
                out.append(subset(v, rng.choice(at)))
        elif v in parity:
            sizes = [k for k in range(2, min(4, len(at)) + 1) if k % 2 != parity[v]]
            if sizes:
                out.append(exact(v, *rng.sample(at, rng.choice(sizes))))
    return tuple(out)


@pytest.mark.parametrize(
    "kind, solver",
    [(ConflictKind.EXACT, solve_pco_dec), (ConflictKind.SUBSET, solve_pco_dsc)],
    ids=["exact", "subset"],
)
def test_decision_routes_decide_vacuous_conflicts_like_the_oracle(kind, solver):
    # normalize drops every conflict here, so the reduction and the matching
    # see a remainder with no conflict left.
    checked = feasible = 0
    for seed in range(400):
        rng = Random(seed)
        g = rand_graph(rng, nmax=6, mmax=10)
        parity = rand_parity(rng, g.vertex_count)
        conflicts = vacuous_conflicts(rng, g, parity, kind)
        forced = rand_forced(rng, g) if rng.random() < 1 / 3 else {}
        if not conflicts:
            continue
        i = Instance(g, parity, conflicts, forced)
        got = solver(i)
        assert got.feasible == (decide_feasible(i) is not None), f"seed {seed}: {i}"
        if got.feasible:
            feasible += 1
            assert verify(i, got.orientation).ok, f"seed {seed}"
        checked += 1
    assert checked > 250 and 50 < feasible < checked - 50, (checked, feasible)


def test_solve_pco_dsc_rejects_exact_kind():
    with pytest.raises(InvalidInstanceError):
        solve_pco_dsc(inst(3, P3, conflicts=(exact(1, 0, 1),)))
