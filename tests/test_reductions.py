"""Gadget reductions: structure of the emitted instances and pull-back fidelity."""

from __future__ import annotations

import hashlib
from collections import Counter
from itertools import islice
from random import Random

import pytest

from pcorient import ConflictKind, Instance, Orientation, enumerate_best, verify
from pcorient.errors import InvalidInstanceError
from pcorient.io import serialize_instance
from pcorient.oracle import decide_feasible, iter_feasible
from pcorient.reductions import eo_dsc_to_eo_2dec, pco_dec_to_eo_2dec, pco_to_eo, pull_back

from util import (
    cycle_edges,
    even_parity,
    exact,
    gadget_parts,
    inst,
    path_edges,
    rand_disjoint_conflicts,
    rand_forced,
    rand_graph,
    rand_parity,
    subset,
)


def test_pco_to_eo_vacuous_on_even_instances():
    i = inst(4, cycle_edges(4), even_parity(4))
    red, rmap = pco_to_eo(i)
    assert red.graph.edges == i.graph.edges
    parts = gadget_parts(i, red, rmap)
    assert parts.vertices == () and parts.edges == ()
    assert rmap.edge_map == (0, 1, 2, 3)
    assert red.parity == even_parity(4)


def test_pull_back_rejects_a_head_off_the_edge():
    _, rmap = pco_to_eo(inst(4, cycle_edges(4), even_parity(4)))
    with pytest.raises(RuntimeError, match="neither endpoint"):
        pull_back(Orientation((2, 2, 3, 0)), rmap)  # edge 0 joins 0 and 1

def test_pco_to_eo_path_example():
    i = inst(3, path_edges(3), parity={1: 1})
    red, rmap = pco_to_eo(i)
    parts = gadget_parts(i, red, rmap)
    # Vertex 3 is the parity dummy, 4 the float hub and 5 its pendant.
    assert parts.vertices == (3, 4, 5)
    # The dummy edge at 1, the hub edges at ends 0 and 2, then, since
    # 2 original + dummy + 2 hub edges = 5 is odd, the balancing pendant.
    assert [red.graph.endpoints(e) for e in parts.edges] == [(1, 3), (0, 4), (2, 4), (4, 5)]
    assert red.graph.edge_count == 6
    assert red.parity == {v: 0 for v in range(red.graph.vertex_count)}
    assert enumerate_best(i).feasible == enumerate_best(red).feasible


def test_pco_to_eo_grows_odd_exact_conflict_with_dummy_edge():
    i = inst(4, [(0, 1), (0, 2), (0, 3)], parity={0: 1}, conflicts=(exact(0, 0, 1, 2),))
    red, rmap = pco_to_eo(i)
    # The one new edge at odd vertex 0 is its dummy edge; the hub joins 1, 2 and 3.
    (dummy_edge,) = [e for e in gadget_parts(i, red, rmap).edges if 0 in red.graph.endpoints(e)]
    assert red.graph.endpoints(dummy_edge) == (0, 4)
    assert len(red.conflicts) == 1
    assert red.conflicts[0].size == 4
    assert dummy_edge in red.conflicts[0].edges


def test_pco_to_eo_subset_conflicts_carry_unchanged():
    i = inst(3, path_edges(3), parity={1: 1}, conflicts=(subset(1, 0, 1),))
    red, rmap = pco_to_eo(i)
    assert len(red.conflicts) == 1
    assert red.conflicts[0].size == 2
    assert red.conflicts[0].edges == frozenset(rmap.edge_map[e] for e in (0, 1))


def test_pco_to_eo_identity_pull_back():
    i = inst(4, cycle_edges(4), even_parity(4))
    red, rmap = pco_to_eo(i)
    for o in iter_feasible(red):
        assert pull_back(o, rmap).heads == o.heads


def test_pco_to_eo_pull_back_discards_dummy_edges():
    i = inst(3, path_edges(3), parity={1: 1})
    red, rmap = pco_to_eo(i)
    for o in islice(iter_feasible(red), 16):
        pulled = pull_back(o, rmap)
        assert len(pulled.heads) == 2
        assert verify(i, pulled).ok


def test_dec_reduction_pair_only_uses_no_networks():
    i = inst(4, cycle_edges(4), even_parity(4), conflicts=(exact(0, 0, 3),))
    red, rmap = pco_dec_to_eo_2dec(i)
    parts = gadget_parts(i, red, rmap)
    assert parts.vertices == () and parts.edges == ()
    assert all(c.size == 2 for c in red.conflicts)
    assert len(red.conflicts) == 1


def test_dec_reduction_leaves_free_vertices_free():
    g = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]
    conflicts = (exact(0, 0, 3, 4), exact(2, 1, 2))
    sizes = set()
    for parity in ({0: 1, 1: 1, 2: 1, 3: 1}, {0: 1, 2: 1}, {}):
        i = inst(4, g, parity, conflicts)
        red, rmap = pco_dec_to_eo_2dec(i)
        # No float hub: the only original vertex a new edge reaches is host 0.
        parts = gadget_parts(i, red, rmap)
        assert {v for e in parts.edges for v in red.graph.endpoints(e) if v < 4} == {0}
        assert red.graph.vertex_count - len(red.parity) == 4 - len(parity)
        sizes.add(red.graph.edge_count)
    assert len(sizes) == 1


def test_dec_reduction_size_six_conflict_gets_one_network():
    edges = [(0, v) for v in range(1, 7)]
    i = inst(7, edges, even_parity(7), conflicts=(exact(0, *range(6)),))
    red, rmap = pco_dec_to_eo_2dec(i)
    parts = gadget_parts(i, red, rmap)
    assert len(parts.vertices) == 1 + 2 * 5  # the inner vertex and five two-vertex cells
    v1 = 0  # the outer end is the host vertex itself
    v2 = parts.inner[v1]
    outputs = parts.outputs
    assert len(outputs) == 6 and parts.links == (red.graph.edge_count - 1,)  # the link comes last
    ends = [red.graph.endpoints(e) for e in outputs]
    assert sum(v1 in pair for pair in ends) == 2
    assert sum(v2 in pair for pair in ends) == 4
    pairs_at_v1 = [c for c in red.conflicts if c.vertex == v1]
    assert len(pairs_at_v1) == 1 and pairs_at_v1[0].edges == frozenset(
        e for e in outputs if v1 in red.graph.endpoints(e)
    )
    assert all(c.size == 2 for c in red.conflicts)


def test_dec_reduction_adds_one_inner_vertex_per_network_host():
    g = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]
    pairs_only = inst(4, g, {0: 0, 1: 1}, conflicts=(exact(0, 0, 3), exact(2, 1, 2)), forced={5: 3})
    red, rmap = pco_dec_to_eo_2dec(pairs_only)
    assert red == pairs_only
    assert rmap.edge_map == tuple(range(6))
    parts = gadget_parts(pairs_only, red, rmap)
    assert parts.vertices == () and parts.edges == ()

    # Vertex 0 hosts two networks, vertex 2 one; each host gets one inner vertex.
    conflicts = (exact(0, 0, 3, 4), exact(2, 1, 2, 4))
    star = [(0, v) for v in range(1, 7)] + [(1, 2), (2, 3), (2, 4)]
    two_nets = (exact(0, 0, 1, 2), exact(0, 3, 4, 5))
    for p in (1, 0, None):
        parity = {} if p is None else {0: p, 2: p}
        i = inst(4, g, parity, conflicts)
        red, rmap = pco_dec_to_eo_2dec(i)
        parts = gadget_parts(i, red, rmap)
        inner = list(parts.inner.values())
        assert len(parts.vertices) == 2 + 2 * 2 * 2  # two inner vertices, two cells per network
        links = [red.graph.endpoints(e) for e in parts.links]
        assert links == [(0, inner[0]), (2, inner[1])]
        assert [red.parity.get(v) for v in (0, 2)] == [0, 0]  # hosts turn even
        assert [red.parity.get(w) for w in inner] == [None if p is None else 1 - p] * 2
        assert {v: red.parity.get(v) for v in (1, 3)} == {v: parity.get(v) for v in (1, 3)}

        i = inst(7, star, parity, two_nets)
        red, rmap = pco_dec_to_eo_2dec(i)
        parts = gadget_parts(i, red, rmap)
        assert len(parts.vertices) == 1 + 2 * 2 * 2  # one inner vertex, two cells per network
        assert [red.graph.endpoints(e) for e in parts.links] == [(0, 7)]


def test_dec_reduction_preserves_feasibility_with_size_three_conflicts():
    rng = Random(8093)
    checked = 0
    for _ in range(60):
        g = rand_graph(rng, nmax=4, mmax=6)
        deg3 = [v for v in range(g.vertex_count) if g.degree(v) >= 3]
        if not deg3:
            continue
        v = deg3[0]
        i = Instance(g, even_parity(g.vertex_count), (exact(v, *g.incident(v)[:3]),))
        red, rmap = pco_dec_to_eo_2dec(i)
        got = decide_feasible(red)
        assert (got is not None) == (decide_feasible(i) is not None), f"mismatch on {i}"
        if got is not None:
            assert verify(i, pull_back(got, rmap)).ok
            checked += 1
    assert checked > 5


def test_dec_reduction_rejects_singletons_and_overlap():
    g4 = [(0, 1), (1, 2), (1, 3), (1, 0)]
    with pytest.raises(Exception):
        pco_dec_to_eo_2dec(inst(4, g4, even_parity(4), conflicts=(exact(1, 0),)))
    with pytest.raises(InvalidInstanceError):
        pco_dec_to_eo_2dec(
            inst(4, g4, even_parity(4), conflicts=(exact(1, 0, 1), exact(1, 1, 2)))
        )


def test_dsc_gadget_counts_even_and_odd():
    i = inst(4, cycle_edges(4), even_parity(4), conflicts=(subset(0, 0, 3),))
    red, rmap = eo_dsc_to_eo_2dec(i)
    parts = gadget_parts(i, red, rmap)
    assert len(parts.vertices) == 4  # hub, two arms, pendant
    assert len(parts.edges) == 4
    assert len(red.conflicts) == 1
    assert red.conflicts[0].size == 2
    assert red.parity[0] == 0

    star = inst(4, [(0, 1), (0, 2), (0, 3)], even_parity(4), conflicts=(subset(0, 0, 1, 2),))
    red3, rmap3 = eo_dsc_to_eo_2dec(star)
    parts3 = gadget_parts(star, red3, rmap3)
    assert len(parts3.vertices) == 5  # hub, three arms, pendant
    assert len(parts3.edges) == 5
    # Hub 4 then arms 5-7 then pendant 8: the hub reaches the arms, vertex 0 and the pendant.
    assert sorted(parts3.arms.values()) == [5, 6, 7]
    assert [red3.graph.degree(v) for v in parts3.vertices] == [5, 2, 2, 2, 1]
    assert red3.parity[0] == 1  # the odd fan turns the conflict vertex's target over


def test_dsc_gadget_adds_k_plus_two_edges():
    for k in (2, 3, 4):
        edges = [(0, v + 1) for v in range(k)]
        i = inst(k + 1, edges, even_parity(k + 1), conflicts=(subset(0, *range(k)),))
        red, rmap = eo_dsc_to_eo_2dec(i)
        parts = gadget_parts(i, red, rmap)
        assert len(parts.edges) == k + 2  # k arm edges, the anchor and the brace
        hub = k + 1  # the first gadget vertex
        assert all(hub in red.graph.endpoints(e) for e in parts.edges)


def test_dsc_reduction_preserves_feasibility_on_c4():
    i = inst(4, cycle_edges(4), even_parity(4), conflicts=(subset(0, 0, 3),))
    red, rmap = eo_dsc_to_eo_2dec(i)
    assert enumerate_best(i).feasible == (decide_feasible(red) is not None)
    got = decide_feasible(red)
    assert got is not None
    assert verify(i, pull_back(got, rmap)).ok


def test_dsc_arm_heads_translate_back_to_the_vertex():
    # K4 allows even orientations sending exactly one conflict member into 0,
    # so some feasible reduced orientation points a re-attached edge at its arm.
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    i = inst(4, k4, even_parity(4), conflicts=(subset(0, 0, 1),))
    red, rmap = eo_dsc_to_eo_2dec(i)
    arms = gadget_parts(i, red, rmap).arms
    assert sorted(arms.values()) == [5, 6]
    hit = 0
    for o in iter_feasible(red):
        pulled = pull_back(o, rmap)
        for e in (0, 1):
            if o.heads[rmap.edge_map[e]] == arms[(e, 0)]:
                assert pulled.heads[e] == 0
                hit += 1
        assert verify(i, pulled).ok
    assert hit > 0


def test_dsc_carries_each_target_through():
    # Odd, even and absent targets, and an odd conflict at a constrained vertex.
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4)]
    parity = {0: 1, 1: 0, 3: 1}
    i = inst(5, edges, parity, conflicts=(subset(0, 0, 1, 2), subset(2, 3, 4)))
    red, rmap = eo_dsc_to_eo_2dec(i)
    # Vertex 0's size-3 conflict turns its target over; the rest carry theirs.
    assert {v: red.parity.get(v) for v in range(5)} == {0: 0, 1: 0, 2: None, 3: 1, 4: None}
    gadget = gadget_parts(i, red, rmap).vertices
    assert len(gadget) == sum(c.size + 2 for c in i.conflicts)  # hub, arms, pendant per fan
    assert all(red.parity.get(v) == 0 for v in gadget)
    got = decide_feasible(red)
    assert got is not None and decide_feasible(i) is not None
    assert verify(i, pull_back(got, rmap)).ok


# Digest of both pair reductions' output over the seeded draws below. It
# pins the gadget layout: the reduced document, edge map and head map.
REDUCTION_DIGEST = "8a0bfb607d0b80bdb196a3c8629f9c2c0a204df8d3148039a8f017ddefe4f638"


def test_pair_reductions_emit_a_pinned_layout():
    rng = Random(3031)
    h = hashlib.sha256()
    sizes: set[tuple[ConflictKind, int]] = set()
    with_forced: Counter = Counter()
    for draw in range(120):
        kind = (ConflictKind.EXACT, ConflictKind.SUBSET)[draw % 2]
        g = rand_graph(rng, nmin=3, nmax=6, mmin=6, mmax=16)
        conflicts = rand_disjoint_conflicts(rng, g, kind, max_count=4, max_size=6)
        forced = rand_forced(rng, g, 0.2) if draw % 4 >= 2 else {}
        parity = rand_parity(rng, g.vertex_count)
        reduce = pco_dec_to_eo_2dec if kind is ConflictKind.EXACT else eo_dsc_to_eo_2dec
        red, rmap = reduce(Instance(g, parity, conflicts, forced))
        h.update(serialize_instance(red).encode())
        h.update(repr((rmap.edge_map, rmap.head_map)).encode())
        sizes.update((kind, c.size) for c in conflicts)
        with_forced[kind] += bool(forced)
    assert sizes == {(k, s) for k in ConflictKind for s in range(2, 7)}
    assert min(with_forced.values()) > 20
    assert h.hexdigest() == REDUCTION_DIGEST
