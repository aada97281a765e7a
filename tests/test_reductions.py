"""Gadget reductions: structure of the emitted instances and pull-back fidelity."""

from __future__ import annotations

from itertools import islice
from random import Random

import pytest

from pcorient import Instance, Orientation, enumerate_best, verify
from pcorient.errors import InvalidInstanceError
from pcorient.oracle import decide_feasible, iter_feasible
from pcorient.reductions import eo_dsc_to_eo_2dec, pco_dec_to_eo_2dec, pco_to_eo, pull_back

from util import cycle_edges, even_parity, exact, inst, path_edges, rand_graph, subset


def roles(tagged, tag):
    return [i for i, t in tagged if t == tag]


def test_pco_to_eo_vacuous_on_even_instances():
    i = inst(4, cycle_edges(4), even_parity(4))
    red, rmap = pco_to_eo(i, "none")
    assert red.graph.edges == i.graph.edges
    assert rmap.new_vertices == () and rmap.new_edges == ()
    assert rmap.edge_map == (0, 1, 2, 3)
    assert red.parity == even_parity(4)


def test_pull_back_rejects_a_head_off_the_edge():
    _, rmap = pco_to_eo(inst(4, cycle_edges(4), even_parity(4)), "none")
    with pytest.raises(RuntimeError, match="neither endpoint"):
        pull_back(Orientation((2, 2, 3, 0)), rmap)  # edge 0 joins 0 and 1

def test_pco_to_eo_path_example():
    i = inst(3, path_edges(3), parity={1: 1})
    red, rmap = pco_to_eo(i, "none")
    assert len(roles(rmap.new_vertices, "parity-dummy")) == 1
    assert len(roles(rmap.new_vertices, "float-hub")) == 1
    assert len(roles(rmap.new_edges, "float-hub-edge")) == 2  # joins ends 0 and 2
    # 2 original + dummy + 2 hub edges = 5, odd, so the balancing pendant appears.
    assert len(roles(rmap.new_edges, "float-hub-pendant-edge")) == 1
    assert red.graph.edge_count == 6
    assert red.parity == {v: 0 for v in range(red.graph.vertex_count)}
    assert enumerate_best(i).feasible == enumerate_best(red).feasible


def test_pco_to_eo_grows_odd_exact_conflict_with_dummy_edge():
    i = inst(4, [(0, 1), (0, 2), (0, 3)], parity={0: 1}, conflicts=(exact(0, 0, 1, 2),))
    red, rmap = pco_to_eo(i, "exact")
    (dummy_edge,) = roles(rmap.new_edges, "parity-dummy-edge")
    assert len(red.conflicts) == 1
    assert red.conflicts[0].size == 4
    assert dummy_edge in red.conflicts[0].edges


def test_pco_to_eo_subset_conflicts_carry_unchanged():
    i = inst(3, path_edges(3), parity={1: 1}, conflicts=(subset(1, 0, 1),))
    red, rmap = pco_to_eo(i, "subset")
    assert len(red.conflicts) == 1
    assert red.conflicts[0].size == 2
    assert red.conflicts[0].edges == frozenset(rmap.edge_map[e] for e in (0, 1))


def test_pco_to_eo_identity_pull_back():
    i = inst(4, cycle_edges(4), even_parity(4))
    red, rmap = pco_to_eo(i, "none")
    for o in iter_feasible(red):
        assert pull_back(o, rmap).heads == o.heads


def test_pco_to_eo_pull_back_discards_dummy_edges():
    i = inst(3, path_edges(3), parity={1: 1})
    red, rmap = pco_to_eo(i, "none")
    for o in islice(iter_feasible(red), 16):
        pulled = pull_back(o, rmap)
        assert len(pulled.heads) == 2
        assert verify(i, pulled).ok


def test_dec_reduction_pair_only_uses_no_networks():
    i = inst(4, cycle_edges(4), even_parity(4), conflicts=(exact(0, 0, 3),))
    red, rmap = pco_dec_to_eo_2dec(i)
    assert not roles(rmap.new_vertices, "net-internal")
    assert all(c.size == 2 for c in red.conflicts)
    assert len(red.conflicts) == 1


def test_dec_reduction_leaves_free_vertices_free():
    g = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]
    conflicts = (exact(0, 0, 3, 4), exact(2, 1, 2))
    sizes = set()
    for parity in ({0: 1, 1: 1, 2: 1, 3: 1}, {0: 1, 2: 1}, {}):
        red, rmap = pco_dec_to_eo_2dec(inst(4, g, parity, conflicts))
        tags = {t for _, t in rmap.new_vertices + rmap.new_edges}
        assert not any(t.startswith("float-hub") for t in tags)
        assert red.graph.vertex_count - len(red.parity) == 4 - len(parity)
        sizes.add(red.graph.edge_count)
    assert len(sizes) == 1


def test_dec_reduction_size_six_conflict_gets_one_network():
    edges = [(0, v) for v in range(1, 7)]
    i = inst(7, edges, even_parity(7), conflicts=(exact(0, *range(6)),))
    red, rmap = pco_dec_to_eo_2dec(i)
    assert roles(rmap.new_vertices, "net-internal")
    v1 = 0  # the outer end is the host vertex itself
    (v2,) = roles(rmap.new_vertices, "path-inner")
    outputs = roles(rmap.new_edges, "net-output")
    assert len(outputs) == 6
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
    assert rmap.new_vertices == () and rmap.new_edges == ()

    # Vertex 0 hosts two networks, vertex 2 one; each host gets one inner vertex.
    conflicts = (exact(0, 0, 3, 4), exact(2, 1, 2, 4))
    star = [(0, v) for v in range(1, 7)] + [(1, 2), (2, 3), (2, 4)]
    two_nets = (exact(0, 0, 1, 2), exact(0, 3, 4, 5))
    for p in (1, 0, None):
        parity = {} if p is None else {0: p, 2: p}
        red, rmap = pco_dec_to_eo_2dec(inst(4, g, parity, conflicts))
        inner = roles(rmap.new_vertices, "path-inner")
        links = [red.graph.endpoints(e) for e in roles(rmap.new_edges, "path-link")]
        assert links == [(0, inner[0]), (2, inner[1])]
        assert [red.parity.get(v) for v in (0, 2)] == [0, 0]  # hosts turn even
        assert [red.parity.get(w) for w in inner] == [None if p is None else 1 - p] * 2
        assert {v: red.parity.get(v) for v in (1, 3)} == {v: parity.get(v) for v in (1, 3)}

        red, rmap = pco_dec_to_eo_2dec(inst(7, star, parity, two_nets))
        assert len(roles(rmap.new_vertices, "path-inner")) == 1
        assert len(roles(rmap.new_edges, "path-link")) == 1


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
    assert len(rmap.new_vertices) == 4  # hub, two arms, pendant
    assert len(rmap.new_edges) == 4
    assert len(red.conflicts) == 1
    assert red.conflicts[0].size == 2
    assert red.parity[0] == 0

    star = inst(4, [(0, 1), (0, 2), (0, 3)], even_parity(4), conflicts=(subset(0, 0, 1, 2),))
    red3, rmap3 = eo_dsc_to_eo_2dec(star)
    assert len(rmap3.new_vertices) == 5  # hub, three arms, pendant
    assert len(rmap3.new_edges) == 5
    assert {t for _, t in rmap3.new_vertices} == {"fan-hub", "fan-arm", "fan-pendant"}
    assert red3.parity[0] == 1  # the odd fan turns the conflict vertex's target over


def test_dsc_gadget_adds_k_plus_two_edges():
    for k in (2, 3, 4):
        edges = [(0, v + 1) for v in range(k)]
        i = inst(k + 1, edges, even_parity(k + 1), conflicts=(subset(0, *range(k)),))
        red, rmap = eo_dsc_to_eo_2dec(i)
        assert len(rmap.new_edges) == k + 2  # k arm edges, the anchor and the brace
        assert (red.graph.edge_count - i.graph.edge_count) == len(rmap.new_edges)


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
    arms = set(roles(rmap.new_vertices, "fan-arm"))
    hit = 0
    for o in iter_feasible(red):
        pulled = pull_back(o, rmap)
        for e in (0, 1):
            if o.heads[rmap.edge_map[e]] in arms:
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
    gadget = [v for v, tag in rmap.new_vertices]
    assert sorted(gadget) == list(range(5, red.graph.vertex_count))
    assert all(tag.startswith("fan-") for _, tag in rmap.new_vertices)
    assert all(red.parity.get(v) == 0 for v in gadget)
    got = decide_feasible(red)
    assert got is not None and decide_feasible(i) is not None
    assert verify(i, pull_back(got, rmap)).ok
