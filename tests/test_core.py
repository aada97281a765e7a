"""Instance model: validation, verification, normalization, components."""

from __future__ import annotations

from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings

from pcorient import (
    Conflict,
    ConflictKind,
    Instance,
    Multigraph,
    Orientation,
    components,
    enumerate_best,
    normalize,
    validate_instance,
    verify,
)
from pcorient.core import contract_forced
from pcorient.errors import InvalidInstanceError, UnsupportedError

from strategies import instances, multigraphs
from util import (
    components_rescan,
    exact,
    inst,
    path_edges,
    rand_conflicts,
    rand_forced,
    rand_graph,
    rand_parity,
    subset,
)

P3 = path_edges(3)


def test_validate_accepts_conflict_on_shared_vertex():
    assert validate_instance(inst(3, P3, conflicts=(exact(1, 0, 1),))) == []


def test_validate_rejects_non_incident_conflict_edge():
    errors = validate_instance(inst(3, P3, conflicts=(exact(2, 0),)))
    assert len(errors) == 1
    assert "not incident" in errors[0]


def test_validate_rejects_self_loop():
    errors = validate_instance(Instance(Multigraph(2, ((0, 0),))))
    assert any("self-loop" in e for e in errors)


def test_validate_rejects_bad_parity_forced_and_empty_conflict():
    bad = Instance(
        Multigraph(3, tuple(P3)),
        parity={7: 0, 1: 2},
        conflicts=(exact(1),),
        forced={0: 2, 9: 0},
    )
    errors = validate_instance(bad)
    assert any("unknown vertex 7" in e for e in errors)
    assert any("expected 0 or 1" in e for e in errors)
    assert any("empty edge set" in e for e in errors)
    assert any("not an endpoint" in e for e in errors)
    assert any("unknown edge 9" in e for e in errors)


def test_validate_rejects_parity_and_forced_heads_that_are_not_ints():
    # True == 1 and 1.0 == 1, but neither serializes as a document's integer.
    g = Multigraph(2, ((0, 1),))
    assert validate_instance(Instance(g, {0: True, 1: 1.0}, (), {0: False})) == [
        "parity of vertex 0 is True, expected 0 or 1",
        "parity of vertex 1 is 1.0, expected 0 or 1",
        "forced head False is not an endpoint of edge 0",
    ]
    assert validate_instance(Instance(g, {0: 1, 1: 0}, (), {0: 0})) == []


def test_validate_lists_every_error_in_id_order():
    # Parity and forced entries out of id order; the messages come sorted
    # by id, parity before conflicts before forced.
    bad = Instance(
        Multigraph(3, tuple(P3)),
        parity={9: 0, 1: 2, 7: 5},
        conflicts=(exact(1, 0, 5),),
        forced={12: 0, 0: 2},
    )
    assert validate_instance(bad) == [
        "parity of vertex 1 is 2, expected 0 or 1",
        "parity constraint on unknown vertex 7",
        "parity of vertex 7 is 5, expected 0 or 1",
        "parity constraint on unknown vertex 9",
        "conflict 0 names unknown edge 5",
        "forced head 2 is not an endpoint of edge 0",
        "forced orientation names unknown edge 12",
    ]


def test_validate_lists_every_bad_edge_in_id_order():
    g = Multigraph(3, ((0, 5), (4, 1), (0, 1), (2, 2), (-1, 0), (3, -2)))
    assert validate_instance(Instance(g)) == [
        "edge 0=(0, 5) has an endpoint outside 0..2",
        "edge 1=(1, 4) has an endpoint outside 0..2",
        "edge 3 is a self-loop at vertex 2",
        "edge 4=(-1, 0) has an endpoint outside 0..2",
        "edge 5=(-2, 3) has an endpoint outside 0..2",
    ]


def test_verify_exact_pair_fires_on_equality():
    i = inst(3, P3, conflicts=(exact(1, 0, 1),))
    rep = verify(i, Orientation((1, 1)))
    assert rep.conflict_violations == (0,)
    assert not rep.ok


def test_verify_subset_singleton_fires_inside_incoming():
    i = inst(3, P3, conflicts=(subset(1, 0),))
    assert verify(i, Orientation((1, 1))).conflict_violations == (0,)


def test_verify_exact_pair_ok_on_proper_subset():
    i = inst(3, P3, conflicts=(exact(1, 0, 1),))
    rep = verify(i, Orientation((1, 2)))
    assert rep.conflict_violations == ()
    assert rep.ok


def test_verify_reports_parity_violations():
    i = inst(3, P3, parity={0: 0, 1: 0, 2: 1})
    rep = verify(i, Orientation((1, 2)))
    assert rep.parity_violations == (1,)


def test_verify_rejects_malformed_orientation():
    i = inst(3, P3)
    with pytest.raises(InvalidInstanceError):
        verify(i, Orientation((1,)))
    with pytest.raises(InvalidInstanceError):
        verify(i, Orientation((2, 2)))


def test_exact_violation_uses_edge_identity_for_parallels():
    g = [(0, 1), (0, 1)]
    o = Orientation((1, 0))  # incoming at 1 is {e0}
    assert verify(inst(2, g, conflicts=(exact(1, 1),)), o).conflict_violations == ()
    assert verify(inst(2, g, conflicts=(exact(1, 0),)), o).conflict_violations == (0,)


def test_normalize_drops_parity_mismatched_exact_conflict():
    i = inst(3, P3, parity={1: 1}, conflicts=(exact(1, 0, 1),))
    n = normalize(i)
    assert n is not None and n.conflicts == ()


def test_normalize_keeps_parity_matched_exact_conflict():
    i = inst(3, P3, parity={1: 0}, conflicts=(exact(1, 0, 1),))
    n = normalize(i)
    assert n is not None and n.conflicts == i.conflicts


def test_normalize_turns_subset_singleton_into_forcing():
    n = normalize(inst(3, P3, conflicts=(subset(1, 0),)))
    assert n is not None
    assert n.conflicts == ()
    assert n.forced == {0: 0}


def test_normalize_detects_contradictory_forcings():
    assert normalize(inst(3, P3, conflicts=(subset(0, 0), subset(1, 0)))) is None


def through_the_fixpoint(i: Instance):
    """contract_forced(i) as its fixpoint loop gives it: i plus one forced
    edge between two new vertices, which no conflict and no target sees,
    so only the early exit is bypassed. Returns the contraction with the
    extra edge and vertices taken back out, None, or the raised error."""
    g = i.graph
    n, m = g.vertex_count, g.edge_count
    padded = Instance(Multigraph(n + 2, g.edges + ((n, n + 1),)), i.parity, i.conflicts, {m: n + 1})
    try:
        con = contract_forced(padded)
    except UnsupportedError as exc:
        return type(exc)
    if con is None:
        return None
    red = con.instance
    unpadded = Instance(Multigraph(n, red.graph.edges), red.parity, red.conflicts, red.forced)
    return unpadded, con.edge_origin, {e: h for e, h in con.forced_heads.items() if e != m}


def test_contract_forced_returns_a_forced_free_instance_as_it_is():
    for c in (exact(1, 0, 1), subset(1, 0, 1)):
        i = inst(3, P3, {0: 1, 1: 0}, conflicts=(c,))
        con = contract_forced(i)
        assert con.instance is i
        assert con.edge_origin == (0, 1) and con.forced_heads == {}
    # A subset conflict of one edge still forces it away, and the cut edge goes.
    con = contract_forced(inst(3, P3, conflicts=(subset(1, 0),)))
    assert con.forced_heads == {0: 0}
    assert con.instance.graph.edges == ((1, 2),)
    with pytest.raises(UnsupportedError):
        contract_forced(inst(3, P3, conflicts=(Conflict(1, frozenset(), ConflictKind.EXACT),)))


def test_contract_forced_early_exit_agrees_with_the_fixpoint():
    rng = Random(31)
    shortcut = 0
    for trial in range(1500):
        g = rand_graph(rng, nmax=6, mmax=9)
        kind = rng.choice((ConflictKind.EXACT, ConflictKind.SUBSET))
        conflicts = rand_conflicts(rng, g, kind, max_count=3, max_size=3)
        if rng.random() < 0.1:
            conflicts += (Conflict(rng.randrange(g.vertex_count), frozenset(), kind),)
        i = Instance(g, rand_parity(rng, g.vertex_count), conflicts)
        con = None
        try:
            con = contract_forced(i)
            got = None if con is None else (con.instance, con.edge_origin, con.forced_heads)
        except UnsupportedError as exc:
            got = type(exc)
        shortcut += con is not None and con.instance is i
        assert got == through_the_fixpoint(i), f"trial {trial}: {i}"
    assert shortcut > 500


def test_components_single_path():
    assert len(components(Multigraph(3, tuple(P3)))) == 1


def test_components_two_disjoint_edges():
    comps = components(Multigraph(4, ((0, 1), (2, 3))))
    assert [c.vertices for c in comps] == [(0, 1), (2, 3)]
    assert [c.edges for c in comps] == [(0,), (1,)]


def test_components_isolated_vertices():
    comps = components(Multigraph(3, ()))
    assert [c.vertices for c in comps] == [(0,), (1,), (2,)]


def test_components_match_the_rescanning_reference():
    rng = Random(303)
    isolated = parallel = 0
    for _ in range(500):
        g = rand_graph(rng, nmax=30, mmax=30, mmin=0)
        edges = list(g.edges)
        for _ in range(rng.randint(0, 4)):
            if edges:
                edges.insert(rng.randrange(len(edges) + 1), rng.choice(edges))
        g = Multigraph(g.vertex_count, tuple(edges))
        isolated += any(g.degree(v) == 0 for v in range(g.vertex_count))
        parallel += len(set(edges)) < len(edges)
        assert components(g) == components_rescan(g), g
    assert isolated > 100 and parallel > 100


@settings(max_examples=80, deadline=None)
@given(multigraphs())
def test_indegree_sum_equals_edge_count(g: Multigraph):
    heads = tuple(g.edges[e][e % 2] for e in range(g.edge_count))
    assert sum(Orientation(heads).indegrees(g)) == g.edge_count


@settings(max_examples=60, deadline=None)
@given(instances(with_conflicts=True, with_forced=True))
def test_verify_matches_manual_recount(i: Instance):
    g = i.graph
    o = Orientation(tuple(max(g.edges[e]) for e in range(g.edge_count)))
    rep = verify(i, o)
    indeg = o.indegrees(g)
    assert set(rep.parity_violations) == {v for v, p in i.parity.items() if indeg[v] % 2 != p}


def test_subset_violation_is_monotone():
    # Every C within a violated superset conflict is violated itself.
    rng = Random(4901)
    for _ in range(50):
        g = rand_graph(rng, nmax=5, mmax=8)
        o = Orientation(tuple(g.edges[e][rng.randint(0, 1)] for e in range(g.edge_count)))
        for v in range(g.vertex_count):
            inc = g.incident(v)
            for size in (1, 2):
                for big in combinations(inc, min(len(inc), size + 1)):
                    for small in combinations(big, size):
                        big_bad = verify(inst(g.vertex_count, list(g.edges), conflicts=(subset(v, *big),)), o)
                        small_bad = verify(inst(g.vertex_count, list(g.edges), conflicts=(subset(v, *small),)), o)
                        if big_bad.conflict_violations:
                            assert small_bad.conflict_violations


def test_normalize_preserves_oracle_feasibility():
    rng = Random(733)
    for _ in range(150):
        g = rand_graph(rng, nmax=5, mmax=9)
        i = Instance(
            g,
            rand_parity(rng, g.vertex_count),
            rand_conflicts(rng, g, rng.choice((ConflictKind.EXACT, ConflictKind.SUBSET))),
            rand_forced(rng, g),
        )
        n = normalize(i)
        before = enumerate_best(i).feasible
        after = False if n is None else enumerate_best(n).feasible
        assert before == after, f"normalize changed feasibility on {i}"


@settings(max_examples=50, deadline=None)
@given(multigraphs(max_vertices=5, max_edges=8))
def test_components_partition_vertices_and_edges(g: Multigraph):
    comps = components(g)
    verts = [v for c in comps for v in c.vertices]
    edges = [e for c in comps for e in c.edges]
    assert sorted(verts) == list(range(g.vertex_count))
    assert sorted(edges) == list(range(g.edge_count))


def test_multigraph_incidence_and_degree():
    g = Multigraph(3, ((1, 0), (1, 2), (0, 1)))
    assert g.edges[0] == (0, 1)  # endpoints are stored sorted
    assert g.incident(1) == (0, 1, 2)
    assert g.degree(1) == 3
    assert g.other_end(1, 1) == 2
