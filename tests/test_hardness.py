"""Satisfiability-encoding generators: structure checks and double-oracle spot tests."""

from __future__ import annotations

from itertools import islice

import pytest

from pcorient import ConflictKind, reduce_to_pco_2ec, reduce_to_pco_2sc
from pcorient.errors import InvalidDocumentError
from pcorient.oracle import decide_feasible, iter_feasible, sat_oracle
from pcorient.sat import SatInstance


def clause(*lits: int):
    return tuple((abs(x) - 1, x < 0) for x in lits)


F1 = SatInstance(3, (clause(1, 2, 3),))
CONTRADICTION = SatInstance(3, (clause(1, 2, 3), clause(-1, -2, -3)))


def test_ec_shape_for_single_clause():
    art = reduce_to_pco_2ec(F1)
    g = art.instance.graph
    assert g.edge_count % 2 == 0
    assert art.instance.parity == {v: 0 for v in range(g.vertex_count)}
    assert all(c.size == 2 and c.kind is ConflictKind.EXACT for c in art.instance.conflicts)
    for v in art.roles("spine").values():
        assert g.degree(v) == 4
    for v in art.roles("clause").values():
        assert g.degree(v) == 5
    for v in art.roles("clause-pendant").values():
        assert g.degree(v) == 1


def test_ec_spine_conflicts_cover_all_incident_pairs():
    art = reduce_to_pco_2ec(F1)
    g = art.instance.graph
    spine = set(art.roles("spine").values())
    per_vertex: dict[int, int] = {}
    for c in art.instance.conflicts:
        if c.vertex in spine:
            per_vertex[c.vertex] = per_vertex.get(c.vertex, 0) + 1
    assert per_vertex == {v: 6 for v in spine}  # C(4,2) pairs at degree-4 vertices


def test_ec_satisfiable_clause_is_orientable():
    assert sat_oracle(F1)
    art = reduce_to_pco_2ec(F1)
    assert decide_feasible(art.instance) is not None


def test_ec_contradiction_is_not_orientable():
    assert not sat_oracle(CONTRADICTION)
    art = reduce_to_pco_2ec(CONTRADICTION)
    assert decide_feasible(art.instance) is None


def test_ec_clause_vertices_pin_indegree_four():
    art = reduce_to_pco_2ec(F1)
    g = art.instance.graph
    cids = list(art.roles("clause").values())
    count = 0
    for o in iter_feasible(art.instance):
        indeg = o.indegrees(g)
        assert all(indeg[c] == 4 for c in cids)
        count += 1
    assert count > 0


def test_ec_rejects_empty_and_malformed_formulas():
    with pytest.raises(InvalidDocumentError):
        reduce_to_pco_2ec(SatInstance(3, ()))
    with pytest.raises(InvalidDocumentError):
        reduce_to_pco_2ec(SatInstance(2, (clause(1, 2, 3),)))


def test_ec_double_oracle_spot_checks():
    for f in (
        SatInstance(3, (clause(1, -2, 3),)),
        SatInstance(3, (clause(1, 2, 3), clause(1, 2, 3))),
        SatInstance(3, (clause(1, 2, 3), clause(-1, 2, -3))),
        SatInstance(3, (clause(-1, -2, -3), clause(1, -2, 3))),
    ):
        art = reduce_to_pco_2ec(f)
        assert sat_oracle(f) == (decide_feasible(art.instance) is not None), f


def test_sc_pads_short_formulas_with_tagged_clauses():
    art = reduce_to_pco_2sc(F1)
    assert art.padded_clauses == (1, 2)
    assert len(art.padded_variables) == 6
    assert all(v >= 3 for v in art.padded_variables)
    g = art.instance.graph
    assert g.edge_count % 2 == 0
    for v in art.roles("ring").values():
        assert g.degree(v) == 4
    for v in art.roles("clause").values():
        assert g.degree(v) == 4


def test_sc_three_clause_formula_needs_no_padding():
    f = SatInstance(3, (clause(1, 2, 3), clause(-1, 2, 3), clause(1, -2, -3)))
    art = reduce_to_pco_2sc(f)
    assert art.padded_clauses == ()
    assert art.padded_variables == ()
    assert all(c.kind is ConflictKind.SUBSET and c.size == 2 for c in art.instance.conflicts)


def test_sc_feasible_orientations_run_rings_cyclically():
    f = SatInstance(3, (clause(1, 2, 3), clause(-1, -2, 3), clause(-1, 2, -3)))
    assert sat_oracle(f)
    art = reduce_to_pco_2sc(f)
    g = art.instance.graph
    ring_edges: dict[int, list[int]] = {}
    for name, e in art.labels.items():
        if name.startswith("ring-edge/"):
            ring_edges.setdefault(int(name.split("/")[1]), []).append(e)
    checked = 0
    for o in islice(iter_feasible(art.instance), 24):
        for var, edges in ring_edges.items():
            heads = [o.heads[e] for e in edges]
            assert len(set(heads)) == len(edges), f"ring {var} not cyclic"
        checked += 1
    assert checked > 0


def test_sc_double_oracle_spot_checks():
    for f in (
        SatInstance(3, (clause(1, 2, 3), clause(-1, -2, 3), clause(1, -2, -3))),
        SatInstance(3, (clause(1, 2, 3), clause(-1, -2, -3), clause(1, -2, 3))),
    ):
        art = reduce_to_pco_2sc(f)
        assert sat_oracle(f) == (decide_feasible(art.instance) is not None), f


@pytest.mark.parametrize("reduce", [reduce_to_pco_2ec, reduce_to_pco_2sc])
def test_decision_search_answers_five_and_six_clause_formulas(reduce):
    # Both constructions number their spine edges first; a search that
    # checked spine vertices only once those edges were decided would run
    # for minutes here, where the vertex-block order takes milliseconds.
    five = (clause(1, 2, 3), clause(-1, 2, 4), clause(3, 4, 5), clause(-2, -3, -5), clause(1, -4, 5))
    for f in (
        SatInstance(5, five),
        SatInstance(5, five + (clause(-1, 3, -5),)),
        SatInstance(6, (clause(1, 2, 3), clause(4, 5, 6), clause(-1, -4, 2), clause(3, 5, -6),
                        clause(1, 5, 6))),
        SatInstance(6, (clause(1, 2, 3), clause(4, 5, 6), clause(-1, -4, 2))),
    ):
        art = reduce(f)
        assert sat_oracle(f) == (decide_feasible(art.instance) is not None), f


def test_generators_are_deterministic():
    a = reduce_to_pco_2ec(F1)
    b = reduce_to_pco_2ec(F1)
    assert a.instance == b.instance and a.labels == b.labels
    c = reduce_to_pco_2sc(F1)
    d = reduce_to_pco_2sc(F1)
    assert c.instance == d.instance and c.labels == d.labels
