"""The brute-force ground truth has to be boringly right; these tests poke it."""

from __future__ import annotations

from random import Random

import pytest

from pcorient import Conflict, ConflictKind, Instance, Multigraph, enumerate_best, verify
from pcorient.errors import InvalidDocumentError, OracleLimitError
from pcorient.oracle import decide_feasible, iter_feasible, sat_oracle, sat_witness
from pcorient.sat import SatInstance, parse_formula

from util import (
    cycle_edges,
    enumerate_scalar,
    even_parity,
    exact,
    feasible_scalar,
    inst,
    rand_conflicts,
    rand_forced,
    rand_graph,
    rand_parity,
)


def test_single_even_edge():
    res = enumerate_best(inst(2, [(0, 1)], even_parity(2)))
    assert not res.feasible
    assert res.best_satisfied_parities == 1
    assert res.min_odd_vertices == 1


def test_c4_all_even():
    res = enumerate_best(inst(4, cycle_edges(4), even_parity(4)))
    assert res.feasible
    assert res.min_odd_vertices == 0


def test_triangle_all_even():
    res = enumerate_best(inst(3, cycle_edges(3), even_parity(3)))
    assert not res.feasible
    assert res.best_satisfied_parities == 2


def test_witness_passes_verify():
    i = inst(4, cycle_edges(4), {0: 0, 2: 1}, conflicts=(exact(1, 0, 1),))
    res = enumerate_best(i)
    assert res.feasible
    rep = verify(i, res.witness)
    assert rep.ok


def test_unavoidable_conflict_yields_no_witness():
    # Pair forced fully into vertex 0; the exact conflict always fires.
    i = inst(2, [(0, 1), (0, 1)], conflicts=(exact(0, 0, 1),), forced={0: 0, 1: 0})
    res = enumerate_best(i)
    assert res == type(res)(False, None, None, None)


def test_budget_refusal():
    g = [(0, 1)] * 21
    with pytest.raises(OracleLimitError):
        enumerate_best(inst(2, g))
    assert enumerate_best(inst(2, g[:5]), max_edges=5) is not None


def test_sweep_answers_more_than_64_free_edges():
    # Each step closes one vertex of the cycle, so the cuts act at every step.
    res = enumerate_best(inst(66, cycle_edges(66), even_parity(66)), max_edges=100)
    assert res.feasible
    assert res.best_satisfied_parities == 66
    assert res.min_odd_vertices == 0


def test_adding_a_conflict_never_helps():
    rng = Random(3319)
    for _ in range(80):
        g = rand_graph(rng, nmax=5, mmax=8)
        parity = rand_parity(rng, g.vertex_count)
        base = enumerate_best(Instance(g, parity))
        extra = rand_conflicts(rng, g, ConflictKind.SUBSET, max_count=1)
        if not extra:
            continue
        cut = enumerate_best(Instance(g, parity, extra))
        if cut.best_satisfied_parities is not None:
            assert cut.best_satisfied_parities <= base.best_satisfied_parities


def test_counts_invariant_under_relabeling():
    rng = Random(407)
    for _ in range(40):
        g = rand_graph(rng, nmax=6, mmax=9)
        parity = rand_parity(rng, g.vertex_count)
        conflicts = rand_conflicts(rng, g, ConflictKind.EXACT, max_count=2, max_size=2)
        i = Instance(g, parity, conflicts)

        vperm = list(range(g.vertex_count))
        rng.shuffle(vperm)
        eperm = list(range(g.edge_count))
        rng.shuffle(eperm)
        edges: list[tuple[int, int]] = [(-1, -1)] * g.edge_count
        for e, (u, v) in enumerate(g.edges):
            edges[eperm[e]] = (vperm[u], vperm[v])
        j = Instance(
            Multigraph(g.vertex_count, tuple(edges)),
            {vperm[v]: p for v, p in parity.items()},
            tuple(
                Conflict(vperm[c.vertex], frozenset(eperm[e] for e in c.edges), c.kind)
                for c in conflicts
            ),
        )
        a, b = enumerate_best(i), enumerate_best(j)
        assert (a.feasible, a.best_satisfied_parities, a.min_odd_vertices) == (
            b.feasible,
            b.best_satisfied_parities,
            b.min_odd_vertices,
        )


def test_sweep_agrees_with_scalar_reference():
    # enumerate_best against the per-orientation reference, witness included.
    # Sparse parities leave many orientations tied at the best count, and
    # the larger graphs give the min-odd cut subtrees to remove.
    rng = Random(88)
    cases = [inst(0, []), inst(3, [], {0: 1, 2: 0})]
    for t in range(640):
        g = rand_graph(rng, nmax=8, mmax=16) if t % 16 == 0 else rand_graph(rng, nmax=6, mmax=13)
        conflicts = rand_conflicts(rng, g, ConflictKind.EXACT) + rand_conflicts(
            rng, g, ConflictKind.SUBSET
        )
        density = 0.3 if t % 2 else 0.7
        cases.append(
            Instance(g, rand_parity(rng, g.vertex_count, density), conflicts, rand_forced(rng, g, 0.3))
        )
    for i in cases:
        assert enumerate_best(i) == enumerate_scalar(i), i


def test_backtracking_agrees_with_flat_enumeration():
    rng = Random(909)
    for _ in range(200):
        g = rand_graph(rng, nmax=6, mmax=10)
        i = Instance(
            g,
            rand_parity(rng, g.vertex_count),
            rand_conflicts(rng, g, None),
            rand_forced(rng, g, 0.2),
        )
        flat = enumerate_best(i)
        witness = decide_feasible(i)
        assert flat.feasible == (witness is not None)
        if witness is not None:
            assert verify(i, witness).ok


def test_iter_feasible_yields_exactly_the_scalar_solutions():
    rng = Random(5150)
    for _ in range(150):
        g = rand_graph(rng, nmax=6, mmax=10)
        i = Instance(
            g,
            rand_parity(rng, g.vertex_count, rng.choice((0.3, 1.0))),
            rand_conflicts(rng, g, None),
            rand_forced(rng, g, 0.2),
        )
        found = sorted(o.heads for o in iter_feasible(i))
        assert found == sorted(o.heads for o in feasible_scalar(i)), i


def test_iter_feasible_yields_each_solution_once():
    i = inst(4, cycle_edges(4), even_parity(4))
    seen = [o.heads for o in iter_feasible(i)]
    assert len(seen) == len(set(seen))
    assert len(seen) == 2  # the two alternating even orientations of C4
    assert all(verify(i, o).ok for o in iter_feasible(i))


def test_sat_single_clause():
    f = SatInstance(3, (((0, False), (1, False), (2, False)),))
    assert sat_oracle(f)
    w = sat_witness(f)
    assert w is not None and sum(w) == 1


def test_sat_repeated_variable_rejected():
    with pytest.raises(InvalidDocumentError):
        parse_formula("1 -1 2\n")


def test_sat_empty_formula_is_vacuously_true():
    assert sat_oracle(SatInstance(0, ()))


def test_sat_contradictory_pair():
    f = parse_formula("1 2 3\n-1 -2 -3\n")
    assert not sat_oracle(f)
    assert sat_witness(f) is None


def test_sat_variable_budget():
    f = SatInstance(21, (((0, False), (1, False), (2, False)),))
    with pytest.raises(OracleLimitError):
        sat_oracle(f)
