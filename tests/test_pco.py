"""Base parity solver against the oracle, plus its optimization variant."""

from __future__ import annotations

import hashlib
from random import Random

import pytest
from hypothesis import given, settings

import pcorient
from pcorient import (
    Instance,
    Multigraph,
    PcoResult,
    components,
    enumerate_best,
    solve_pco,
    solve_pco_max,
    verify,
)
from pcorient.cli import _DECISION_SOLVERS
from pcorient import core, pco
from pcorient.core import contract_forced
from pcorient.errors import InvalidInstanceError
from pcorient.oracle import decide_feasible

from strategies import instances
from util import (
    cycle_edges,
    even_parity,
    exact,
    inst,
    path_edges,
    pco_reference,
    rand_forced,
    rand_forest,
    rand_graph,
    rand_parity,
)


def test_c4_all_even_is_feasible():
    i = inst(4, cycle_edges(4), even_parity(4))
    res = solve_pco(i)
    assert res.feasible
    assert verify(i, res.orientation).ok
    assert all(d % 2 == 0 for d in res.orientation.indegrees(i.graph))


def test_triangle_all_even_is_infeasible():
    assert not solve_pco(inst(3, cycle_edges(3), even_parity(3))).feasible


def test_path_with_one_constrained_midpoint():
    i = inst(3, path_edges(3), parity={1: 0})
    res = solve_pco(i)
    assert res.feasible
    assert res.orientation.indegrees(i.graph)[1] % 2 == 0


def test_conflicts_are_rejected():
    i = inst(3, path_edges(3), conflicts=(exact(1, 0, 1),))
    with pytest.raises(InvalidInstanceError):
        solve_pco(i)


SOLVERS = {n: getattr(pcorient, n) for n in sorted(pcorient.__all__) if n.startswith("solve_")}
# Both branching routes keep a case of their own, under the names their entries
# had before they became one solve_pco_fpt, and run what `solve` dispatches.
SOLVERS.update(
    solve_pco_ec_fpt=_DECISION_SOLVERS["pco-ec-fpt"],
    solve_pco_sc_fpt=_DECISION_SOLVERS["pco-sc-fpt"],
)
ENTRIES = {**SOLVERS, "enumerate_best": enumerate_best, "decide_feasible": decide_feasible}


@pytest.mark.parametrize("solver", ENTRIES)
@pytest.mark.parametrize(
    "bad",
    [
        inst(3, [(0, 1), (1, 1)]),
        inst(2, [(0, 0), (0, 1)], parity={0: 0}),
        inst(3, path_edges(3), parity={1: 2}),
        inst(3, path_edges(3), parity={7: 0}),
        inst(3, path_edges(3), forced={0: 2}),
        inst(2, [(0, 1)], forced={0: 5}),
        inst(3, [(0, 1), (1, 3)]),
        inst(2, [(0, 1), (0, 1)], conflicts=(exact(0, 0, 7),)),
        inst(2, [(0, 1)], parity={0: True}),
        inst(2, [(0, 1)], parity={0: 1.0}),
        inst(2, [(0, 1)], forced={0: True}),
        inst(2, [(0, 1)], parity={True: 0}),
        inst(3, path_edges(3), forced={True: 2}),
        inst(3, path_edges(3), {1: 0}, (exact(True, 0, 1),)),
        inst(3, path_edges(3), {1: 0}, (exact(1, 0, True),)),
    ],
    ids=[
        "self-loop",
        "constrained-self-loop",
        "parity-2",
        "parity-vertex-unknown",
        "forced-head-off-edge",
        "forced-head-unknown",
        "endpoint-out-of-range",
        "conflict-edge-unknown",
        "parity-true",
        "parity-float",
        "forced-head-true",
        "parity-key-true",
        "forced-key-true",
        "conflict-vertex-true",
        "conflict-member-true",
    ],
)
def test_malformed_instances_are_rejected_at_entry(solver, bad):
    with pytest.raises(InvalidInstanceError):
        ENTRIES[solver](bad)


@pytest.mark.parametrize("solver", SOLVERS)
def test_every_solver_returns_a_pco_result(solver):
    i = inst(4, cycle_edges(4), even_parity(4))
    res = SOLVERS[solver](i)
    assert isinstance(res, PcoResult)
    assert res.feasible and res.satisfied == 4
    assert verify(i, res.orientation).ok


def test_forced_edges_are_respected():
    i = inst(3, path_edges(3), parity={1: 1}, forced={0: 1})
    res = solve_pco(i)
    assert res.feasible
    assert res.orientation.heads[0] == 1
    assert res.orientation.indegrees(i.graph)[1] % 2 == 1


def test_contradiction_between_forcing_and_parity():
    # Lone edge forced into 1, but 1 demands even indegree and 0 demands odd.
    i = inst(2, [(0, 1)], parity={0: 1, 1: 0}, forced={0: 1})
    assert not solve_pco(i).feasible


def test_max_on_triangle_sacrifices_one():
    res = solve_pco_max(inst(3, cycle_edges(3), even_parity(3)))
    assert res.satisfied == 2


def test_max_on_c4_satisfies_all():
    assert solve_pco_max(inst(4, cycle_edges(4), even_parity(4))).satisfied == 4


def test_max_on_two_disjoint_triangles():
    edges = cycle_edges(3) + [(u + 3, v + 3) for u, v in cycle_edges(3)]
    res = solve_pco_max(inst(6, edges, even_parity(6)))
    assert res.satisfied == 4


def test_max_verifies_and_counts_consistently():
    rng = Random(6121)
    for _ in range(60):
        g = rand_graph(rng, nmax=6, mmax=10)
        i = Instance(g, rand_parity(rng, g.vertex_count), (), rand_forced(rng, g, 0.1))
        res = solve_pco_max(i)
        if res.feasible is False:
            continue  # forced contradictions surface as infeasible, fine
        rep = verify(i, res.orientation)
        assert res.satisfied == len(i.parity) - len(rep.parity_violations)


def test_parity_identity_on_fully_constrained_components():
    # satisfied = |constrained| - ((sum p + |E|) mod 2), per connected component.
    rng = Random(922)
    for _ in range(80):
        g = rand_graph(rng, nmax=6, mmax=9)
        parity = {v: rng.randint(0, 1) for v in range(g.vertex_count)}
        res = solve_pco_max(Instance(g, parity))
        want = 0
        for comp in components(g):
            s = sum(parity[v] for v in comp.vertices)
            want += len(comp.vertices) - ((s + len(comp.edges)) % 2)
        assert res.satisfied == want


@settings(max_examples=100, deadline=None)
@given(instances(with_forced=True))
def test_agrees_with_oracle(i: Instance):
    want = enumerate_best(i)
    got = solve_pco(i)
    assert got.feasible == want.feasible
    got_max = solve_pco_max(i)
    assert got_max.satisfied == want.best_satisfied_parities


def test_deterministic_orientation():
    i = inst(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)], parity={0: 0, 2: 1})
    first = solve_pco(i)
    second = solve_pco(i)
    assert first.orientation.heads == second.orientation.heads


def test_feasibility_split_by_unconstrained_vertex():
    # A fully even triangle is stuck, but freeing one vertex unsticks it.
    g = Multigraph(3, tuple(cycle_edges(3)))
    assert not solve_pco(Instance(g, even_parity(3))).feasible
    assert solve_pco(Instance(g, {0: 0, 1: 0})).feasible


def component_union(rng: Random) -> Instance:
    """One to five small components on blocks of consecutive ids, in a
    random edge order and sometimes relabelled. A one-vertex block is an
    isolated vertex; others get a spanning tree, extra and parallel edges.
    A block is fully constrained (feasible or not by its parity sum) or
    has free vertices. No edge, some edges or every edge is forced."""
    edges: list[tuple[int, int]] = []
    parity: dict[int, int] = {}
    n = 0
    for _ in range(rng.randint(1, 5)):
        block = range(n, n + rng.randint(1, 5))
        edges += [(rng.randrange(n, v), v) for v in block[1:]]
        for _ in range(rng.randint(0, len(block) - 1)):
            u, w = rng.sample(block, 2)
            edges += [(u, w)] * rng.randint(1, 2)
        full = rng.random() < 0.6
        parity.update((v, rng.randint(0, 1)) for v in block if full or rng.random() < 0.5)
        n = block.stop
    rng.shuffle(edges)
    if rng.random() < 0.3:
        label = rng.sample(range(n), n)
        edges = [(label[u], label[w]) for u, w in edges]
        parity = {label[v]: p for v, p in parity.items()}
    g = Multigraph(n, tuple(edges))
    return Instance(g, parity, (), rand_forced(rng, g, rng.choice((0.0, 0.2, 0.6, 1.0))))


def test_sweep_matches_the_per_component_reference():
    # Same verdict, count and heads as orienting one component at a time.
    # Tally where the contracted instance's infeasible components sit, so
    # the draws are seen to reach each case the early exit and the max
    # route's sacrifice meet.
    seen = dict.fromkeys(("first", "middle", "last", "several", "all-forced", "isolated", "parallel"), 0)
    for seed in range(600):
        i = component_union(Random(seed))
        for maximize, solve in ((False, solve_pco), (True, solve_pco_max)):
            got = solve(i)
            want = pco_reference(i, maximize)
            assert (got.feasible, got.satisfied, got.orientation) == (
                want.feasible, want.satisfied, want.orientation), (seed, maximize)
        red = contract_forced(i).instance
        comps = components(red.graph)
        bad = [k for k, c in enumerate(comps)
               if all(v in red.parity for v in c.vertices)
               and (sum(red.parity[v] for v in c.vertices) + len(c.edges)) % 2]
        if bad:
            seen["first" if bad[0] == 0 else "last" if bad[0] == len(comps) - 1 else "middle"] += 1
        seen["several"] += len(bad) > 1
        seen["all-forced"] += len(i.forced) == i.graph.edge_count > 0
        seen["isolated"] += any(i.graph.degree(v) == 0 for v in range(i.graph.vertex_count))
        seen["parallel"] += len(set(i.graph.edges)) < i.graph.edge_count
    assert min(seen.values()) >= 20, seen


def base_forests():
    """30 seeded bench-shaped forests of 300-3,000 edges, a third infeasible."""
    for seed in range(30):
        rng = Random(seed)
        yield rand_forest(rng, rng.randint(300, 3000), infeasible=seed % 3 == 2)


def test_forests_match_the_per_component_reference():
    # The reference again, on instances far larger than component_union's.
    infeasible = 0
    for k, i in enumerate(base_forests()):
        for maximize, solve in ((False, solve_pco), (True, solve_pco_max)):
            got = solve(i)
            want = pco_reference(i, maximize)
            assert (got.feasible, got.satisfied, got.orientation) == (
                want.feasible, want.satisfied, want.orientation), (k, maximize)
        infeasible += not solve_pco(i).feasible
    assert infeasible == 10


def test_base_route_is_pinned():
    # Every verdict, count and orientation of both base solvers on the
    # component unions and the forests, hashed together. The digest was
    # taken from the three-pass route that contracted forced edges,
    # listed components, then oriented; the one-pass route must match.
    h = hashlib.sha256()
    unions = (component_union(Random(seed)) for seed in range(600))
    for i in (*unions, *base_forests()):
        for solve in (solve_pco, solve_pco_max):
            r = solve(i)
            h.update(repr((r.feasible, r.satisfied, r.orientation)).encode())
    assert h.hexdigest() == "e839fd8fe0a6f868741a723a072e75f1d68c3d1435ddd65c93a78f5cc2bb48e9"


def test_base_route_solves_the_input_in_one_pass(monkeypatch):
    # No contracted copy, no components pass and no expansion, wherever
    # the route might look them up; and the input graph gets no
    # incidence cache, because the route builds its own adjacency.
    calls = []
    for name in ("contract_forced", "components", "expand_orientation"):
        def spy(*args, name=name, real=getattr(core, name)):
            calls.append(name)
            return real(*args)

        for module in (pcorient, core, pco):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)
    for k, infeasible in enumerate((False, True)):
        i = rand_forest(Random(k), 300, infeasible)
        assert i.forced
        for solve in (solve_pco, solve_pco_max):
            assert solve(i).feasible is not infeasible
        assert "_incidence" not in vars(i.graph)
    assert calls == []
