"""End-to-end acceptance checks, one test function per criterion.

Each function exercises one package-level promise: solver-vs-oracle
agreement, the pair-conflict matching equivalence, switching network
routing, reduction soundness, hardness encodings, branching budgets,
matching correctness, scaling, and byte-level determinism. Run with
``pytest -v tests/test_acceptance.py`` for one pass/fail line apiece.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from itertools import combinations, combinations_with_replacement, islice, product
from pathlib import Path

import networkx as nx

from pcorient import io
from pcorient.core import ConflictKind, Instance, normalize, verify
from pcorient.eo2dec import (
    build_lprime,
    solve_eo_2dec,
    solve_pco_2dec,
    solve_pco_dec,
    solve_pco_dsc,
)
from pcorient.fpt import solve_pco_fpt
from pcorient.hardness import reduce_to_pco_2ec, reduce_to_pco_2sc
from pcorient.matching import max_matching
from pcorient.oracle import decide_feasible, enumerate_best, iter_feasible, sat_oracle
from pcorient.pco import solve_pco, solve_pco_max
from pcorient.reductions import eo_dsc_to_eo_2dec, pco_dec_to_eo_2dec, pco_to_eo, pull_back
from pcorient.sat import SatInstance

from networks import build_switching_network, valid_output_patterns
from util import (
    brute_matching_size,
    conflict_menu,
    cycle_edges,
    even_parity,
    exact,
    inst,
    multigraphs_4v,
    rand_conflicts,
    rand_disjoint_pairs,
    rand_forced,
    rand_graph,
    rand_parity,
    random_links,
    random_regular_multigraph,
    round_graph,
)

DATA = Path(__file__).parent / "data"


def test_criterion_1_base_solver_matches_oracle():
    rng = random.Random(1001)
    start = time.perf_counter()
    for trial in range(500):
        g = rand_graph(rng, nmax=6, mmax=12)
        forced = rand_forced(rng, g) if rng.random() < 0.3 else {}
        i = Instance(g, rand_parity(rng, g.vertex_count), (), forced)
        res = solve_pco(i)
        best = solve_pco_max(i)
        truth = enumerate_best(i)
        assert res.feasible == truth.feasible, f"trial {trial}: {i}"
        assert best.satisfied == truth.best_satisfied_parities, f"trial {trial}: {i}"
        if res.feasible:
            assert verify(i, res.orientation).ok, f"trial {trial}: witness fails"
    assert time.perf_counter() - start < 10.0


def test_criterion_2_pair_conflicts_reduce_to_link_matching():
    rng = random.Random(1002)
    for trial in range(300):
        g = rand_graph(rng, nmax=6, mmax=12)
        pairs = rand_disjoint_pairs(rng, g)
        i = Instance(g, even_parity(g.vertex_count), pairs, {})
        t = g.vertex_count - solve_eo_2dec(i).satisfied
        truth = enumerate_best(i)
        sg = build_lprime(g, pairs)
        uncovered = sg.node_count - 2 * brute_matching_size(sg.node_count, sg.links)
        assert t == truth.min_odd_vertices == uncovered, f"trial {trial}: {i}"


def test_criterion_3_switching_networks_route_and_stay_small():
    for k in range(2, 8):
        net = build_switching_network(k)
        for rights in product((False, True), repeat=k):
            pats = valid_output_patterns(net, rights)
            assert pats, f"k={k}: {rights} admits no orientation"
            want = sum(rights)
            assert all(sum(p) == want for p in pats), f"k={k} rights={rights}"
            if 0 < want < k:
                assert any(p[0] and not p[1] for p in pats), f"k={k} rights={rights}"
    assert len(build_switching_network(8).copies) == 7
    for k in range(2, 65):
        assert build_switching_network(k).nonleaf_count <= 6 * k


def _reduction_agrees(orig: Instance, reduced: Instance, rmap, samples: int = 6) -> None:
    assert (decide_feasible(orig) is not None) == (decide_feasible(reduced) is not None), orig
    for o in islice(iter_feasible(reduced), samples):
        assert verify(orig, pull_back(o, rmap)).ok, orig


def test_criterion_4_reductions_preserve_feasibility():
    odd_parity = {0: 1, 1: 0, 2: 1, 3: 0}
    parity_maps = (even_parity(4), odd_parity, {0: 1, 2: 1})
    for g in multigraphs_4v():
        for par in parity_maps:
            orig = Instance(g, par, (), {})
            _reduction_agrees(orig, *pco_to_eo(orig))
        for kind in (ConflictKind.EXACT, ConflictKind.SUBSET):
            for config in conflict_menu(g, kind):
                orig = Instance(g, even_parity(4), config, {})
                norm = normalize(orig)
                assert norm is not None  # no contradictory singletons in the menu
                reduced, rmap = pco_to_eo(norm)
                assert (decide_feasible(orig) is not None) == (
                    decide_feasible(reduced) is not None
                ), orig
                for o in islice(iter_feasible(reduced), 6):
                    assert verify(orig, pull_back(o, rmap)).ok, orig
                if not orig.pairwise_disjoint():
                    continue
                reduce = pco_dec_to_eo_2dec if kind is ConflictKind.EXACT else eo_dsc_to_eo_2dec
                # Both gadgets carry odd and absent targets through as well.
                for par in parity_maps:
                    orig = Instance(g, par, config, {})
                    _reduction_agrees(orig, *reduce(orig))


ALL_CLAUSES = [tuple((v, bool(s >> v & 1)) for v in range(3)) for s in range(8)]


def test_criterion_5_hardness_encodings_track_satisfiability():
    ec_formulas = [SatInstance(3, (c,)) for c in ALL_CLAUSES]
    ec_formulas += [
        SatInstance(3, pair) for pair in combinations_with_replacement(ALL_CLAUSES, 2)
    ]
    assert len(ec_formulas) == 44
    for f in ec_formulas:
        art = reduce_to_pco_2ec(f)
        g = art.instance.graph
        for v in art.roles("spine").values():
            assert g.degree(v) == 4
        clause_ids = list(art.roles("clause").values())
        for v in clause_ids:
            assert g.degree(v) == 5
        w = decide_feasible(art.instance)
        assert sat_oracle(f) == (w is not None), f
        if w is not None:
            indeg = w.indegrees(g)
            assert all(indeg[c] == 4 for c in clause_ids), f
    sc_formulas = [SatInstance(3, triple) for triple in combinations(ALL_CLAUSES, 3)]
    assert len(sc_formulas) == 56
    for f in sc_formulas:
        art = reduce_to_pco_2sc(f)
        g = art.instance.graph
        for v in art.roles("ring").values():
            assert g.degree(v) == 4
        for v in art.roles("clause").values():
            assert g.degree(v) == 4
        assert sat_oracle(f) == (decide_feasible(art.instance) is not None), f


def test_criterion_6_branching_solvers_match_oracle_within_budget():
    # Kind None draws each conflict's kind on its own: mixed kinds.
    for kind, seed in ((ConflictKind.EXACT, 1006), (ConflictKind.SUBSET, 2006), (None, 3006)):
        rng = random.Random(seed)
        feasible_seen = 0
        for trial in range(300):
            g = rand_graph(rng, nmax=6, mmax=10)
            i = Instance(
                g,
                rand_parity(rng, g.vertex_count),
                rand_conflicts(rng, g, kind, max_count=3, max_size=3),
                {},
            )
            res = solve_pco_fpt(i)
            assert res.feasible == (decide_feasible(i) is not None), f"trial {trial}: {i}"
            bound = 1
            for c in i.conflicts:
                bound *= g.degree(c.vertex) + c.size
            assert res.branches is not None and res.branches <= bound, f"trial {trial}: {i}"
            if res.feasible:
                feasible_seen += 1
                assert verify(i, res.orientation).ok, f"trial {trial}"
        assert feasible_seen > 75


def _matching_agrees(node_count: int, links) -> None:
    got = max_matching(round_graph(node_count, links)).size
    assert got == brute_matching_size(node_count, links), (node_count, links)


def test_criterion_7_matching_matches_brute_force():
    rng = random.Random(1007)
    # Every connected graph on up to 7 nodes, from the packaged atlas.
    for g in nx.graph_atlas_g()[1:]:
        n = g.number_of_nodes()
        if n == 0 or n > 7 or not nx.is_connected(g):
            continue
        perm = list(range(n))
        rng.shuffle(perm)
        _matching_agrees(n, [(perm[u], perm[v]) for u, v in g.edges()])
    # Every connected 8-node graph, one representative per isomorphism class.
    count = 0
    with open(DATA / "connected8.g6", "rb") as fh:
        for line in fh:
            g = nx.from_graph6_bytes(line.strip())
            perm = list(range(8))
            rng.shuffle(perm)
            _matching_agrees(8, [(perm[u], perm[v]) for u, v in g.edges()])
            count += 1
    assert count == 11117
    # All labeled graphs on five nodes, connected or not.
    nodes = list(combinations(range(5), 2))
    for r in range(len(nodes) + 1):
        for links in combinations(nodes, r):
            _matching_agrees(5, list(links))
    # Random spot checks above the exhaustive range.
    for _ in range(100):
        _matching_agrees(10, random_links(rng, 10, 0.35))


def test_criterion_8_pair_route_scales():
    rng = random.Random(1008)
    times: dict[int, float] = {}
    for n in (125, 250, 500, 1000):
        g = random_regular_multigraph(rng, n, 4)
        i = Instance(g, even_parity(n), (), {})
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            res = solve_eo_2dec(i)
            best = min(best, time.perf_counter() - start)
        assert n - res.satisfied == 0, f"n={n}: 4-regular components are even-sized"
        assert len(res.orientation.heads) == g.edge_count
        times[g.edge_count] = best
    assert times[2000] < 60.0
    for m in (250, 500, 1000):
        # Cubic growth doubles into a factor of 8; allow slack over a noise floor.
        assert times[m * 2] <= 10.0 * max(times[m], 0.02), times
    # Same route under disjoint pair conflicts: consistent, no timing claim.
    g = random_regular_multigraph(rng, 250, 4)
    pairs = []
    used: set[int] = set()
    for v in range(0, 250, 8):
        inc = [e for e in g.incident(v) if e not in used]
        if len(inc) >= 2:
            pairs.append(exact(v, inc[0], inc[1]))
            used.update(inc[:2])
    i = Instance(g, even_parity(250), tuple(pairs), {})
    res = solve_eo_2dec(i)
    report = verify(Instance(g, {}, tuple(pairs), {}), res.orientation)
    assert report.conflict_violations == ()
    indeg = res.orientation.indegrees(g)
    odd = [v for v in range(250) if indeg[v] % 2]
    assert sorted(verify(i, res.orientation).parity_violations) == odd
    assert 250 - res.satisfied == len(odd)


def _battery_transcript() -> str:
    out: list[str] = []

    def emit(tag: str, text: object) -> None:
        out.append(f"== {tag}\n{text}\n")

    rng = random.Random(1009)
    cases: list[tuple[str, Instance]] = [
        ("even-c4", inst(4, cycle_edges(4), parity=even_parity(4))),
        ("forced-path", inst(3, [(0, 1), (1, 2)], parity={1: 1}, forced={0: 1})),
    ]
    for k in range(5):
        g = rand_graph(rng, nmax=6, mmax=9)
        cases.append((f"plain-{k}", Instance(g, rand_parity(rng, g.vertex_count), (), {})))
    for k in range(5):
        g = rand_graph(rng, nmax=6, mmax=9)
        pairs = rand_disjoint_pairs(rng, g)
        cases.append((f"pairs-{k}", Instance(g, even_parity(g.vertex_count), pairs, {})))
    for k in range(5):
        g = rand_graph(rng, nmax=6, mmax=9)
        cs = rand_conflicts(rng, g, ConflictKind.SUBSET, max_count=2, max_size=3)
        cases.append((f"subset-{k}", Instance(g, rand_parity(rng, g.vertex_count), cs, {})))
    for k in range(5):
        g = rand_graph(rng, nmax=6, mmax=9)
        cs = rand_conflicts(rng, g, None, max_count=3, max_size=3)
        cases.append((f"mixed-{k}", Instance(g, rand_parity(rng, g.vertex_count), cs, {})))

    for name, i in cases:
        emit(f"instance {name}", io.serialize_instance(i))
        truth = enumerate_best(i)
        emit(f"oracle {name}", (truth.feasible, truth.best_satisfied_parities, truth.min_odd_vertices, truth.witness))
        emit(f"decide {name}", decide_feasible(i))
        if not i.conflicts:
            emit(f"pco {name}", solve_pco(i))
            emit(f"pco-max {name}", solve_pco_max(i))
        else:
            emit(f"fpt {name}", solve_pco_fpt(i))
            kinds = {c.kind for c in i.conflicts}
            disjoint = i.pairwise_disjoint()
            if kinds == {ConflictKind.EXACT} and disjoint and all(c.size == 2 for c in i.conflicts):
                emit(f"eo-2dec {name}", solve_eo_2dec(i))
                emit(f"pco-2dec {name}", solve_pco_2dec(i))
                emit(f"pco-dec {name}", solve_pco_dec(i))
                emit(f"matching {name}", max_matching(build_lprime(i.graph, i.conflicts)).mate)
            if kinds == {ConflictKind.SUBSET} and disjoint and all(c.size >= 2 for c in i.conflicts):
                emit(f"pco-dsc {name}", solve_pco_dsc(i))

    f1 = SatInstance(3, (ALL_CLAUSES[1], ALL_CLAUSES[6]))
    for tag, builder in (("ec", reduce_to_pco_2ec), ("sc", reduce_to_pco_2sc)):
        art = builder(f1)
        emit(f"generate {tag}", io.serialize_instance(art.instance))
        emit(f"labels {tag}", json.dumps(art.labels, sort_keys=True))
    for k in (2, 3, 5):
        net = build_switching_network(k)
        emit(f"network {k}", io.serialize_instance(net.instance))
        pats = valid_output_patterns(net, (True,) + (False,) * (k - 1))
        emit(f"patterns {k}", sorted(pats))
    c4 = cases[0][1]
    emit("dot plain", io.export_dot(c4))
    emit("dot oriented", io.export_dot(c4, solve_pco(c4).orientation))
    return "".join(out)


def test_criterion_9_deterministic_output(tmp_path):
    assert _battery_transcript() == _battery_transcript()
    # Process-level rerun with different hash seeds: byte-identical files.
    exe = shutil.which("pcorient")
    cmd = [exe] if exe else [sys.executable, "-m", "pcorient.cli"]
    formula = tmp_path / "f.txt"
    formula.write_text("1 -2 3\n-1 2 3\n")
    c4 = tmp_path / "c4.json"
    c4.write_text(io.serialize_instance(inst(4, cycle_edges(4), parity=even_parity(4))))
    outputs = []
    for run, seed in ((1, "0"), (2, "4242")):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        gen = tmp_path / f"gen{run}.json"
        heads = tmp_path / f"heads{run}.txt"
        for argv in (
            [*cmd, "generate", "ec", str(formula), "-o", str(gen)],
            [*cmd, "solve", str(c4), "-o", str(heads)],
        ):
            subprocess.run(argv, check=True, env=env, capture_output=True)
        outputs.append(gen.read_bytes() + heads.read_bytes())
    assert outputs[0] == outputs[1]
