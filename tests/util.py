"""Shared builders, seeded generators, and brute-force baselines for the tests."""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from random import Random

from pcorient import (
    Conflict,
    ConflictKind,
    Instance,
    Multigraph,
    OracleResult,
    Orientation,
    PcoResult,
    solve_pco,
    verify,
)
from pcorient.core import (
    Component,
    components,
    conflict_discharged,
    contract_forced,
    expand_orientation,
    require_valid,
)
from pcorient.fpt import _choices, _merge
from pcorient.matching import Matching, Round, RoundGraph, _Matcher
from pcorient.reductions import ReductionMap


def inst(
    n: int,
    edges: list[tuple[int, int]],
    parity: dict[int, int] | None = None,
    conflicts: tuple[Conflict, ...] = (),
    forced: dict[int, int] | None = None,
) -> Instance:
    return Instance(Multigraph(n, tuple(edges)), parity or {}, conflicts, forced or {})


def exact(v: int, *edges: int) -> Conflict:
    return Conflict(v, frozenset(edges), ConflictKind.EXACT)


def subset(v: int, *edges: int) -> Conflict:
    return Conflict(v, frozenset(edges), ConflictKind.SUBSET)


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def even_parity(n: int) -> dict[int, int]:
    return {v: 0 for v in range(n)}


# --- seeded random families -------------------------------------------------


def rand_graph(rng: Random, nmax: int = 6, mmax: int = 12, nmin: int = 2, mmin: int = 1) -> Multigraph:
    n = rng.randint(nmin, nmax)
    edges = []
    for _ in range(rng.randint(mmin, mmax)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        edges.append((u, v))
    return Multigraph(n, tuple(edges))


def rand_parity(rng: Random, n: int, density: float = 0.7) -> dict[int, int]:
    return {v: rng.randint(0, 1) for v in range(n) if rng.random() < density}


def rand_forced(rng: Random, g: Multigraph, frac: float = 0.15) -> dict[int, int]:
    out = {}
    for e in range(g.edge_count):
        if rng.random() < frac:
            out[e] = g.edges[e][rng.randint(0, 1)]
    return out


def rand_conflicts(
    rng: Random,
    g: Multigraph,
    kind: ConflictKind | None,
    max_count: int = 3,
    max_size: int = 3,
) -> tuple[Conflict, ...]:
    """Up to max_count conflicts of ``kind``, or with ``kind`` None each of
    a kind drawn on its own; overlaps are allowed."""
    out = []
    for _ in range(rng.randint(0, max_count)):
        v = rng.randrange(g.vertex_count)
        inc = g.incident(v)
        if not inc:
            continue
        size = rng.randint(1, min(max_size, len(inc)))
        members = frozenset(rng.sample(inc, size))
        out.append(Conflict(v, members, kind or rng.choice(list(ConflictKind))))
    return tuple(out)


def rand_disjoint_pairs(rng: Random, g: Multigraph, max_count: int = 3) -> tuple[Conflict, ...]:
    """Pairwise disjoint exact conflict pairs, at most two per vertex."""
    out: list[Conflict] = []
    want = rng.randint(0, max_count)
    verts = list(range(g.vertex_count))
    rng.shuffle(verts)
    for v in verts:
        if len(out) >= want:
            break
        avail = list(g.incident(v))
        if len(avail) < 2:
            continue
        pair = rng.sample(avail, 2)
        out.append(Conflict(v, frozenset(pair), ConflictKind.EXACT))
        rest = [e for e in avail if e not in pair]
        if len(rest) >= 2 and len(out) < want and rng.random() < 0.3:
            out.append(Conflict(v, frozenset(rng.sample(rest, 2)), ConflictKind.EXACT))
    return tuple(out)


def rand_disjoint_conflicts(
    rng: Random,
    g: Multigraph,
    kind: ConflictKind | None,
    max_count: int = 3,
    max_size: int = 4,
) -> tuple[Conflict, ...]:
    """Pairwise disjoint conflicts of size 2..max_size, of ``kind`` or, with
    ``kind`` None, each of a kind drawn on its own; a vertex may host several."""
    out: list[Conflict] = []
    want = rng.randint(0, max_count)
    verts = list(range(g.vertex_count))
    rng.shuffle(verts)
    for v in verts:
        avail = list(g.incident(v))
        while len(out) < want and len(avail) >= 2:
            members = rng.sample(avail, rng.randint(2, min(max_size, len(avail))))
            out.append(Conflict(v, frozenset(members), kind or rng.choice(list(ConflictKind))))
            avail = [e for e in avail if e not in members]
            if rng.random() >= 0.3:
                break
    return tuple(out)


def planted_instance(rng: Random, max_size: int, density: float) -> Instance:
    """20-60 vertices whose targets and exact conflicts a random orientation meets.

    Targets come from that orientation's indegree parities, and a drawn
    conflict is kept only when the orientation avoids it, so the optimum
    meets every target.
    """
    g = rand_graph(rng, nmin=20, nmax=60, mmin=40, mmax=150)
    heads = tuple(rng.choice(ends) for ends in g.edges)
    parity = {v: heads.count(v) % 2 for v in range(g.vertex_count) if rng.random() < density}
    drawn = rand_disjoint_conflicts(rng, g, ConflictKind.EXACT, max_count=g.vertex_count, max_size=max_size)
    o = Orientation(heads)
    kept = tuple(c for c in drawn if not verify(Instance(g, {}, (c,)), o).conflict_violations)
    return Instance(g, parity, kept)


def rand_forest(rng: Random, m: int, infeasible: bool) -> Instance:
    """A conflict-free forest of about ``m`` edges, the bench's base shape.

    Components of 2-40 vertices, each a random tree plus extra (maybe
    parallel) edges to an average degree of 3, with shuffled vertex ids
    and edge order. Targets and forced heads come from one random
    orientation; 70% of vertices are constrained and 15% of edges are
    forced. ``infeasible`` constrains every vertex of one component and
    flips one of its targets.
    """
    blocks: list[range] = []
    edges: list[tuple[int, int]] = []
    n = 0
    while len(edges) < m:
        block = range(n, n + rng.randint(2, 40))
        edges += [(v, rng.randrange(block.start, v)) for v in block[1:]]
        for _ in range(max(0, round(1.5 * len(block)) - (len(block) - 1))):
            edges.append(tuple(rng.sample(block, 2)))
        blocks.append(block)
        n = block.stop
    label = rng.sample(range(n), n)
    edges = [(label[u], label[v]) for u, v in edges]
    rng.shuffle(edges)
    g = Multigraph(n, tuple(edges))
    heads = [rng.choice(ends) for ends in g.edges]
    target = [0] * n
    for h in heads:
        target[h] ^= 1
    parity = {v: target[v] for v in range(n) if rng.random() < 0.7}
    forced = {e: heads[e] for e in range(g.edge_count) if rng.random() < 0.15}
    if infeasible:
        comp = [label[v] for v in rng.choice(blocks)]
        parity.update((v, target[v]) for v in comp)
        parity[rng.choice(comp)] ^= 1
    return Instance(g, parity, (), forced)


def random_regular_multigraph(rng: Random, n: int, degree: int) -> Multigraph:
    """Configuration model; parallels kept, pairings with self-loops redrawn."""
    stubs = [v for v in range(n) for _ in range(degree)]
    while True:
        rng.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        if all(u != v for u, v in pairs):
            return Multigraph(n, tuple(pairs))


def random_links(rng: Random, n: int, p: float) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def round_graph(n: int, links, rounds=None) -> RoundGraph:
    """Nodes 0..n-1 and their links in the form the matcher takes.

    The links are sorted and deduplicated, then each joins in the round
    of its later endpoint and is listed at both ends, so every node scans
    its neighbours in increasing id order within a round. ``rounds``
    partitions the nodes; the default is one round of all of them.
    """
    rounds = [range(n)] if rounds is None else rounds
    round_of = [0] * n
    for i, nodes in enumerate(rounds):
        for v in nodes:
            round_of[v] = i
    grow: list[dict[int, list[int]]] = [{} for _ in rounds]
    for u, v in sorted({(u, v) if u < v else (v, u) for u, v in links}):
        joins = grow[max(round_of[u], round_of[v])]
        joins.setdefault(u, []).append(v)
        joins.setdefault(v, []).append(u)
    return RoundGraph(n, tuple(Round(nodes, list(j.items())) for nodes, j in zip(rounds, grow)))


# --- gadget parts -----------------------------------------------------------


@dataclass(frozen=True)
class GadgetParts:
    vertices: tuple[int, ...]  # every vertex the reduction added
    edges: tuple[int, ...]  # every edge no original edge maps to
    inner: dict[int, int]  # network host -> its path-inner vertex
    links: tuple[int, ...]  # new edges joining a host to its inner vertex
    outputs: tuple[int, ...]  # network outputs: new edges with one end at a host or inner vertex
    arms: dict[tuple[int, int], int]  # (member, subset conflict vertex) -> fan arm


def gadget_parts(orig: Instance, red: Instance, rmap: ReductionMap) -> GadgetParts:
    """Locate a reduction's gadget parts from its documented construction order.

    Every reduction keeps the original vertex ids, so the gadget vertices
    are the ids from ``n`` on. ``pco_dec_to_eo_2dec`` adds the inner
    vertices first, so a host's inner vertex is ``n`` plus its rank
    among the sorted hosts (vertices of an exact conflict of three or
    more edges). ``eo_dsc_to_eo_2dec`` re-attaches each member's end at
    its subset conflict's vertex to an arm, which ``head_map`` names.
    """
    n = orig.graph.vertex_count
    rg = red.graph
    new_edges = tuple(sorted(set(range(rg.edge_count)) - set(rmap.edge_map)))
    hosts = sorted({c.vertex for c in orig.conflicts if c.kind is ConflictKind.EXACT and c.size >= 3})
    inner = {v: n + rank for rank, v in enumerate(hosts)}
    path = set(inner) | set(inner.values())
    at_path = [(e, sum(w in path for w in rg.endpoints(e))) for e in new_edges]
    arms = {
        (e, c.vertex): ra
        for c in orig.conflicts
        if c.kind is ConflictKind.SUBSET
        for e in c.edges
        for ra, oa in rmap.head_map[e]
        if oa == c.vertex
    }
    return GadgetParts(
        vertices=tuple(range(n, rg.vertex_count)),
        edges=new_edges,
        inner=inner,
        links=tuple(e for e, k in at_path if k == 2),
        outputs=tuple(e for e, k in at_path if k == 1),
        arms=arms,
    )


# --- brute-force baselines --------------------------------------------------


class ScanMatcher(_Matcher):
    """Reference for ``_Matcher``'s contraction: the same search, but each
    blossom relabels by scanning every node the search has touched for a
    base in the blossom, instead of reading the bases' member lists."""

    def _search(self, root: int, touched: list[int]) -> bool:
        self.touched = touched
        return super()._search(root, touched)

    def _shrink(self, curbase: int, in_blossom: set[int], queue: deque[int]) -> None:
        for i in sorted(i for i in self.touched if self.base[i] in in_blossom):
            self.base[i] = curbase
            if not self.in_queue[i]:
                self.in_queue[i] = True
                queue.append(i)


def uncovered(m: Matching) -> tuple[int, ...]:
    """The nodes a matching leaves exposed, in id order."""
    return tuple(v for v, w in enumerate(m.mate) if w == -1)


def brute_matching_size(node_count: int, links: list[tuple[int, int]]) -> int:
    """Maximum matching size by exhaustive search, memoized on covered nodes."""
    canon = sorted({(u, v) if u < v else (v, u) for u, v in links})
    assert node_count <= 16, "covered-node bitmask assumes a small graph"

    @lru_cache(maxsize=None)
    def best(i: int, used: int) -> int:
        if i == len(canon):
            return 0
        u, v = canon[i]
        r = best(i + 1, used)
        if not used >> u & 1 and not used >> v & 1:
            r = max(r, 1 + best(i + 1, used | 1 << u | 1 << v))
        return r

    try:
        return best(0, 0)
    finally:
        best.cache_clear()


def _scalar_sweep(inst: Instance):
    """Every conflict-free orientation, in binary-counter order over the free
    edges (bit 1 points an edge at its larger endpoint), with its satisfied
    parity count and its odd vertex count; conflicts are tested on explicit
    incoming sets."""
    g = inst.graph
    free = [e for e in range(g.edge_count) if e not in inst.forced]
    heads = [0] * g.edge_count
    for e, h in inst.forced.items():
        heads[e] = h
    for mask in range(1 << len(free)):
        for j, e in enumerate(free):
            lo, hi = g.edges[e]
            heads[e] = hi if (mask >> j) & 1 else lo
        ok = True
        for c in inst.conflicts:
            incoming = {e for e in g.incident(c.vertex) if heads[e] == c.vertex}
            if c.kind is ConflictKind.EXACT:
                ok = incoming != c.edges
            else:
                ok = not (c.edges <= incoming)
            if not ok:
                break
        if not ok:
            continue
        indeg = [0] * g.vertex_count
        for h in heads:
            indeg[h] += 1
        sat = sum(1 for v, p in inst.parity.items() if indeg[v] % 2 == p)
        odd = sum(1 for d in indeg if d % 2)
        yield Orientation(tuple(heads)), sat, odd


def enumerate_scalar(inst: Instance) -> OracleResult:
    """Reference for ``enumerate_best``: the same sweep, one orientation at a
    time, keeping the first orientation that reaches the best parity count
    as witness."""
    best_sat = -1
    min_odd: int | None = None
    witness: Orientation | None = None
    for o, sat, odd in _scalar_sweep(inst):
        if min_odd is None or odd < min_odd:
            min_odd = odd
        if sat > best_sat:
            best_sat = sat
            witness = o
    if witness is None:
        return OracleResult(False, None, None, None)
    return OracleResult(best_sat == len(inst.parity), best_sat, min_odd, witness)


def feasible_scalar(inst: Instance) -> list[Orientation]:
    """Reference for ``iter_feasible``: every conflict-free orientation that
    meets all parities, in binary-counter order."""
    return [o for o, sat, _ in _scalar_sweep(inst) if sat == len(inst.parity)]


def components_rescan(g: Multigraph) -> list[Component]:
    """Reference for ``components``: BFS for the vertices, then one scan of
    every edge per component, keeping those whose lower endpoint it holds."""
    seen = [False] * g.vertex_count
    out: list[Component] = []
    for start in range(g.vertex_count):
        if seen[start]:
            continue
        seen[start] = True
        verts = [start]
        queue = [start]
        while queue:
            v = queue.pop(0)
            for e in g.incident(v):
                w = g.other_end(e, v)
                if not seen[w]:
                    seen[w] = True
                    verts.append(w)
                    queue.append(w)
        vset = set(verts)
        eids = tuple(e for e, (u, _) in enumerate(g.edges) if u in vset)
        out.append(Component(tuple(sorted(verts)), eids))
    return out


def serialize_reference(inst: Instance) -> str:
    """Reference for ``io.serialize_instance``: the document as a dict,
    written by ``json.dumps`` with sorted keys and a two-space indent."""
    doc = {
        "version": 1,
        "vertices": inst.graph.vertex_count,
        "edges": [[u, v] for u, v in inst.graph.edges],
        "parity": {str(v): p for v, p in sorted(inst.parity.items())},
        "conflicts": [
            {"vertex": c.vertex, "edges": sorted(c.edges), "kind": c.kind.value}
            for c in inst.conflicts
        ],
        "forced": {str(e): h for e, h in sorted(inst.forced.items())},
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def pco_reference(inst: Instance, maximize: bool) -> PcoResult:
    """Reference for ``solve_pco`` (and, with ``maximize``, ``solve_pco_max``):
    the same spanning-tree sweep, one component at a time, each deciding
    its verdict, choosing its root and orienting its edges with its own
    BFS over sets and dicts before the next component starts."""
    require_valid(inst)
    con = contract_forced(inst)
    red = con.instance
    g = red.graph
    parity = red.parity
    heads = [-1] * g.edge_count
    satisfied = 0
    feasible = True
    for comp in components(g):
        unconstrained = [v for v in comp.vertices if v not in parity]
        ok = bool(unconstrained) or sum(parity[v] for v in comp.vertices) % 2 == len(comp.edges) % 2
        if not ok and not maximize:
            return PcoResult(False, None, 0)
        if unconstrained:
            root = unconstrained[0]
        elif not ok:
            root = comp.vertices[-1]  # sacrifice: largest-id constrained vertex
        else:
            root = comp.vertices[0]
        parent_edge: dict[int, int] = {}
        bfs = [root]
        seen = {root}
        for v in bfs:
            for e in g.incident(v):
                w = g.other_end(e, v)
                if w not in seen:
                    seen.add(w)
                    parent_edge[w] = e
                    bfs.append(w)
        tree = set(parent_edge.values())
        indeg = {v: 0 for v in comp.vertices}
        for e in comp.edges:
            if e not in tree:
                heads[e] = max(g.edges[e])
                indeg[heads[e]] += 1
        for v in reversed(bfs[1:]):
            e = parent_edge[v]
            p = parity.get(v)
            if p is not None and indeg[v] % 2 != p:
                h = v
            elif p is not None:
                h = g.other_end(e, v)
            else:
                h = max(g.edges[e])
            heads[e] = h
            indeg[h] += 1
        feasible &= ok
        satisfied += sum(1 for v in comp.vertices if v in parity and indeg[v] % 2 == parity[v])
    return PcoResult(feasible, expand_orientation(con, Orientation(tuple(heads))), satisfied)


def branch_reference(inst: Instance, cut: bool = True) -> PcoResult:
    """Reference for the branching solver: the same search, with each
    forcing map it decides rebuilt as a conflict-free instance and decided
    by ``solve_pco``. With ``cut``, every inner node is decided too and
    one that fails is not searched below, as in the solver; without it
    only leaves are decided, so it reaches every leaf the depth-first
    order meets before the first feasible one."""
    g = inst.graph
    leaves = 0

    def rec(i: int, forced: dict[int, int]) -> PcoResult | None:
        nonlocal leaves
        if i == len(inst.conflicts):
            leaves += 1
            res = solve_pco(Instance(g, inst.parity, (), forced))
            return res if res.feasible else None
        if cut and not solve_pco(Instance(g, inst.parity, (), forced)).feasible:
            return None
        if conflict_discharged(g, inst.conflicts[i], forced):
            return rec(i + 1, forced)
        for delta in _choices(g, inst.conflicts[i]):
            nxt = _merge(forced, delta)
            if nxt is not None and (res := rec(i + 1, nxt)) is not None:
                return res
        return None

    res = rec(0, dict(inst.forced))
    if res is None:
        return PcoResult(False, None, 0, branches=leaves)
    return PcoResult(True, res.orientation, res.satisfied, branches=leaves)


def is_connected(n: int, links: list[tuple[int, int]]) -> bool:
    if n == 0:
        return True
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in links:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


# --- deterministic exhaustive families --------------------------------------


def multigraphs_4v(max_total: int = 6, max_mult: int = 2):
    """Every multigraph on 4 vertices with bounded per-pair multiplicity."""
    pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    for mults in product(range(max_mult + 1), repeat=len(pairs)):
        if not 1 <= sum(mults) <= max_total:
            continue
        edges = []
        for (u, v), k in zip(pairs, mults):
            edges.extend([(u, v)] * k)
        yield Multigraph(4, tuple(edges))


def conflict_menu(g: Multigraph, kind: ConflictKind, sizes: tuple[int, ...] = (2, 3, 4)):
    """Deterministic conflict configurations: prefix sets per vertex, plus
    one cross-vertex and one same-vertex disjoint double where degrees allow."""
    combos: list[tuple[Conflict, ...]] = []
    eligible = [v for v in range(g.vertex_count) if g.degree(v) >= 2]
    for v in eligible:
        inc = g.incident(v)
        for size in sizes:
            if size <= len(inc):
                combos.append((Conflict(v, frozenset(inc[:size]), kind),))
    if len(eligible) >= 2:
        u, v = eligible[0], eligible[1]
        combos.append(
            (
                Conflict(u, frozenset(g.incident(u)[:2]), kind),
                Conflict(v, frozenset(g.incident(v)[:2]), kind),
            )
        )
    for v in eligible:
        inc = g.incident(v)
        if len(inc) >= 4:
            combos.append(
                (
                    Conflict(v, frozenset(inc[:2]), kind),
                    Conflict(v, frozenset(inc[2:4]), kind),
                )
            )
            break
    return combos
