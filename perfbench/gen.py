"""Seeded planted-answer instance generators, one family per workload.

Every instance starts from a random orientation of a random multigraph.
Parity targets are that orientation's indegree parities and forcings are
its heads, and a conflict is kept only when that orientation avoids it,
so the instance is feasible by construction. Flipping one target in a
component whose vertices are all constrained makes it infeasible, and
the planted orientation then still meets every target but that one, so
the optimum is "all constraints" or "all constraints but one".
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from pcorient.core import Conflict, ConflictKind, Instance, Multigraph

EXACT = ConflictKind.EXACT
SUBSET = ConflictKind.SUBSET


@dataclass(frozen=True)
class Planted:
    """One generated instance with the answer a correct solve must give.

    ``satisfied`` is the planted optimum when the route reports a
    satisfied count (the pair route under ``--max-parities``), else None.
    """

    name: str
    tier: int
    instance: Instance
    argv: tuple[str, ...]  # solve flags besides the instance path and -o
    route: str
    exit_code: int
    satisfied: int | None


def _regular(rng: Random, n: int, degree: int) -> list[tuple[int, int]]:
    """Configuration model; parallels kept, pairings with self-loops redrawn."""
    stubs = [v for v in range(n) for _ in range(degree)]
    while True:
        rng.shuffle(stubs)
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        if all(u != v for u, v in pairs):
            return pairs


def _component(rng: Random, first: int, k: int, avg_degree: float) -> list[tuple[int, int]]:
    """Connected multigraph on vertices first..first+k-1: a random tree plus extras."""
    edges = [(first + i, first + rng.randrange(i)) for i in range(1, k)]
    for _ in range(max(0, round(avg_degree * k / 2) - (k - 1))):
        u, v = rng.sample(range(first, first + k), 2)
        edges.append((u, v))
    return edges


def _relabel(rng: Random, n: int, edges: list[tuple[int, int]]) -> tuple[list[int], list[tuple[int, int]]]:
    """Shuffle vertex ids and edge order so no layout is special."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(out)
    return perm, out


def _indegree_parity(n: int, heads: list[int]) -> list[int]:
    deg = [0] * n
    for h in heads:
        deg[h] += 1
    return [d % 2 for d in deg]


def _incoming(g: Multigraph, heads: list[int], v: int) -> frozenset[int]:
    return frozenset(e for e in g.incident(v) if heads[e] == v)


def base_forest(rng: Random, name: str, tier: int, m: int, infeasible: bool) -> Planted:
    """Conflict-free forest of components of 2-40 vertices, average degree 3.

    70% of vertices are constrained and 15% of edges forced. An
    infeasible instance has one fully constrained component with one
    target flipped.
    """
    sizes: list[int] = []
    while sum(round(1.5 * k) for k in sizes) < m:
        sizes.append(rng.randint(2, 40))
    edges: list[tuple[int, int]] = []
    spans = []
    n = 0
    for k in sizes:
        edges += _component(rng, n, k, 3.0)
        spans.append(range(n, n + k))
        n += k
    perm, edges = _relabel(rng, n, edges)
    g = Multigraph(n, tuple(edges))
    heads = [rng.choice(uv) for uv in g.edges]
    target = _indegree_parity(n, heads)
    parity = {v: target[v] for v in range(n) if rng.random() < 0.7}
    forced = {e: heads[e] for e in range(g.edge_count) if rng.random() < 0.15}
    if infeasible:
        comp = [perm[v] for v in rng.choice(spans)]
        parity.update({v: target[v] for v in comp})
        flip = rng.choice(comp)
        parity[flip] ^= 1
    inst = Instance(g, parity, (), forced)
    return Planted(name, tier, inst, (), "pco", int(infeasible), None)


def _pairs(rng: Random, g: Multigraph, heads: list[int]) -> list[Conflict]:
    """Disjoint exact pairs the planted orientation avoids.

    Each vertex's edges are split into pairs at random, and each pair is
    kept with probability one half.
    """
    out = []
    for v in range(g.vertex_count):
        inc = list(g.incident(v))
        rng.shuffle(inc)
        incoming = _incoming(g, heads, v)
        for i in range(0, len(inc) - 1, 2):
            pair = frozenset(inc[i:i + 2])
            if pair != incoming and rng.random() < 0.5:
                out.append(Conflict(v, pair, EXACT))
    return out


def _big_exact(rng: Random, g: Multigraph, heads: list[int], parity: list[int]) -> list[Conflict]:
    """Exact conflicts of size 3 or 4 at half the vertices, size parity matching the target.

    A size whose parity disagrees with the target could only fire with a
    parity violation, so normalization would drop it as vacuous.
    """
    out = []
    for v in range(g.vertex_count):
        size = 3 if parity[v] else 4
        inc = list(g.incident(v))
        if len(inc) < size or rng.random() >= 0.5:
            continue
        members = frozenset(rng.sample(inc, size))
        if members != _incoming(g, heads, v):
            out.append(Conflict(v, members, EXACT))
    return out


def _subsets(rng: Random, g: Multigraph, heads: list[int]) -> list[Conflict]:
    """Subset conflicts of size 2-4 at half the vertices, each holding an edge planted outgoing."""
    out = []
    for v in range(g.vertex_count):
        if rng.random() >= 0.5:
            continue
        members = frozenset(rng.sample(g.incident(v), rng.randint(2, 4)))
        if not members <= _incoming(g, heads, v):
            out.append(Conflict(v, members, SUBSET))
    return out


def disjoint_conflicts(
    rng: Random, name: str, tier: int, m: int, degree: int, kind: str, flipped: bool,
) -> Planted:
    """Regular multigraph, every vertex constrained, disjoint conflicts.

    kind "pairs": exact pairs under --max-parities, where ``flipped`` flips
    one target and the optimum drops to all constraints but one;
    kind "exact": exact conflicts of size 3-4 (pco-dec);
    kind "subset": subset conflicts of size 2-4 (pco-dsc).
    """
    n = 2 * m // degree
    g = Multigraph(n, tuple(_regular(rng, n, degree)))
    heads = [rng.choice(uv) for uv in g.edges]
    target = _indegree_parity(n, heads)
    parity = dict(enumerate(target))
    if kind == "pairs":
        conflicts = _pairs(rng, g, heads)
        if flipped:
            parity[rng.randrange(n)] ^= 1
        inst = Instance(g, parity, tuple(conflicts))
        return Planted(name, tier, inst, ("--max-parities",), "pco-2dec",
                       int(flipped), n - int(flipped))
    if kind == "exact":
        inst = Instance(g, parity, tuple(_big_exact(rng, g, heads, target)))
        return Planted(name, tier, inst, (), "pco-dec", 0, None)
    inst = Instance(g, parity, tuple(_subsets(rng, g, heads)))
    return Planted(name, tier, inst, (), "pco-dsc", 0, None)


def pairs_hub(rng: Random, name: str, tier: int, n: int) -> Planted:
    """4-regular multigraph, half the vertices unconstrained, disjoint exact pairs.

    The free vertices all join the single float hub of the reduction,
    which adds a link for every two of them.
    """
    g = Multigraph(n, tuple(_regular(rng, n, 4)))
    heads = [rng.choice(uv) for uv in g.edges]
    target = _indegree_parity(n, heads)
    free = set(rng.sample(range(n), n // 2))
    parity = {v: target[v] for v in range(n) if v not in free}
    inst = Instance(g, parity, tuple(_pairs(rng, g, heads)))
    return Planted(name, tier, inst, ("--max-parities",), "pco-2dec", 0, len(parity))


HOT_DEGREE = 5


def _chain(rng: Random, inc: list[int], sizes: tuple[int, ...]) -> list[frozenset[int]]:
    """Edge sets drawn from inc, each sharing exactly one edge with the one before."""
    pool = list(inc)
    rng.shuffle(pool)
    out = [frozenset(pool[:sizes[0]])]
    rest = pool[sizes[0]:]
    for size in sizes[1:]:
        shared = rng.choice(sorted(out[-1] - (out[-2] if len(out) > 1 else frozenset())))
        out.append(frozenset([shared, *rest[:size - 1]]))
        rest = rest[size - 1:]
    return out


def overlap_branching(
    rng: Random, name: str, tier: int, n: int, chains: tuple[tuple[int, ...], ...],
    kind: ConflictKind, infeasible: bool,
) -> Planted:
    """Connected multigraph, every vertex constrained, overlapping conflicts on hot vertices.

    Each entry of ``chains`` is one hot vertex of degree HOT_DEGREE and the
    sizes of the conflicts it carries, each overlapping the one before.
    Hot vertices are pairwise non-adjacent, so the branching tree is the
    product of per-vertex trees and its leaf count is fixed by ``chains``;
    an infeasible instance visits every leaf.
    """
    cold = n - len(chains)
    edges = _component(rng, 0, cold, 3.5)
    for v in range(cold, n):
        edges += [(v, w) for w in rng.sample(range(cold), HOT_DEGREE)]
    perm, edges = _relabel(rng, n, edges)
    g = Multigraph(n, tuple(edges))
    while True:
        heads = [rng.choice(uv) for uv in g.edges]
        out: list[Conflict] = []
        for v, sizes in zip((perm[v] for v in range(cold, n)), chains):
            incoming = _incoming(g, heads, v)
            for members in _chain(rng, list(g.incident(v)), sizes):
                if members == incoming if kind is EXACT else members <= incoming:
                    break  # the planted orientation would fire it; redraw
                out.append(Conflict(v, members, kind))
        if len(out) == sum(len(c) for c in chains):
            break
    parity = dict(enumerate(_indegree_parity(n, heads)))
    if infeasible:
        parity[rng.randrange(n)] ^= 1
    route = "pco-ec-fpt" if kind is EXACT else "pco-sc-fpt"
    return Planted(name, tier, Instance(g, parity, tuple(out)), (), route, int(infeasible), None)
