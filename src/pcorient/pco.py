"""Parity-constrained orientation without conflicts, decision and max variants.

The algorithm is the spanning-tree sweep: orient every non-tree edge
toward its larger endpoint, then walk the tree children-first, pointing
each parent edge so the child's parity comes out right. All slack lands
on the root, so rooting at an unconstrained vertex makes a feasible
component succeed, and rooting at a designated sacrifice vertex makes an
infeasible component miss exactly one constraint.

A solve is one BFS over the input graph. Every unforced edge starts at
its larger end and every forced edge at its forced head, so nothing is
contracted or expanded; the components are those of the unforced edges.
They are rooted in id order: first from each free vertex not yet
reached, the smallest free vertex of its component; then from each
vertex still not reached, the smallest vertex of a component with every
vertex constrained. Re-pointing edges inside a component keeps its total
indegree, so such a component is feasible exactly when its targets plus
its indegrees sum to an even number; a decision solve stops at the first
that is not. One children-first sweep over the whole BFS order then
fixes every constrained vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .core import EdgeId, Instance, Orientation, VertexId, require_valid
from .core import components, contract_forced  # noqa: F401; perfbench/spans.py hooks them here by name
from .errors import InvalidInstanceError


@dataclass(frozen=True)
class PcoResult:
    """What every public solver returns.

    feasible: every parity constraint is met and no conflict fires.
    orientation: a witness when feasible. feasible=False with an
      orientation means a best orientation from a max route
      (solve_pco_max, solve_pco_2dec, solve_eo_2dec): it fires no
      conflict and misses as few constraints as possible. None when the
      route found no orientation to give.
    satisfied: parity constraints the orientation meets; 0 without one.
    branches: the search tree's leaf count, set only by the branching
      solvers.
    """

    feasible: bool
    orientation: Orientation | None
    satisfied: int
    branches: int | None = None


def solve_pco(inst: Instance) -> PcoResult:
    """Feasibility and a witness, or an infeasible verdict.

    A component is feasible when it has an unconstrained vertex, or when
    its targets plus the indegrees of any one orientation sum to an even
    number; forced edges count toward their heads' indegrees.
    Raises InvalidInstanceError on a malformed instance or any conflict.
    """
    return _solve(inst, maximize=False)


def solve_pco_max(inst: Instance) -> PcoResult:
    """Orientation satisfying the maximum number of parity constraints.

    Per component the maximum is all constraints when feasible, and all
    but one otherwise; the miss is placed on the largest-id constrained
    vertex for reproducibility.
    """
    return _solve(inst, maximize=True)


def _solve(inst: Instance, maximize: bool) -> PcoResult:
    """Orient the input in one BFS and one children-first sweep.

    A component's root is its smallest free vertex; with none, its
    smallest vertex when its targets plus its indegrees sum to an even
    number, else its largest, the max route's sacrifice, and its BFS is
    redone from there. Every unforced edge starts at its larger end (pairs
    are sorted); the sweep re-points only the parent edges of constrained
    vertices. Forced edges stay out of the adjacency and keep their heads.
    """
    require_valid(inst)
    if inst.conflicts:
        raise InvalidInstanceError("base parity solver does not accept conflicts")
    g = inst.graph
    n = g.vertex_count
    edges = g.edges
    parity = inst.parity
    forced = inst.forced
    heads = [b for _, b in edges]
    indeg = [0] * n
    adj: list[list[EdgeId]] = [[] for _ in range(n)]
    for e, (a, b) in enumerate(edges):
        if e in forced:
            b = heads[e] = forced[e]
        else:
            adj[a].append(e)
            adj[b].append(e)
        indeg[b] += 1
    seen = [False] * n
    parent = [-1] * n
    order: list[VertexId] = []
    missed = 0
    # Free roots first, so a root still unreached afterwards is constrained,
    # and so is the rest of its component.
    for r in chain([v for v in range(n) if v not in parity], range(n)):
        if seen[r]:
            continue
        tree = _bfs(r, adj, edges, seen, parent)
        if r in parity and sum([parity[v] + indeg[v] for v in tree]) % 2:
            if not maximize:
                return PcoResult(False, None, 0)
            missed += 1
            for v in tree:
                seen[v] = False
            r = max(tree)
            parent[r] = -1
            tree = _bfs(r, adj, edges, seen, parent)
        order += tree
    for v in reversed(order):
        e = parent[v]
        p = parity.get(v)
        if e < 0 or p is None:
            continue  # a root, or a free vertex whose parent edge keeps its larger end
        a, b = edges[e]
        indeg[b] -= 1
        h = v if indeg[v] % 2 != p else a if b == v else b
        heads[e] = h
        indeg[h] += 1
    return PcoResult(missed == 0, Orientation(tuple(heads)), len(parity) - missed)


def _bfs(
    root: VertexId,
    adj: list[list[EdgeId]],
    edges: tuple[tuple[VertexId, VertexId], ...],
    seen: list[bool],
    parent: list[EdgeId],
) -> list[VertexId]:
    """BFS order of root's component; marks ``seen`` and each tree edge in ``parent``."""
    tree = [root]
    seen[root] = True
    for v in tree:  # the list is the queue
        for e in adj[v]:
            a, b = edges[e]
            w = b if a == v else a
            if not seen[w]:
                seen[w] = True
                parent[w] = e
                tree.append(w)
    return tree
