"""Parity-constrained orientation without conflicts, decision and max variants.

The algorithm is the spanning-tree sweep: orient every non-tree edge
toward its larger endpoint, then walk the tree children-first, pointing
each parent edge so the child's parity comes out right. All slack lands
on the root, so rooting at an unconstrained vertex makes a feasible
component succeed, and rooting at a designated sacrifice vertex makes an
infeasible component miss exactly one constraint.

A solve makes two linear passes over the contracted graph. The first
decides every component from its free vertices, parity sum and edge
count, and picks its root; a decision solve stops at the first
infeasible one before orienting anything. The second orients every
component at once: one BFS from all the roots into flat per-vertex
lists, then one children-first sweep over the whole BFS order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Instance,
    Orientation,
    components,
    contract_forced,
    expand_orientation,
    require_valid,
)
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
    its constraint parities sum to the edge count mod 2; forced edges are
    contracted away first, flipping the parity at each forced head.
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
    """Contract forced edges, decide every component, then orient them all.

    A component's root is its smallest free vertex; with none, its
    smallest vertex when its parities sum to its edge count mod 2, else
    its largest, the max route's sacrifice. One BFS from all the roots
    keeps each component's own BFS order, so the trees, and the heads,
    are those of a sweep one component at a time. Every edge starts
    pointed at its larger end (pairs are sorted); the children-first
    sweep re-points only the parent edges of constrained vertices.
    """
    require_valid(inst)
    if inst.conflicts:
        raise InvalidInstanceError("base parity solver does not accept conflicts")
    con = contract_forced(inst)
    if con is None:
        raise RuntimeError("forced-edge contraction failed on a conflict-free instance")
    red = con.instance
    g = red.graph
    parity = red.parity
    roots: list[int] = []
    missed = 0
    for verts, eids in components(g):
        root = next((v for v in verts if v not in parity), None)
        if root is None:
            root = verts[0]
            if (sum(parity[v] for v in verts) + len(eids)) % 2:
                if not maximize:
                    return PcoResult(False, None, 0)
                missed += 1
                root = verts[-1]
        roots.append(root)
    edges = g.edges
    incident = g.incident
    seen = [False] * g.vertex_count
    parent = [-1] * g.vertex_count
    for r in roots:
        seen[r] = True
    order = roots  # BFS from every root at once; each component keeps its own order
    for v in order:
        for e in incident(v):
            a, b = edges[e]
            w = b if a == v else a
            if not seen[w]:
                seen[w] = True
                parent[w] = e
                order.append(w)
    heads = [b for _, b in edges]
    indeg = [0] * g.vertex_count
    for b in heads:
        indeg[b] += 1
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
    o = expand_orientation(con, Orientation(tuple(heads)))
    return PcoResult(missed == 0, o, len(parity) - missed)
