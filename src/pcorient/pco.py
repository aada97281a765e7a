"""Parity-constrained orientation without conflicts, decision and max variants.

The algorithm is the spanning-tree sweep: orient every non-tree edge
toward its larger endpoint, then walk the tree children-first, pointing
each parent edge so the child's parity comes out right. All slack lands
on the root, so rooting at an unconstrained vertex makes a feasible
component succeed, and rooting at a designated sacrifice vertex makes an
infeasible component miss exactly one constraint.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Component,
    Instance,
    Multigraph,
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
    require_valid(inst)
    if inst.conflicts:
        raise InvalidInstanceError("base parity solver does not accept conflicts")
    con = contract_forced(inst)
    if con is None:
        raise RuntimeError("forced-edge contraction failed on a conflict-free instance")
    red = con.instance
    g = red.graph
    heads: list[int] = [-1] * g.edge_count
    satisfied = 0
    feasible = True
    for comp in components(g):
        comp_heads, comp_sat, comp_ok = _solve_component(g, red.parity, comp, maximize)
        if not comp_ok and not maximize:
            return PcoResult(False, None, 0)
        feasible &= comp_ok
        satisfied += comp_sat
        for e, h in comp_heads.items():
            heads[e] = h
    o = expand_orientation(con, Orientation(tuple(heads)))
    return PcoResult(feasible, o, satisfied)


def _solve_component(
    g: Multigraph,
    parity: dict[int, int],
    comp: Component,
    maximize: bool,
) -> tuple[dict[int, int], int, bool]:
    """Orient one component; returns (heads, satisfied count, all satisfied?)."""
    unconstrained = [v for v in comp.vertices if v not in parity]
    feasible = bool(unconstrained) or (
        sum(parity[v] for v in comp.vertices) % 2 == len(comp.edges) % 2
    )
    if unconstrained:
        root = unconstrained[0]
    elif maximize and not feasible:
        root = comp.vertices[-1]  # sacrifice: largest-id constrained vertex
    else:
        root = comp.vertices[0]

    parent_edge: dict[int, int] = {}
    bfs = [root]
    seen = {root}
    qi = 0
    while qi < len(bfs):
        v = bfs[qi]
        qi += 1
        for e in g.incident(v):
            w = g.other_end(e, v)
            if w not in seen:
                seen.add(w)
                parent_edge[w] = e
                bfs.append(w)

    heads: dict[int, int] = {}
    tree = set(parent_edge.values())
    indeg = {v: 0 for v in comp.vertices}
    for e in comp.edges:
        if e not in tree:
            h = max(g.edges[e])
            heads[e] = h
            indeg[h] += 1
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

    sat = sum(1 for v in comp.vertices if v in parity and indeg[v] % 2 == parity[v])
    return heads, sat, feasible
