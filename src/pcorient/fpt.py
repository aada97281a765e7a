"""Branching solver for overlapping or mixed conflicts, exponential in conflict count only.

The polynomial routes require pairwise-disjoint conflicts, all of one
kind. When conflict sets overlap or the kinds mix, branch instead on how
each conflict is avoided, taking each conflict by its own kind: orienting
a member edge away from the vertex always works, and for an exact
conflict the alternative is taking every member in plus one extra
incident edge, which overshoots the forbidden set. Each alternative is a small forcing
map merged into the forcings chosen so far; a merge that contradicts them
prunes the branch. A leaf solution is conflict-free by construction, so a
leaf is decided by parity alone, from a table built once per solve:
components of the edges no branch can force, each with its parity sum
and edge count, joined by the branch edges left free. The same table
cuts at inner nodes: each new forcing map is checked once, with the
branch edges it leaves unforced taken as free, and forcing more edges
only removes orientations, so a map that fails parity fails at every
leaf below it too. Only the first leaf that passes goes to the base
parity solver, for its witness.
"""

from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple

from .core import (
    Conflict,
    ConflictKind,
    EdgeId,
    Instance,
    Multigraph,
    VertexId,
    components,
    conflict_discharged,
    require_valid,
    verify,
)
from .pco import PcoResult, solve_pco

__all__ = ["solve_pco_fpt"]


def _choices(g: Multigraph, c: Conflict) -> Iterator[dict[EdgeId, VertexId]]:
    """Forcings that each avoid one conflict, in exploration order.

    First one member edge pointed away from the vertex, members in id
    order; then, for an exact conflict, every member in plus one outside
    incident edge, outside edges in incidence order. The extra edge makes
    the incoming set strictly contain the forbidden one.
    """
    for e in sorted(c.edges):
        yield {e: g.other_end(e, c.vertex)}
    if c.kind is ConflictKind.EXACT:
        for f in g.incident(c.vertex):
            if f not in c.edges:
                yield dict.fromkeys((*c.edges, f), c.vertex)


def _merge(forced: dict[EdgeId, VertexId], delta: dict[EdgeId, VertexId]) -> dict[EdgeId, VertexId] | None:
    """Combined forcing map, or None when the delta contradicts it."""
    out = dict(forced)
    for e, h in delta.items():
        if out.get(e, h) != h:
            return None
        out[e] = h
    return out


class _LeafTable(NamedTuple):
    """Parity state of the edges no branch can force, built once per solve.

    Components are those of the edges outside every branch and outside
    ``inst.forced``. One that no branch edge touches is the same at every
    leaf, so it is kept only when infeasible, which then fails every leaf.
    """

    odd: tuple[int, ...]  # per kept component: (parity sum + edge count) mod 2
    free: tuple[bool, ...]  # per kept component: has an unconstrained vertex
    # Branch edges outside ``inst.forced``: (id, lower end, its component, upper end's component).
    edges: tuple[tuple[EdgeId, VertexId, int, int], ...]


def _branch_edges(inst: Instance) -> set[EdgeId]:
    """Every edge some choice of some conflict can force."""
    g = inst.graph
    return {e for c in inst.conflicts for d in _choices(g, c) for e in d}


def _leaf_table(inst: Instance) -> _LeafTable:
    """Only branch edges differ between leaves; every other edge is free or
    in ``inst.forced`` at every leaf, so its effect on parity is fixed once
    here."""
    g = inst.graph
    branch = _branch_edges(inst)
    parity = dict(inst.parity)
    for h in inst.forced.values():
        if h in parity:
            parity[h] ^= 1
    rest = [g.edges[e] for e in range(g.edge_count) if e not in branch and e not in inst.forced]
    comps = components(Multigraph(g.vertex_count, tuple(rest)))
    comp_of = {v: k for k, c in enumerate(comps) for v in c.vertices}
    touched = {comp_of[v] for e in branch for v in g.edges[e]}
    odd: list[int] = []
    free: list[bool] = []
    index: dict[int, int] = {}
    for k, c in enumerate(comps):
        o = (sum(parity.get(v, 0) for v in c.vertices) + len(c.edges)) % 2
        f = any(v not in parity for v in c.vertices)
        if k in touched or (o and not f):
            index[k] = len(odd)
            odd.append(o)
            free.append(f)
    ends = ((e, *g.edges[e]) for e in sorted(branch) if e not in inst.forced)
    edges = tuple((e, lo, index[comp_of[lo]], index[comp_of[hi]]) for e, lo, hi in ends)
    return _LeafTable(tuple(odd), tuple(free), edges)


def _leaf_feasible(table: _LeafTable, forced: Mapping[EdgeId, VertexId]) -> bool:
    """``solve_pco``'s verdict on the conflict-free instance with forcings
    ``forced``, which extend ``inst.forced`` by branch edges only.

    A branch edge left free joins its ends' components and adds one edge;
    a forced one flips its head's parity. A component is feasible when it
    has an unconstrained vertex or an even parity sum plus edge count.
    """
    odd = list(table.odd)
    free = list(table.free)
    up = list(range(len(odd)))
    for e, lo, a, b in table.edges:
        h = forced.get(e)
        if h is not None:
            if h != lo:
                a = b
            while up[a] != a:
                a = up[a]
            odd[a] ^= 1
            continue
        while up[a] != a:
            a = up[a]
        while up[b] != b:
            b = up[b]
        if a == b:
            odd[a] ^= 1
        else:
            up[b] = a
            odd[a] ^= odd[b] ^ 1
            free[a] = free[a] or free[b]
    return all(free[k] or not odd[k] for k in range(len(up)) if up[k] == k)


def _branch(inst: Instance) -> PcoResult:
    g = inst.graph
    limit = 1
    for c in inst.conflicts:
        limit *= g.degree(c.vertex) + c.size
    leaves = 0
    table = _leaf_table(inst)

    def reach_leaf() -> None:
        nonlocal leaves
        leaves += 1
        if leaves > limit:
            raise RuntimeError("branch enumeration exceeded its leaf bound")

    def rec(i: int, forced: dict[EdgeId, VertexId]) -> PcoResult | None:
        """Search below one new forcing map; conflicts from ``i`` on are open."""
        # Forcing more edges only removes orientations, so when the map's
        # free relaxation fails parity, so does every leaf below it.
        if not _leaf_feasible(table, forced):
            if i == len(inst.conflicts):
                reach_leaf()
            return None
        while i < len(inst.conflicts) and conflict_discharged(g, inst.conflicts[i], forced):
            i += 1
        if i == len(inst.conflicts):
            reach_leaf()
            res = solve_pco(Instance(g, inst.parity, (), forced))
            if not res.feasible:
                raise RuntimeError("leaf table passed a leaf the base solver rejects")
            return res
        for delta in _choices(g, inst.conflicts[i]):
            nxt = _merge(forced, delta)
            if nxt is None:
                continue
            res = rec(i + 1, nxt)
            if res is not None:
                return res
        return None

    res = rec(0, dict(inst.forced))
    if res is None:
        return PcoResult(False, None, 0, branches=leaves)
    if res.orientation is None or not verify(inst, res.orientation).ok:
        raise RuntimeError("branching returned an invalid witness")
    return PcoResult(True, res.orientation, res.satisfied, branches=leaves)


def solve_pco_fpt(inst: Instance) -> PcoResult:
    """Decide an instance whose conflicts, of either kind, may overlap freely.

    Per conflict, either some member points away, members tried in
    edge-id order; or, for an exact conflict only, all members point in
    together with one extra incident edge (no such edge means that branch
    dies). Conflicts are taken in input order, each by its own kind, and
    single-member exact conflicts, which the polynomial routes refuse,
    need no special case. First feasible leaf wins. Contradictory
    forcings prune a subtree, and so does a forcing map whose
    conflict-free relaxation already fails parity. ``branches`` on the
    result is the number of leaves reached: a map made by a choice for
    the last conflict counts even when it fails parity, while one that
    fails earlier cuts its leaves unreached.
    """
    require_valid(inst)
    return _branch(inst)
