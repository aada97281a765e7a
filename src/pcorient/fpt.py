"""Branching solvers for overlapping conflicts, exponential in conflict count only.

The polynomial routes require pairwise-disjoint conflicts. When conflict
sets overlap, branch instead on how each conflict is avoided: orienting a
member edge away from the vertex always works, and for an exact conflict
the alternative is taking every member in plus one extra incident edge,
which overshoots the forbidden set. Each alternative is a small forcing
map merged into the forcings chosen so far; a merge that contradicts them
prunes the branch. A leaf solution is conflict-free by construction, so a
leaf is decided by parity alone, from a table built once per solve:
components of the edges no branch can force, each with its parity sum
and edge count, joined at a leaf by the branch edges left free. Only the
first leaf the table passes goes to the base parity solver, for its
witness.
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
    require_valid,
    verify,
)
from .errors import InvalidInstanceError
from .pco import PcoResult, solve_pco

__all__ = ["solve_pco_ec_fpt", "solve_pco_sc_fpt"]


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


def _discharged(g: Multigraph, c: Conflict, forced: dict[EdgeId, VertexId]) -> bool:
    """True when the accumulated forcings already rule the conflict out.

    A member pinned away can never be incoming; for an exact conflict, an
    outside incident edge pinned in keeps the incoming set from matching.
    Either way every completion avoids the conflict, so it needs no branch.
    """
    if any(e in forced and forced[e] != c.vertex for e in c.edges):
        return True
    return c.kind is ConflictKind.EXACT and any(
        forced.get(f) == c.vertex for f in g.incident(c.vertex) if f not in c.edges
    )


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
    """``solve_pco``'s verdict on a leaf whose forcings extend ``inst.forced``.

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

    def rec(i: int, forced: dict[EdgeId, VertexId]) -> PcoResult | None:
        nonlocal leaves
        if i == len(inst.conflicts):
            leaves += 1
            if not _leaf_feasible(table, forced):
                return None
            res = solve_pco(Instance(g, inst.parity, (), forced))
            if not res.feasible:
                raise RuntimeError("leaf table passed a leaf the base solver rejects")
            return res
        if _discharged(g, inst.conflicts[i], forced):
            return rec(i + 1, forced)
        for delta in _choices(g, inst.conflicts[i]):
            nxt = _merge(forced, delta)
            if nxt is None:
                continue
            res = rec(i + 1, nxt)
            if res is not None:
                return res
        return None

    res = rec(0, dict(inst.forced))
    if leaves > limit:
        raise RuntimeError("branch enumeration exceeded its leaf bound")
    if res is None:
        return PcoResult(False, None, 0, branches=leaves)
    if res.orientation is None or not verify(inst, res.orientation).ok:
        raise RuntimeError("branching returned an invalid witness")
    return PcoResult(True, res.orientation, res.satisfied, branches=leaves)


def solve_pco_sc_fpt(inst: Instance) -> PcoResult:
    """Decide a subset-conflict instance; conflicts may overlap freely.

    One member of each conflict must point away from its vertex, so the
    search tries each member in edge-id order, conflicts in input order,
    and solves the conflict-free remainder per combination. First feasible
    leaf wins; contradictory forcings prune the subtree. ``branches`` on
    the result is the number of leaves reached.
    """
    require_valid(inst)
    for c in inst.conflicts:
        if c.kind is not ConflictKind.SUBSET:
            raise InvalidInstanceError("subset branching solver got an exact conflict")
    return _branch(inst)


def solve_pco_ec_fpt(inst: Instance) -> PcoResult:
    """Decide an exact-conflict instance; conflicts may overlap freely.

    Per conflict, either some member points away, or all members point in
    together with one extra incident edge (no such edge means that branch
    dies). Single-member conflicts, which the polynomial routes refuse,
    need no special case here. Exploration order and the ``branches``
    field are as in ``solve_pco_sc_fpt``.
    """
    require_valid(inst)
    for c in inst.conflicts:
        if c.kind is not ConflictKind.EXACT:
            raise InvalidInstanceError("exact branching solver got a subset conflict")
    return _branch(inst)
