"""Branching solvers for overlapping conflicts, exponential in conflict count only.

The polynomial routes require pairwise-disjoint conflicts. When conflict
sets overlap, branch instead on how each conflict is avoided: orienting a
member edge away from the vertex always works, and for an exact conflict
the alternative is taking every member in plus one extra incident edge,
which overshoots the forbidden set. Each alternative is a small forcing
map merged into the forcings chosen so far; a merge that contradicts them
prunes the branch. At a leaf the accumulated map goes to the base parity
solver, so a leaf solution is conflict-free by construction.
"""

from __future__ import annotations

from typing import Iterator

from .core import Conflict, ConflictKind, EdgeId, Instance, Multigraph, VertexId, verify
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


def _branch(inst: Instance) -> PcoResult:
    g = inst.graph
    limit = 1
    for c in inst.conflicts:
        limit *= g.degree(c.vertex) + c.size
    leaves = 0

    def rec(i: int, forced: dict[EdgeId, VertexId]) -> PcoResult | None:
        nonlocal leaves
        if i == len(inst.conflicts):
            leaves += 1
            res = solve_pco(Instance(g, inst.parity, (), forced))
            return res if res.feasible else None
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
    for c in inst.conflicts:
        if c.kind is not ConflictKind.EXACT:
            raise InvalidInstanceError("exact branching solver got a subset conflict")
    return _branch(inst)
