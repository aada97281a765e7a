"""Parity orientation with disjoint conflict pairs, solved through matching.

Every polynomial conflict route ends on one maximum matching of the
slot graph below, found by the pair core _match_pairs. solve_pco_2dec
runs it on its contracted input; solve_eo_2dec is solve_pco_2dec with
every target 0; solve_pco_dec and solve_pco_dsc reduce larger disjoint
exact or subset conflicts to conflict pairs, run the core on the
reduced instance and accept when no constrained vertex is left
violated there. Each returns a PcoResult.

The slot graph is built on the instance left after contracting forced
edges. Its edge nodes are the edges of G, two of them linked when they
share an endpoint at which the pair is not a conflict: a matched pair
points into such a shared endpoint and adds indegree two there. Every
vertex v adds a slot node linked to each edge at v; an edge matched to
the slot is v's one unpaired incoming edge, so v ends with odd
indegree exactly when its slot is matched to an edge.
Each violated constraint then costs one exposed node: an odd-target
slot is left exposed, and an even-target slot matched to an edge
leaves exposed the private partner it is otherwise matched to. The u
free slots hang off a path q_0..q_2u, free slot i linked to q_2i and
q_2i+1. Say k free slots stay off the edges. With q_2u left out, those
k and the 2u other path nodes match perfectly when k is even and leave
one node exposed when k is odd, the counts a clique on the free slots
would give, at 4u links and degree three at most.

The matcher gets this graph as adjacency lists built once, straight
from the incidence lists, the barred pairs and the parity map
(build_lprime, then _slot_graph), with no list of links in between.
Each node lists the neighbours that join in a round in increasing id
order, round after round: the order that sorting the links and
splitting them by round would give, so the matching is the same.

The nodes join in three rounds: first the edges and the odd-target and
free slots, then the even-target slots with their partners and every
path node but q_2u, then q_2u. At
the start of a round the nodes still exposed from earlier rounds search
for augmenting paths, then the new nodes are seeded greedily and search
in turn, so every round ends with a maximum matching of the nodes that
have joined, and a covered node stays covered. Edges are listed first
so that they search before any slot. Even-target slots wait for the
second round: edges still exposed then reach them before a partner is
seeded onto its slot, and a slot joining before its partner would
first take an edge only to hand it back later. Every edge node must end
up covered, since it needs a head; matching_to_orientation raises one
left exposed as a bug. q_2u goes last because of parity: without it,
an odd number of free slots off the edges leaves one node exposed;
with it, an even number does. Matching without q_2u first and adding it
after keeps the lower of the two counts. The exposed nodes off the path
are then exactly the violated constraints, at their fewest, and the
path leaves at most one node exposed: q_2u, or the lone q_0 when no
vertex is free, which stays exposed always. Conflicts never fire: a
matched pair points into the first endpoint its edges share at which
they are not a conflict pair, and a slot takes a single edge.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import Callable, Sequence

from .core import (
    Conflict,
    ConflictKind,
    Contraction,
    Instance,
    Multigraph,
    Orientation,
    contract_forced,
    expand_orientation,
    fits,
    normalize,
    require_valid,
    self_check,
    verify,
)
from .errors import InvalidInstanceError, UnsupportedError
from .matching import Matching, Round, RoundGraph, max_matching
from .pco import PcoResult
from .reductions import ReductionMap, eo_dsc_to_eo_2dec, pco_dec_to_eo_2dec, pull_back
from .reductions import pco_to_eo  # noqa: F401; perfbench/spans.py hooks it here by name

__all__ = [
    "matching_to_orientation",
    "solve_eo_2dec",
    "solve_pco_2dec",
    "solve_pco_dec",
    "solve_pco_dsc",
]


def build_lprime(g: Multigraph, conflicts: Sequence[Conflict]) -> RoundGraph:
    """Link edges sharing an endpoint where they are not a conflict pair.

    Nodes are the edge ids of g, joining in one round, each with its
    linked edges in increasing order. The conflicts are taken as
    solve_pco_2dec checks them at entry: disjoint exact pairs, incident
    to their vertex.
    """
    inc = list(map(g.incident, range(g.vertex_count)))
    # Both ends' incidence lists, merged: e itself shows up once at each
    # end, and so does an edge parallel to e.
    adj = [sorted(inc[x] + inc[y]) for x, y in g.edges]
    for e, nb in enumerate(adj):
        nb.remove(e)
        nb.remove(e)
    # A barred pair loses one copy of its link; a parallel pair barred at
    # one end keeps the copy from its other end.
    for c in conflicts:
        a, b = c.edges
        adj[a].remove(b)
        adj[b].remove(a)
    # An edge parallel to e and barred at neither end is still listed twice.
    twins = {ends for ends, k in Counter(g.edges).items() if k > 1}
    for e, ends in enumerate(g.edges):
        if ends in twins:
            adj[e] = sorted(set(adj[e]))
    return RoundGraph(g.edge_count, (Round(range(g.edge_count), list(enumerate(adj))),))


def matching_to_orientation(inst: Instance, m: Matching) -> Orientation:
    """Matched pairs into their first unbarred shared end, slot-matched edges into their slot.

    Node e below edge_count is edge e of inst.graph, and node
    edge_count + v is vertex v's slot: an edge matched to it points into
    v. Any later node carries no edge and is skipped. Every edge node must
    be covered, an edge matched to a slot must be matched to one at its
    ends, and a matched pair must be a link: its edges share an endpoint
    at which they are not a conflict pair. This is the one check of the
    matching; a failure is a bug in the route, raised as RuntimeError.

    The odd vertices are the heads of the slot-matched edges, all
    distinct. The result violates no conflict: a matched pair arrives at
    an end where it is not barred, and a slot takes one edge.
    """
    g = inst.graph
    ne = g.edge_count
    if len(m.mate) < ne:
        raise RuntimeError("matching is over a different node set")
    if -1 in m.mate[:ne]:
        raise RuntimeError(f"edge {m.mate.index(-1)} is not covered by the matching")
    barred = {(c.vertex, *sorted(c.edges)) for c in inst.conflicts}
    heads = [-1] * ne
    for a, b in m.pairs():
        if a >= ne:
            continue
        if b >= ne:
            if b - ne >= g.vertex_count or b - ne not in g.edges[a]:
                raise RuntimeError(f"edge {a} is matched to node {b}, not to a slot at its ends")
            heads[a] = b - ne
            continue
        ends = g.edges[b]
        for v in g.edges[a]:
            if v in ends and (v, a, b) not in barred:
                heads[a] = heads[b] = v
                break
        else:
            raise RuntimeError(f"matched pair ({a}, {b}) is not a link")
    return Orientation(tuple(heads))


def solve_eo_2dec(inst: Instance) -> PcoResult:
    """Fewest odd vertices subject to disjoint exact conflict pairs.

    The parity map must be empty or all zeros; this solver evens out
    every vertex it can, as solve_pco_2dec does with every target 0, and
    returns that result: satisfied counts the even vertices, so
    vertex_count - satisfied are left odd. Forced edges are rejected,
    contract them away first. solve_pco_2dec validates the instance, so
    the map it gets keeps every given parity key as it was given, off the
    graph or not an int.
    """
    if any(p != 0 for p in inst.parity.values()):
        raise InvalidInstanceError("even-orientation solver requires an all-even parity map")
    if inst.forced:
        raise InvalidInstanceError("even-orientation solver takes no forced edges")
    parity = dict(inst.parity)
    for v in range(inst.graph.vertex_count):
        parity.setdefault(v, 0)
    res = solve_pco_2dec(replace(inst, parity=parity))
    if res.orientation is None:
        raise RuntimeError("the pair route found no orientation without forced edges")
    return res


def _slot_graph(inst: Instance, lp: RoundGraph) -> RoundGraph:
    """The pair route's matching graph, joining in its three rounds.

    Nodes 0..m-1 are the edges, linked as in lp, and node m+v is vertex
    v's slot, linked to every edge at v. After the slots come the
    even-target slots' private partners, then the path q_0..q_2u of the
    u free slots, free slot i linked to q_2i and q_2i+1. With no free
    slot, q_0 is a lone node.

    The adjacency is built here, per round, in the order a sort of the
    links would give each node. An edge lists its lp links, then its odd
    or free end slots in round 0, and its even end slots in round 1. An
    odd or free slot lists its edges in round 0, and a free slot its two
    path nodes in round 1. An even slot lists its edges, then its
    partner, in round 1. A path node lists its free slot, then its
    neighbours on the path. lp's lists are shared, not copied.

    That every edge node ends covered is checked, not proven:
    matching_to_orientation raises RuntimeError for one left exposed. The path
    nodes join in round 2, whose still-exposed edges search first, before
    any new node is seeded. Every path node is exposed during those
    searches, so it can end an augmenting path through which a free slot
    hands its edge on to its own path node. The parity fuzz in the tests,
    down to density 0.3, and planted instances of 20-60 vertices have
    not hit the error.
    """
    g = inst.graph
    m, n = g.edge_count, g.vertex_count
    inc = list(map(g.incident, range(n)))
    target = [inst.parity.get(v) for v in range(n)]
    odd = [v for v in range(n) if target[v] == 1]
    even = [v for v in range(n) if target[v] == 0]
    free = [v for v in range(n) if target[v] is None]
    # Each vertex's slot, as a neighbour of its edges, in the round it joins.
    early = [() if t == 0 else (m + v,) for v, t in enumerate(target)]
    late = [(m + v,) if t == 0 else () for v, t in enumerate(target)]
    p = m + n  # first partner
    q = p + len(even)  # q_0
    u = len(free)
    path = [[m + free[j // 2]] for j in range(2 * u)]
    for j in range(2 * u - 1):
        path[j].append(q + j + 1)
        path[j + 1].append(q + j)
    first = Round(
        [*range(m), *(m + v for v in odd), *(m + v for v in free)],
        [
            *lp.rounds[0].grow,
            *((e, early[x] + early[y]) for e, (x, y) in enumerate(g.edges)),
            *((m + v, inc[v]) for v in odd),
            *((m + v, inc[v]) for v in free),
        ],
    )
    second = Round(
        [*(m + v for v in even), *range(p, q + 2 * u)],
        [
            *((e, late[x] + late[y]) for e, (x, y) in enumerate(g.edges)),
            *((m + v, inc[v] + (p + k,)) for k, v in enumerate(even)),
            *((p + k, (m + v,)) for k, v in enumerate(even)),
            *((m + v, (q + 2 * i, q + 2 * i + 1)) for i, v in enumerate(free)),
            *zip(range(q, q + 2 * u), path),
        ],
    )
    last = q + 2 * u
    third = Round([last], [(last - 1, (last,)), (last, (last - 1,))] if u else [])
    return RoundGraph(last + 1, (first, second, third))


def _match_pairs(red: Instance) -> Orientation:
    """Orient a pairs-only instance with nothing forced by one slot-graph matching.

    Each stage is looked up in this module at call time, so it can be wrapped here.
    """
    lp = build_lprime(red.graph, red.conflicts)
    return matching_to_orientation(red, max_matching(_slot_graph(red, lp)))


def solve_pco_2dec(inst: Instance) -> PcoResult:
    """Most parity constraints met under disjoint exact conflict pairs.

    Returns PcoResult(False, None, 0) when no conflict-free orientation
    exists at all, which takes forced edges. Otherwise the orientation
    fires no conflict and meets the most constraints it can: satisfied
    counts them, and feasible says whether that is all of them. A forced
    edge that leaves a conflict pair half-decided is unsupported.

    The pair core (_match_pairs) orients the contracted instance, and
    the expanded orientation is verified on the input.
    """
    require_valid(inst)
    if not fits(inst, ConflictKind.EXACT, 2, 2):
        raise InvalidInstanceError("conflicts are not pairwise disjoint exact pairs")
    con = _contract(inst)
    if con is None:
        return PcoResult(False, None, 0)
    o = expand_orientation(con, _match_pairs(con.instance))
    with self_check("the pair route"):
        rep = verify(inst, o)
        if rep.conflict_violations:
            raise RuntimeError("the pair route returned a conflicted orientation")
    return PcoResult(not rep.parity_violations, o, len(inst.parity) - len(rep.parity_violations))


def _contract(inst: Instance) -> Contraction | None:
    """contract_forced; an exact conflict left with one edge, cut or given so, is unsupported."""
    con = contract_forced(inst)
    if con is not None and any(c.size < 2 for c in con.instance.conflicts):
        raise UnsupportedError(
            "forced edges shrink an exact conflict below two edges, or it had one to "
            "begin with; a single-edge exact constraint is unsupported on this route"
        )
    return con


def _decide(
    inst: Instance, shaped: bool, reduce: Callable[[Instance], tuple[Instance, ReductionMap]]
) -> PcoResult:
    """Decision body shared by solve_pco_dec and solve_pco_dsc.

    shaped is core.fits for the route's kind. After normalize and
    _contract, reduce maps the remainder to conflict pairs, which the
    pair core orients. It is feasible when that meets every target of
    the reduced instance; only then is the orientation pulled back,
    expanded and verified, once.
    """
    require_valid(inst)
    if not shaped:
        raise InvalidInstanceError("conflicts are not pairwise disjoint and all of this route's kind")
    n1 = normalize(inst)
    con = None if n1 is None else _contract(n1)
    if con is None:
        return PcoResult(False, None, 0)
    red, rmap = reduce(con.instance)
    ro = _match_pairs(red)
    indeg = ro.indegrees(red.graph)
    if any(indeg[v] % 2 != p for v, p in red.parity.items()):
        return PcoResult(False, None, 0)
    o = expand_orientation(con, pull_back(ro, rmap))
    with self_check("the decision route"):
        if not verify(inst, o).ok:
            raise RuntimeError("the decision route returned an invalid witness")
    return PcoResult(True, o, len(inst.parity))


def solve_pco_dec(inst: Instance) -> PcoResult:
    """Parity decision with pairwise disjoint exact conflicts.

    Either every constraint is met and no conflict fires, or the
    instance is infeasible. A single-edge exact conflict that normalize
    keeps is unsupported; the problem with them is open.
    """
    return _decide(inst, fits(inst, ConflictKind.EXACT), pco_dec_to_eo_2dec)


def solve_pco_dsc(inst: Instance) -> PcoResult:
    """Parity decision with pairwise disjoint subset conflicts.

    The fan gadget carries every target through as it is, so one
    reduction reaches the pair route.
    """
    return _decide(inst, fits(inst, ConflictKind.SUBSET), eo_dsc_to_eo_2dec)
