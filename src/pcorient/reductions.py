"""Polynomial reductions between orientation problem variants.

Three constructions, each returning the reduced instance plus a
ReductionMap that lets orientations of the reduced instance be pulled
back to the original edge set:

* ``pco_to_eo``: partial parity constraints to all-even constraints.
  Odd-constrained vertices get a pendant whose edge is parity-forced
  inward; unconstrained vertices are joined to a shared hub vertex whose
  edges soak up their parity freedom. No solver calls it; it is the
  paper's parity-to-even reduction, kept with the tests that check it.
* ``pco_dec_to_eo_2dec``: disjoint exact conflicts of any size down to
  conflict pairs, routing each conflict of size three or more through a
  switching network, a chain of k - 1 cells (see switching.py).
* ``eo_dsc_to_eo_2dec``: disjoint subset conflicts down to conflict
  pairs via a fan gadget that re-attaches the conflict edges to arm
  vertices and detects the all-inward pattern at a hub.

Both pair reductions check at entry, with ``core.fits``, that their
conflicts are disjoint and of their kind (exact ones of two or more
edges). They keep every original vertex's id and add a gadget vertex
only where a conflict needs one. A vertex that hosts no gadget keeps
its target, odd, even or none, which the pair route takes as it is;
each reduction says how a host's target is carried.
Construction order is fixed (vertices in original order, conflicts in
list order, members by edge id) so a given input always produces the
identical reduced instance.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import ConflictKind, Instance, InstanceBuilder, Orientation, fits
from .errors import InvalidInstanceError
from .switching import emit_network, finish_network_inputs

# Reduced head vertex paired with the original head it stands for.
HeadPair = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class ReductionMap:
    """Correspondence between an instance and its reduced form.

    ``edge_map[e]`` is the reduced id of original edge e, and
    ``head_map[e]`` lists the two reduced endpoints together with the
    original endpoint each one encodes. Gadget vertices and edges are
    listed with a role tag for inspection and debugging.
    """

    edge_map: tuple[int, ...]
    head_map: tuple[HeadPair, ...]
    new_vertices: tuple[tuple[int, str], ...]
    new_edges: tuple[tuple[int, str], ...]

    def __post_init__(self) -> None:
        if len(self.edge_map) != len(self.head_map):
            raise RuntimeError("reduction map has an edge map and head map of different lengths")
        if len(set(self.edge_map)) != len(self.edge_map):
            raise RuntimeError("reduction map sends two original edges to one reduced edge")


def pull_back(reduced: Orientation, rmap: ReductionMap) -> Orientation:
    """Restrict an orientation of the reduced instance to the original edges."""
    heads = []
    for e in range(len(rmap.edge_map)):
        rh = reduced.heads[rmap.edge_map[e]]
        (ra, oa), (rb, ob) = rmap.head_map[e]
        if rh == ra:
            heads.append(oa)
        elif rh == rb:
            heads.append(ob)
        else:
            raise RuntimeError(f"reduced head {rh} of edge {e} is neither endpoint")
    return Orientation(tuple(heads))


def _carry_forced(b: InstanceBuilder, inst: Instance, rmap: ReductionMap) -> None:
    for e, head in sorted(inst.forced.items()):
        (ra, oa), (rb, ob) = rmap.head_map[e]
        b.force(rmap.edge_map[e], ra if head == oa else rb)


def _attach_edges(
    b: InstanceBuilder, inst: Instance, moved: dict[tuple[int, int], int]
) -> tuple[list[int], list[HeadPair]]:
    """Add every original edge in id order, an end (edge, v) at moved's vertex if listed.

    Returns the edge map and head map of the reduction.
    """
    edge_map, head_map = [], []
    for e, (u, v) in enumerate(inst.graph.edges):
        au = moved.get((e, u), u)
        av = moved.get((e, v), v)
        edge_map.append(b.add_edge(au, av))
        head_map.append(((au, u), (av, v)))
    return edge_map, head_map


def _finish_pairs(
    b: InstanceBuilder, inst: Instance, edge_map: list[int], head_map: list[HeadPair],
    new_vertices: list[tuple[int, str]], new_edges: list[tuple[int, str]],
) -> tuple[Instance, ReductionMap]:
    """Build a pair reduction's map and instance, carrying the forced edges over."""
    rmap = ReductionMap(tuple(edge_map), tuple(head_map), tuple(new_vertices), tuple(new_edges))
    _carry_forced(b, inst, rmap)
    out = b.build()
    if any(c.size != 2 for c in out.conflicts):
        raise RuntimeError("reduction left a conflict that is not a pair")
    return out, rmap


def pco_to_eo(inst: Instance, conflict_mode: str = "none") -> tuple[Instance, ReductionMap]:
    """Reduce parity constraints to the all-even special case.

    ``conflict_mode`` declares the conflict kinds present: "none",
    "exact", or "subset". Exact conflicts of odd size grow by the new
    edge at their vertex (the pendant edge at odd-constrained vertices,
    the hub edge at unconstrained ones); parity forces that edge's
    membership in the incoming set whenever the original set was all
    incoming, so equality checks transfer. Subset conflicts and
    even-size exact conflicts pass through untouched. Odd-size exact
    conflicts at even-constrained vertices cannot occur on normalized
    input and are rejected.
    """
    kinds = {c.kind for c in inst.conflicts}
    allowed = {
        "none": set(),
        "exact": {ConflictKind.EXACT},
        "subset": {ConflictKind.SUBSET},
    }
    if conflict_mode not in allowed:
        raise InvalidInstanceError(f"unknown conflict mode {conflict_mode!r}")
    if not kinds <= allowed[conflict_mode]:
        raise InvalidInstanceError(
            f"conflict kinds {sorted(k.value for k in kinds)} do not match mode {conflict_mode!r}"
        )

    g = inst.graph
    n = g.vertex_count
    b = InstanceBuilder()
    for _ in range(n):
        b.add_vertex(0)

    new_vertices: list[tuple[int, str]] = []
    new_edges: list[tuple[int, str]] = []
    edge_map, head_map = _attach_edges(b, inst, {})

    # Pendants for odd-constrained vertices; the pendant is even, so its
    # edge always points at the original vertex, shifting its target
    # parity from odd to even.
    grown: dict[int, int] = {}  # vertex -> new edge joining it
    for v in range(n):
        if inst.parity.get(v) == 1:
            dummy = b.add_vertex(0)
            e = b.add_edge(v, dummy)
            new_vertices.append((dummy, "parity-dummy"))
            new_edges.append((e, "parity-dummy-edge"))
            grown[v] = e

    unconstrained = [v for v in range(n) if v not in inst.parity]
    if unconstrained:
        hub = b.add_vertex(0)
        new_vertices.append((hub, "float-hub"))
        for v in unconstrained:
            e = b.add_edge(v, hub)
            new_edges.append((e, "float-hub-edge"))
            grown[v] = e
        if (len(g.edges) + len(grown)) % 2 == 1:
            pendant = b.add_vertex(0)
            e = b.add_edge(hub, pendant)
            new_vertices.append((pendant, "float-hub-pendant"))
            new_edges.append((e, "float-hub-pendant-edge"))

    for c in inst.conflicts:
        members = tuple(edge_map[e] for e in sorted(c.edges))
        if c.kind is ConflictKind.EXACT and c.size % 2 == 1:
            if c.vertex not in grown:
                raise InvalidInstanceError(
                    f"odd exact conflict at even-constrained vertex {c.vertex}; normalize first"
                )
            members = members + (grown[c.vertex],)
        b.add_conflict(c.vertex, members, c.kind)

    rmap = ReductionMap(
        edge_map=tuple(edge_map),
        head_map=tuple(head_map),
        new_vertices=tuple(new_vertices),
        new_edges=tuple(new_edges),
    )
    _carry_forced(b, inst, rmap)
    return b.build(), rmap


def pco_dec_to_eo_2dec(inst: Instance) -> tuple[Instance, ReductionMap]:
    """Disjoint exact conflicts of any size to disjoint conflict pairs.

    A conflict of size k >= 3 at v routes its members through a width-k
    switching network whose first two outputs land on v as a conflict
    pair. A vertex hosting one or more networks becomes a two-vertex
    path: v turns even and gains an inner vertex, joined by a link
    edge, where the remaining k-2 outputs land. The inner vertex takes
    target 1 - p when v wants p, and none when v is free, so the path
    carries v's target. Every other vertex, pairs included, stays as it
    is. By the network's P1, all k members pointing in sends every
    output in, so a conflict-free reduced orientation pulls back to a
    conflict-free one. By its P2, any other count can keep the second
    output out, so every conflict-free orientation has a conflict-free
    reduced image.
    """
    if not fits(inst, ConflictKind.EXACT, 2):
        raise InvalidInstanceError("conflicts are not disjoint exact conflicts of two or more edges")

    g = inst.graph
    hosts = {c.vertex for c in inst.conflicts if c.size >= 3}
    b = InstanceBuilder()
    for v in range(g.vertex_count):
        b.add_vertex(0 if v in hosts else inst.parity.get(v))
    inner = {}
    for v in sorted(hosts):
        p = inst.parity.get(v)
        inner[v] = b.add_vertex(None if p is None else 1 - p)
    new_vertices = [(w, "path-inner") for w in inner.values()]
    new_edges: list[tuple[int, str]] = []

    # Networks for the big conflicts; their input edges are the original
    # edge images, created afterwards.
    slot_of: dict[tuple[int, int], int] = {}  # (edge, endpoint) -> slot vertex
    emissions = []
    for c in inst.conflicts:
        if c.size < 3:
            continue
        members = sorted(c.edges)
        ends = [c.vertex] * 2 + [inner[c.vertex]] * (c.size - 2)
        mark = b.edge_count
        em = emit_network(b, c.size, ends)
        for slot, e in enumerate(members):
            slot_of[(e, c.vertex)] = em.input_slots[slot]
        b.add_conflict(c.vertex, (em.outputs[0], em.outputs[1]), ConflictKind.EXACT)
        emissions.append((c, em))
        new_vertices.extend((v, "net-internal") for v in em.new_vertices)
        new_edges.extend(
            (e, "net-output" if e in em.outputs else "net-edge") for e in em.new_edges
        )
        if len(em.new_edges) % 2 or mark + len(em.new_edges) != b.edge_count:
            raise RuntimeError("switching network emitted an odd or misplaced edge set")

    edge_map, head_map = _attach_edges(b, inst, slot_of)
    for c, em in emissions:
        finish_network_inputs(b, em, [edge_map[e] for e in sorted(c.edges)])

    for v, w in inner.items():
        new_edges.append((b.add_edge(v, w), "path-link"))

    for c in inst.conflicts:
        if c.size == 2:
            pair = tuple(edge_map[e] for e in sorted(c.edges))
            b.add_conflict(c.vertex, pair, ConflictKind.EXACT)
    return _finish_pairs(b, inst, edge_map, head_map, new_vertices, new_edges)


def eo_dsc_to_eo_2dec(inst: Instance) -> tuple[Instance, ReductionMap]:
    """Disjoint subset conflicts of any size to disjoint conflict pairs.

    Each conflict re-attaches its k members to fresh degree-2 arm
    vertices hanging off a hub; evenness propagates "member oriented
    inward" through each arm, and the hub's anchor edge back to the
    conflict vertex ends up inward exactly when an odd number of members
    are. A pendant keeps the hub even. The all-members-inward pattern,
    and only it, leaves the hub's incoming set equal to the
    anchor/pendant pair, which is the one forbidden pair.

    The anchor points into the conflict vertex exactly when k plus the
    number of inward members is odd, so a constrained vertex's target
    turns over once for each odd-size conflict at it, and a free vertex
    stays free. The gadget vertices are even.
    """
    if not fits(inst, ConflictKind.SUBSET):
        raise InvalidInstanceError("conflicts are not pairwise disjoint subset conflicts")

    g = inst.graph
    odd_at = Counter(c.vertex for c in inst.conflicts if c.size % 2)
    b = InstanceBuilder()
    for v in range(g.vertex_count):
        p = inst.parity.get(v)
        b.add_vertex(None if p is None else (p + odd_at[v]) % 2)

    new_vertices: list[tuple[int, str]] = []
    new_edges: list[tuple[int, str]] = []
    arm_of: dict[tuple[int, int], int] = {}  # (edge, endpoint) -> arm vertex
    gadgets = []
    for c in inst.conflicts:
        members = sorted(c.edges)
        hub = b.add_vertex(0)
        new_vertices.append((hub, "fan-hub"))
        arms = []
        for e in members:
            arm = b.add_vertex(0)
            arms.append(arm)
            arm_of[(e, c.vertex)] = arm
            new_vertices.append((arm, "fan-arm"))
        pendant = b.add_vertex(0)
        new_vertices.append((pendant, "fan-pendant"))
        gadgets.append((c, hub, arms, pendant))

    edge_map, head_map = _attach_edges(b, inst, arm_of)
    for c, hub, arms, pendant in gadgets:
        for arm in arms:
            e = b.add_edge(hub, arm)
            new_edges.append((e, "fan-arm-edge"))
        anchor = b.add_edge(hub, c.vertex)
        new_edges.append((anchor, "fan-anchor-edge"))
        brace = b.add_edge(hub, pendant)
        new_edges.append((brace, "fan-pendant-edge"))
        b.add_conflict(hub, (anchor, brace), ConflictKind.EXACT)
    return _finish_pairs(b, inst, edge_map, head_map, new_vertices, new_edges)
