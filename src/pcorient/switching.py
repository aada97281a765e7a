"""Right-count-conserving switching gadgets with k inputs and k outputs.

The base cell has two internal vertices joined by a parallel edge pair;
its two inputs land on one side, its two outputs leave the other, and
four exact conflict pairs plus even parity everywhere pin the behavior:
the number of inputs oriented inward always equals the number of outputs
oriented outward, and with mixed inputs either output can be the outward
one. Larger gadgets are binary trees of cells; each non-root cell
forwards one output to the next stage and exports the other.

Odd feed widths leave one unused input slot in a stage, plugged by a
two-edge pendant path that forces the slot edge outward. A cell with a
plugged input slot can pass at most one rightward edge, so its export is
plugged too (a single even pendant forcing it inward); that keeps the
export count at k exactly and keeps every reachable right-count
routable. Neither plug carries weight, so conservation is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .core import ConflictKind, InstanceBuilder
from .errors import InvalidInstanceError


@dataclass
class NetEmission:
    """Bookkeeping from emitting one network into a builder.

    Input edges are not created here: their far ends may belong to the
    host graph or to another network, so the caller adds them and then
    calls ``finish_network_inputs`` to place the first-stage conflict
    pairs.
    """

    k: int
    stages: tuple[int, ...]
    copy_u: list[int]
    copy_w: list[int]
    input_slots: list[int]  # u-vertex per real input slot, a_1..a_k order
    slot_copy: list[int]
    copy_input_edges: list[list[int]]
    outputs: list[int]  # edge ids b_1..b_k; b_1, b_2 are the root pair
    output_ends: list[int]  # outer endpoint of each b_i
    nonleaf_vertices: list[int]
    new_vertices: list[int] = field(default_factory=list)
    new_edges: list[int] = field(default_factory=list)


def emit_network(b: InstanceBuilder, k: int, output_ends: list[int] | None) -> NetEmission:
    """Emit internal structure, plugs, and output edges for a width-k network.

    ``output_ends`` gives the outer endpoint for each of the k exported
    edges; None allocates a fresh unconstrained leaf per export instead.
    """
    if k < 2:
        raise InvalidInstanceError(f"switching network needs width >= 2, got {k}")
    stages = []
    width = k
    while width > 1:
        width = (width + 1) // 2
        stages.append(width)
    if not stages:
        stages = [1]
    em = NetEmission(
        k=k,
        stages=tuple(stages),
        copy_u=[],
        copy_w=[],
        input_slots=[],
        slot_copy=[],
        copy_input_edges=[],
        outputs=[],
        output_ends=[],
        nonleaf_vertices=[],
    )

    def new_vertex(parity: int | None) -> int:
        v = b.add_vertex(parity)
        em.new_vertices.append(v)
        return v

    def new_edge(u: int, v: int) -> int:
        e = b.add_edge(u, v)
        em.new_edges.append(e)
        return e

    stage_first = []  # index of each stage's first copy
    for count in stages:
        stage_first.append(len(em.copy_u))
        for _ in range(count):
            u = new_vertex(0)
            w = new_vertex(0)
            c1 = new_edge(u, w)
            c2 = new_edge(u, w)
            b.add_conflict(u, (c1, c2), ConflictKind.EXACT)
            b.add_conflict(w, (c1, c2), ConflictKind.EXACT)
            em.copy_u.append(u)
            em.copy_w.append(w)
            em.copy_input_edges.append([])
            em.nonleaf_vertices.extend((u, w))

    capped_copies: set[int] = set()

    def plug_input_slot(copy: int) -> None:
        # Two-edge pendant path; parity forces the slot edge out of u.
        y = new_vertex(0)
        z = new_vertex(0)
        slot_edge = new_edge(em.copy_u[copy], y)
        new_edge(y, z)
        em.copy_input_edges[copy].append(slot_edge)
        em.nonleaf_vertices.append(y)
        capped_copies.add(copy)

    # Real input slots of the first stage, in copy order.
    for s in range(k):
        copy = s // 2
        em.input_slots.append(em.copy_u[copy])
        em.slot_copy.append(copy)
    if 2 * stages[0] > k:
        plug_input_slot(stages[0] - 1)

    # Inter-stage wiring: each copy of stage i feeds one slot of stage i+1.
    forward_edge: dict[int, int] = {}
    for si in range(1, len(stages)):
        feed = list(range(stage_first[si - 1], stage_first[si]))
        for s in range(2 * stages[si]):
            copy = stage_first[si] + s // 2
            if s < len(feed):
                prev = feed[s]
                e = new_edge(em.copy_w[prev], em.copy_u[copy])
                forward_edge[prev] = e
                em.copy_input_edges[copy].append(e)
            else:
                plug_input_slot(copy)
        for copy in range(stage_first[si], stage_first[si] + stages[si]):
            ins = em.copy_input_edges[copy]
            b.add_conflict(em.copy_u[copy], tuple(ins), ConflictKind.EXACT)

    total_copies = len(em.copy_u)
    root = total_copies - 1
    # One surplus export per plugged input slot; the counts always agree.
    if total_copies + 1 - k != len(capped_copies) or root in capped_copies:
        raise RuntimeError("switching network plugs do not match its width")

    def attach_output(copy: int, slot: int) -> int:
        if output_ends is not None:
            end = output_ends[slot]
        else:
            end = new_vertex(None)
        e = new_edge(em.copy_w[copy], end)
        em.outputs.append(e)
        em.output_ends.append(end)
        return e

    root_out1 = attach_output(root, 0)
    root_out2 = attach_output(root, 1)
    b.add_conflict(em.copy_w[root], (root_out1, root_out2), ConflictKind.EXACT)
    next_slot = 2
    for copy in range(total_copies - 1):
        if copy in capped_copies:
            z = new_vertex(0)
            export = new_edge(em.copy_w[copy], z)
        else:
            export = attach_output(copy, next_slot)
            next_slot += 1
        b.add_conflict(em.copy_w[copy], (forward_edge[copy], export), ConflictKind.EXACT)
    if len(em.outputs) != k:
        raise RuntimeError(f"switching network exports {len(em.outputs)} edges, not {k}")
    return em


def finish_network_inputs(b: InstanceBuilder, em: NetEmission, input_edges: Sequence[int]) -> None:
    """Register the k input edges and place the first-stage conflict pairs."""
    if len(input_edges) != em.k:
        raise RuntimeError(f"width-{em.k} switching network got {len(input_edges)} inputs")
    for slot, e in enumerate(input_edges):
        em.copy_input_edges[em.slot_copy[slot]].append(e)
    for copy in range(em.stages[0]):
        ins = em.copy_input_edges[copy]
        if len(ins) != 2:
            raise RuntimeError(f"first-stage cell {copy} has {len(ins)} inputs, not 2")
        b.add_conflict(em.copy_u[copy], tuple(ins), ConflictKind.EXACT)
