"""Right-count-conserving switching gadgets with k inputs and k outputs.

An edge is right when it points in at an input or out at an output. The
reduction of disjoint exact conflicts needs exactly two properties:

* P1: every valid orientation has as many right outputs as right inputs;
* P2: when some but not all inputs are right, some valid orientation
  makes the first output b_1 right and the second output b_2 not.

The cell has two even vertices u and w joined by a parallel edge pair,
with an exact pair on that edge pair at each end. Its two inputs land on
u and form a third exact pair there; its two outputs leave w and form a
fourth. If x inputs are right, u's indegree parity and its two pairs
leave exactly x of the parallel edges pointing into u, so 2 - x point
into w, and w's parity and pairs then leave exactly x outputs right.
With x = 1 either output can be the right one.

A width-k network is a chain of k - 1 cells. Cell 0 takes inputs a_1 and
a_2; cell j >= 1 takes cell j-1's forward output and input a_{j+2}. The
last cell is the root, whose outputs are b_1 and b_2. Every other cell j
exports b_{j+3} beside its forward edge.

P1 holds because each cell conserves the right count, so the chain does.
P2 follows by induction along the chain: cell j's forward edge can be
left not right unless a_1 .. a_{j+2} are all right, and can be made right
unless none of them is. With 0 < r < k inputs right the root can thus be
given exactly one right input, and then b_1 can be right and b_2 not.
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
    calls ``finish_network_inputs`` to place each cell's input pair.
    """

    k: int
    cells: list[tuple[int, int]] = field(default_factory=list)  # (u, w); last is the root
    forward: list[int] = field(default_factory=list)  # cell j's w -> cell j+1's u
    input_slots: list[int] = field(default_factory=list)  # u-vertex of each a_i
    outputs: list[int] = field(default_factory=list)  # b_1..b_k; b_1, b_2 at the root
    new_vertices: list[int] = field(default_factory=list)
    new_edges: list[int] = field(default_factory=list)


def emit_network(b: InstanceBuilder, k: int, output_ends: Sequence[int]) -> NetEmission:
    """Emit the cells, forward edges and output edges of a width-k network.

    ``output_ends`` lists the outer endpoint of b_1 .. b_k in that order,
    each a vertex the caller has already added.
    """
    if k < 2:
        raise InvalidInstanceError(f"switching network needs width >= 2, got {k}")
    em = NetEmission(k)

    def new_vertex() -> int:
        v = b.add_vertex(0)
        em.new_vertices.append(v)
        return v

    def new_edge(u: int, v: int) -> int:
        e = b.add_edge(u, v)
        em.new_edges.append(e)
        return e

    def export(w: int) -> int:
        e = new_edge(w, output_ends[len(em.outputs)])
        em.outputs.append(e)
        return e

    for _ in range(k - 1):
        u = new_vertex()
        w = new_vertex()
        c1 = new_edge(u, w)
        c2 = new_edge(u, w)
        b.add_conflict(u, (c1, c2), ConflictKind.EXACT)
        b.add_conflict(w, (c1, c2), ConflictKind.EXACT)
        if em.cells:
            em.forward.append(new_edge(em.cells[-1][1], u))
        em.cells.append((u, w))
    root_w = em.cells[-1][1]
    b.add_conflict(root_w, (export(root_w), export(root_w)), ConflictKind.EXACT)
    for (_, w), f in zip(em.cells, em.forward):
        b.add_conflict(w, (f, export(w)), ConflictKind.EXACT)
    em.input_slots = [em.cells[max(s - 1, 0)][0] for s in range(k)]
    return em


def finish_network_inputs(b: InstanceBuilder, em: NetEmission, input_edges: Sequence[int]) -> None:
    """Place each cell's input pair once the k input edges exist."""
    if len(input_edges) != em.k:
        raise RuntimeError(f"width-{em.k} switching network got {len(input_edges)} inputs")
    firsts = [input_edges[0], *em.forward]
    for (u, _), first, second in zip(em.cells, firsts, input_edges[1:]):
        b.add_conflict(u, (first, second), ConflictKind.EXACT)
