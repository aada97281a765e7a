"""Standalone switching networks and their reachable output patterns.

Test-side harness around ``pcorient.switching.emit_network``: it attaches
a fresh unconstrained leaf to every input and output so a network can be
checked on its own, and enumerates what each input pattern lets through.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from pcorient.core import Instance, InstanceBuilder
from pcorient.oracle import iter_feasible
from pcorient.switching import emit_network, finish_network_inputs


@dataclass(frozen=True)
class SwitchingNetwork:
    """Standalone width-k network with unconstrained attachment leaves."""

    k: int
    instance: Instance
    inputs: tuple[int, ...]  # edge a_i runs input_leaves[i] -> its cell's u
    outputs: tuple[int, ...]  # edge b_i runs its cell's w -> output_leaves[i]
    input_leaves: tuple[int, ...]
    output_leaves: tuple[int, ...]
    copies: tuple[tuple[int, int], ...]  # (u, w) per cell, in chain order
    forward: tuple[int, ...]  # edge from cell j's w to cell j+1's u
    nonleaf_count: int  # vertices of degree two or more


def build_switching_network(k: int) -> SwitchingNetwork:
    """Assemble a standalone network for direct property checking."""
    b = InstanceBuilder()
    input_leaves = [b.add_vertex(None) for _ in range(k)]
    output_leaves = [b.add_vertex(None) for _ in range(k)]
    em = emit_network(b, k, output_leaves)
    input_edges = [b.add_edge(input_leaves[i], em.input_slots[i]) for i in range(k)]
    finish_network_inputs(b, em, input_edges)
    inst = b.build()
    return SwitchingNetwork(
        k=k,
        instance=inst,
        inputs=tuple(input_edges),
        outputs=tuple(em.outputs),
        input_leaves=tuple(input_leaves),
        output_leaves=tuple(output_leaves),
        copies=tuple(em.cells),
        forward=tuple(em.forward),
        nonleaf_count=sum(inst.graph.degree(v) > 1 for v in range(inst.graph.vertex_count)),
    )


def valid_output_patterns(net: SwitchingNetwork, rights: Sequence[bool]) -> set[tuple[bool, ...]]:
    """All output orientations reachable under a fixed input pattern.

    An input is right when oriented into the network, an output when
    oriented out of it. Exhaustive by backtracking over the whole gadget.
    """
    assert len(rights) == net.k
    forced = dict(net.instance.forced)
    for i, right in enumerate(rights):
        leaf = net.input_leaves[i]
        inner = net.instance.graph.other_end(net.inputs[i], leaf)
        forced[net.inputs[i]] = inner if right else leaf
    pinned = replace(net.instance, forced=forced)
    patterns = set()
    for o in iter_feasible(pinned):
        patterns.add(
            tuple(o.heads[b] == net.output_leaves[j] for j, b in enumerate(net.outputs))
        )
    return patterns
