"""Switching networks: chain structure plus the two routing properties.

P1: every valid orientation carries exactly as many rights out as in.
P2: under any mixed input pattern some valid orientation routes the
first output right and the second left.
"""

from __future__ import annotations

from itertools import product

import pytest

from pcorient.core import ConflictKind

from networks import build_switching_network, valid_output_patterns


def test_k_below_two_rejected():
    with pytest.raises(Exception):
        build_switching_network(1)


def test_n2_shape():
    net = build_switching_network(2)
    g = net.instance.graph
    assert len(net.copies) == 1
    assert g.edge_count == 6
    assert len(net.instance.conflicts) == 4
    assert all(c.size == 2 for c in net.instance.conflicts)
    u, w = net.copies[0]
    assert net.instance.parity.get(u) == 0 and net.instance.parity.get(w) == 0
    assert net.instance.parity.get(net.input_leaves[0]) is None


def test_chain_structure():
    for k in range(2, 17):
        net = build_switching_network(k)
        g = net.instance.graph
        assert len(net.copies) == k - 1
        assert len(net.forward) == k - 2
        assert net.nonleaf_count == 2 * (k - 1)
        pairs: dict[int, set[frozenset[int]]] = {}
        for c in net.instance.conflicts:
            assert c.kind is ConflictKind.EXACT and c.size == 2
            pairs.setdefault(c.vertex, set()).add(c.edges)
        assert sum(map(len, pairs.values())) == 4 * (k - 1)
        firsts = (net.inputs[0],) + net.forward
        for j, (u, w) in enumerate(net.copies):
            parallel = frozenset(e for e in g.incident(u) if set(g.edges[e]) == {u, w})
            ins = frozenset((firsts[j], net.inputs[j + 1]))
            assert g.degree(u) == 4 and len(parallel) == 2
            assert pairs[u] == {parallel, ins}, f"k={k} cell {j}"
            if j == k - 2:
                outs = frozenset(net.outputs[:2])
            else:
                outs = frozenset((net.forward[j], net.outputs[j + 2]))
            assert g.degree(w) == 4
            assert pairs[w] == {parallel, outs}, f"k={k} cell {j}"


def test_n8_is_seven_cells():
    assert len(build_switching_network(8).copies) == 7


def test_nonleaf_budget_small_range():
    for k in range(2, 17):
        net = build_switching_network(k)
        assert net.nonleaf_count <= 6 * k


def test_p1_and_p2_exhaustive_up_to_four():
    for k in (2, 3, 4):
        net = build_switching_network(k)
        for rights in product((False, True), repeat=k):
            pats = valid_output_patterns(net, rights)
            assert pats, f"k={k}: no valid orientation for {rights}"
            want = sum(rights)
            assert all(sum(p) == want for p in pats), f"k={k} rights={rights}"
            if 0 < want < k:
                assert any(p[0] and not p[1] for p in pats), f"k={k} rights={rights}"


def test_n4_mixed_pattern_example():
    net = build_switching_network(4)
    pats = valid_output_patterns(net, (True, False, False, False))
    assert any(p[0] and not p[1] for p in pats)


def test_build_is_deterministic():
    assert build_switching_network(5) == build_switching_network(5)
