"""Blossom matching against the exhaustive enumerator."""

from __future__ import annotations

from itertools import combinations
from random import Random

import pytest

from pcorient.matching import _Matcher, max_matching

from util import ScanMatcher, brute_matching_size, cycle_edges, random_links, round_graph


def test_path_three_nodes():
    assert max_matching(round_graph(3, ((0, 1), (1, 2)))).size == 1


def test_four_cycle_is_perfect():
    m = max_matching(round_graph(4, cycle_edges(4)))
    assert m.size == 2
    assert m.uncovered() == ()


def test_five_cycle_leaves_one_exposed():
    m = max_matching(round_graph(5, cycle_edges(5)))
    assert m.size == 2
    assert len(m.uncovered()) == 1


def test_blossom_with_stem():
    # Triangle blossom hanging off a path; the greedy-seeded search must
    # shrink the odd cycle to reach the far exposed node.
    links = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 2))
    assert max_matching(round_graph(5, links)).size == 2
    links = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3))
    assert max_matching(round_graph(6, links)).size == 3


def test_two_triangles_bridged():
    links = ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3))
    m = max_matching(round_graph(6, links))
    assert m.size == 3


def test_petersen_graph_has_perfect_matching():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    g = round_graph(10, outer + inner + spokes)
    assert max_matching(g).size == 5


def test_matching_is_node_disjoint_and_symmetric():
    rng = Random(1434)
    for _ in range(60):
        n = rng.randint(2, 9)
        g = round_graph(n, random_links(rng, n, 0.4))
        m = max_matching(g)
        for v, w in enumerate(m.mate):
            if w != -1:
                assert m.mate[w] == v
                assert (min(v, w), max(v, w)) in g.links


def test_exhaustive_small_graphs_match_brute_force():
    # Every graph on up to 5 labeled nodes, by edge-subset enumeration.
    for n in range(1, 6):
        all_links = list(combinations(range(n), 2))
        for mask in range(1 << len(all_links)):
            links = tuple(l for i, l in enumerate(all_links) if mask >> i & 1)
            got = max_matching(round_graph(n, links)).size
            assert got == brute_matching_size(n, list(links))


def test_random_ten_node_graphs_match_brute_force():
    rng = Random(77)
    for _ in range(40):
        links = random_links(rng, 10, rng.choice((0.2, 0.35, 0.5)))
        got = max_matching(round_graph(10, links)).size
        assert got == brute_matching_size(10, links)


def test_deterministic_output():
    rng = Random(5)
    links = tuple(random_links(rng, 8, 0.5))
    assert max_matching(round_graph(8, links)).mate == max_matching(round_graph(8, links)).mate


def test_rounds_decide_which_nodes_stay_exposed():
    path = ((0, 1), (1, 2))
    assert max_matching(round_graph(3, path)).uncovered() == (2,)
    assert max_matching(round_graph(3, path, [range(3)])) == max_matching(round_graph(3, path))
    assert max_matching(round_graph(3, path, [(1, 2), (0,)])).uncovered() == (0,)


def test_every_round_ends_maximum_over_the_nodes_joined():
    rng = Random(78)
    for _ in range(60):
        links = random_links(rng, 10, rng.choice((0.2, 0.35, 0.5)))
        nodes = list(range(10))
        rng.shuffle(nodes)
        cut = sorted(rng.sample(range(1, 10), 2))
        rounds = [nodes[: cut[0]], nodes[cut[0] : cut[1]], nodes[cut[1] :]]
        m = max_matching(round_graph(10, links, rounds))
        assert m.size == brute_matching_size(10, links)
        first = set(rounds[0])
        inner = [(u, v) for u, v in links if u in first and v in first]
        covered_first = sum(1 for v in first if m.mate[v] != -1)
        assert covered_first >= 2 * brute_matching_size(10, inner)


def test_search_state_is_back_to_its_initial_values_after_a_run(monkeypatch):
    def assert_clean(m: _Matcher) -> None:
        assert m.parent == [-1] * m.n
        assert m.base == list(range(m.n))
        assert m.in_queue == [False] * m.n
        assert m.members == {}

    # Checked after every search too: a stale base can hang the next one.
    find_path = _Matcher._find_path

    def checked(self: _Matcher, root: int) -> bool:
        found = find_path(self, root)
        assert_clean(self)
        return found

    monkeypatch.setattr(_Matcher, "_find_path", checked)
    rng = Random(79)
    for _ in range(300):
        n = rng.randint(2, 30)
        links = random_links(rng, n, rng.choice((0.1, 0.2, 0.4)))
        nodes = list(range(n))
        rng.shuffle(nodes)
        cut = sorted(rng.sample(range(n + 1), 2))
        rounds = [nodes[: cut[0]], nodes[cut[0] : cut[1]], nodes[cut[1] :]]
        m = _Matcher(round_graph(n, links, rounds))
        m.run()
        assert_clean(m)


def random_rounds(rng: Random, n: int) -> list[list[int]]:
    """The nodes shuffled and cut into 1 to 4 rounds, some maybe empty."""
    nodes = list(range(n))
    rng.shuffle(nodes)
    cuts = [0, *sorted(rng.randint(0, n) for _ in range(rng.randint(0, 3))), n]
    return [nodes[a:b] for a, b in zip(cuts, cuts[1:])]


def nested_blossoms(rng: Random) -> tuple[int, list[tuple[int, int]]]:
    """Odd cycles of odd cycles of odd cycles, chained through stems.

    A blossom of depth d is 3 or 5 blossoms of depth d - 1 linked in a
    ring; 2 to 4 depth-3 blossoms are chained through stems of even
    length, and one pendant node hangs off the last.
    """
    links: list[tuple[int, int]] = []
    count = 0

    def blossom(depth: int) -> list[int]:
        nonlocal count
        if depth == 0:
            count += 1
            return [count - 1]
        parts = [blossom(depth - 1) for _ in range(rng.choice((3, 5)))]
        for a, b in zip(parts, parts[1:] + parts[:1]):
            links.append((rng.choice(a), rng.choice(b)))
        return [v for p in parts for v in p]

    prev = blossom(3)
    for _ in range(rng.randint(1, 3)):
        nodes = blossom(3)
        stem = list(range(count, count + 2 * rng.randint(0, 2)))
        count += len(stem)
        chain = [rng.choice(prev), *stem, rng.choice(nodes)]
        links += zip(chain, chain[1:])
        prev = nodes
    links.append((count, rng.choice(prev)))
    return count + 1, links


@pytest.fixture
def absorbed(monkeypatch) -> list[int]:
    """Counts the contractions that absorb an earlier blossom, in a
    one-item list, and checks after each contraction that the new base
    lists exactly the nodes it is the base of; without that check a wrong
    list shows as a hang rather than a failure."""
    count = [0]
    shrink = _Matcher._shrink

    def checked(self: _Matcher, curbase: int, in_blossom: set[int], queue) -> None:
        count[0] += any(b in self.members for b in in_blossom)
        shrink(self, curbase, in_blossom, queue)
        assert sorted(self.members[curbase]) == [i for i in range(self.n) if self.base[i] == curbase]

    monkeypatch.setattr(_Matcher, "_shrink", checked)
    return count


def test_member_lists_relabel_as_the_touched_scan_does(absorbed):
    rng = Random(80)
    for _ in range(400):
        n = rng.randint(1, 120)
        links = random_links(rng, n, rng.choice((0.02, 0.05, 0.1, 0.3)))
        for rounds in ([range(n)], random_rounds(rng, n)):
            g = round_graph(n, links, rounds)
            assert max_matching(g).mate == tuple(ScanMatcher(g).run())


def test_nested_blossoms_relabel_as_the_touched_scan_does(absorbed):
    rng = Random(81)
    for _ in range(60):
        n, links = nested_blossoms(rng)
        for rounds in ([range(n)], random_rounds(rng, n)):
            g = round_graph(n, links, rounds)
            assert max_matching(g).mate == tuple(ScanMatcher(g).run())
    # The family nests: many contractions absorb an earlier blossom.
    assert absorbed[0] > 100
