"""Maximum-cardinality matching in general graphs via blossom contraction.

The conflict-filtered line graphs this feeds on contain odd cycles, so
bipartite tricks do not apply; this is the classical Edmonds approach
with contracted blossoms tracked through a base array. A greedy pass
seeds the matching, then one alternating-tree search per remaining
exposed node either augments or proves the node hopeless. A search
reads and resets only the nodes its tree reaches, so its cost follows
those nodes, not the size of the graph. Each blossom base keeps a list
of the nodes it is the base of. A contraction sorts the nodes on the
lists of the bases it absorbs into id order, relabels them, and appends
them to the new base's list, so it costs O(k log k) for the k nodes
that move, not time in the size of the tree. Id order is also what a
scan of the whole tree gives, so the queue order, and with it every
matching, is the same as with such a scan.

Nodes may join in rounds. Covered nodes stay covered through every
later augmentation, so the rounds decide which nodes a maximum matching
covers when several choices have the same size.

The matcher takes a RoundGraph: per round, the nodes that join and the
neighbours each node gains, appended to its adjacency in the order a
search scans them. Its builder knows the graph's structure and lists
the adjacency directly, with no link list to sort or split.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Sequence


class Round(NamedTuple):
    """Nodes that join together, and the links that join with them.

    ``grow`` holds (node, neighbours) pairs: each pair's neighbours are
    appended, in the order given, to the node's adjacency as the round
    starts, and a node may appear in several pairs. A link joins in the
    round of its later endpoint and is listed at both of its ends.
    """

    nodes: Sequence[int]
    grow: Sequence[tuple[int, Sequence[int]]]


@dataclass(frozen=True)
class RoundGraph:
    """A graph given as the adjacency each of its rounds adds.

    Not validated: its builder puts every node in exactly one round and
    lists each link at both ends, in the round of its later endpoint.
    """

    node_count: int
    rounds: tuple[Round, ...]

    @property
    def links(self) -> tuple[tuple[int, int], ...]:
        """Every link once, as (lower, upper), sorted."""
        return tuple(sorted((v, w) for _, grow in self.rounds for v, ws in grow for w in ws if v < w))


@dataclass(frozen=True)
class Matching:
    """Node-disjoint link set, stored as a mate array (-1 = uncovered)."""

    mate: tuple[int, ...]

    @property
    def size(self) -> int:
        return sum(1 for v, w in enumerate(self.mate) if w > v)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((v, w) for v, w in enumerate(self.mate) if w > v)


class _Matcher:
    def __init__(self, g: RoundGraph) -> None:
        self.n = g.node_count
        self.rounds = g.rounds
        self.adj: list[list[int]] = [[] for _ in range(self.n)]
        self.match = [-1] * self.n
        self.parent = [-1] * self.n
        self.base = list(range(self.n))
        self.in_queue = [False] * self.n
        # Nodes of each contracted blossom, by base, in no set order; a
        # base not listed stands alone.
        self.members: dict[int, list[int]] = {}

    def run(self) -> list[int]:
        joined: list[int] = []
        # Exposed nodes joined so far; a lone one has no other end for an
        # augmenting path, so its search is skipped.
        exposed = 0
        adj = self.adj
        for nodes, grow in self.rounds:
            linked = False
            for v, ws in grow:
                if ws:
                    adj[v] += ws
                    linked = True
            exposed += len(nodes)
            # Nodes of earlier rounds search before the new ones seed, so
            # a new node cannot take what an old one could still reach.
            # Without new links they stay as hopeless as they were.
            for v in sorted(joined) if linked else ():
                if self.match[v] == -1 and exposed > 1 and self._find_path(v):
                    exposed -= 2
            # Greedy seeding in round order; only shortens the augmentation
            # phase, the round still ends with a maximum matching.
            for v in nodes:
                if self.match[v] == -1:
                    for w in self.adj[v]:
                        if self.match[w] == -1:
                            self.match[v] = w
                            self.match[w] = v
                            exposed -= 2
                            break
            for v in nodes:
                if self.match[v] == -1 and exposed > 1 and self._find_path(v):
                    exposed -= 2
            joined.extend(nodes)
        return self.match

    def _lca(self, a: int, b: int) -> int:
        on_path: set[int] = set()
        while True:
            a = self.base[a]
            on_path.add(a)
            if self.match[a] == -1:
                break
            a = self.parent[self.match[a]]
        while True:
            b = self.base[b]
            if b in on_path:
                return b
            b = self.parent[self.match[b]]

    def _mark_path(self, v: int, b: int, child: int, in_blossom: set[int]) -> None:
        while self.base[v] != b:
            in_blossom.add(self.base[v])
            in_blossom.add(self.base[self.match[v]])
            self.parent[v] = child
            child = self.match[v]
            v = self.parent[child]

    def _find_path(self, root: int) -> bool:
        # Only tree nodes get a parent, a queue mark or a new base; they
        # are recorded once each and reset on return.
        touched = [root]
        found = self._search(root, touched)
        for v in touched:
            self.parent[v] = -1
            self.base[v] = v
            self.in_queue[v] = False
        self.members.clear()
        return found

    def _search(self, root: int, touched: list[int]) -> bool:
        self.in_queue[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in self.adj[v]:
                if self.base[v] == self.base[to] or self.match[v] == to:
                    continue
                if to == root or (self.match[to] != -1 and self.parent[self.match[to]] != -1):
                    # Odd cycle: contract the blossom to its stem base.
                    curbase = self._lca(v, to)
                    in_blossom: set[int] = set()
                    self._mark_path(v, curbase, to, in_blossom)
                    self._mark_path(to, curbase, v, in_blossom)
                    self._shrink(curbase, in_blossom, queue)
                elif self.parent[to] == -1:
                    self.parent[to] = v
                    touched.append(to)
                    if self.match[to] == -1:
                        self._augment(to)
                        return True
                    if not self.in_queue[self.match[to]]:
                        self.in_queue[self.match[to]] = True
                        touched.append(self.match[to])
                        queue.append(self.match[to])
        return False

    def _shrink(self, curbase: int, in_blossom: set[int], queue: deque[int]) -> None:
        # The nodes of the absorbed blossoms move to curbase in id order,
        # which fixes the queue order. _mark_path adds no base of
        # curbase's own blossom, so curbase keeps its members.
        members = self.members
        moved = sorted(i for b in in_blossom for i in members.pop(b, (b,)))
        for i in moved:
            self.base[i] = curbase
            if not self.in_queue[i]:
                self.in_queue[i] = True
                queue.append(i)
        members.setdefault(curbase, [curbase]).extend(moved)

    def _augment(self, v: int) -> None:
        while v != -1:
            pv = self.parent[v]
            next_v = self.match[pv]
            self.match[v] = pv
            self.match[pv] = v
            v = next_v


def max_matching(g: RoundGraph) -> Matching:
    """Maximum-cardinality matching; deterministic for equal inputs.

    The nodes join in g's rounds, one round after another; a node and its
    links take part only from its own round on. A round first searches
    once from every still exposed node of earlier rounds, in id order,
    if any link joined, then seeds greedily from its own nodes and
    searches from those still exposed, both in the order given. It ends
    with a maximum matching of the nodes joined so far.
    """
    return Matching(tuple(_Matcher(g).run()))
