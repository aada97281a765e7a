"""Instance model: multigraphs, parity constraints, conflicts, orientations.

Everything here is an immutable value. Edge identity is positional: an edge
is named by its index in ``Multigraph.edges``, and conflict membership uses
those ids, so parallel edges are distinct conflict members.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping, NamedTuple

from .errors import InvalidInstanceError, UnsupportedError

VertexId = int
EdgeId = int


@dataclass(frozen=True)
class Multigraph:
    """Undirected multigraph with 0-based vertex ids and positional edge ids.

    Endpoint pairs are stored sorted, so two graphs built from the same
    edges in either endpoint order compare equal. Self-loops are storable
    but rejected by ``validate_instance``; no solver accepts them.
    """

    vertex_count: int
    edges: tuple[tuple[VertexId, VertexId], ...]

    def __post_init__(self) -> None:
        canon = tuple((u, v) if u <= v else (v, u) for u, v in self.edges)
        object.__setattr__(self, "edges", canon)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def _incidence(self) -> tuple[tuple[EdgeId, ...], ...]:
        inc: list[list[EdgeId]] = [[] for _ in range(self.vertex_count)]
        for e, (u, v) in enumerate(self.edges):
            if 0 <= u < self.vertex_count:
                inc[u].append(e)
            if 0 <= v < self.vertex_count and v != u:
                inc[v].append(e)
        return tuple(tuple(x) for x in inc)

    def incident(self, v: VertexId) -> tuple[EdgeId, ...]:
        """Edge ids incident to ``v``, in increasing id order."""
        return self._incidence[v]

    def degree(self, v: VertexId) -> int:
        return len(self._incidence[v])

    def endpoints(self, e: EdgeId) -> tuple[VertexId, VertexId]:
        return self.edges[e]

    def other_end(self, e: EdgeId, v: VertexId) -> VertexId:
        u, w = self.edges[e]
        if v == u:
            return w
        if v == w:
            return u
        raise ValueError(f"vertex {v} is not an endpoint of edge {e}")


class ConflictKind(enum.Enum):
    EXACT = "exact"
    SUBSET = "subset"


@dataclass(frozen=True)
class Conflict:
    """A forbidden incoming-edge configuration at one vertex.

    Exact kind: violated when the incoming set at ``vertex`` equals
    ``edges``. Subset kind: violated when ``edges`` is contained in the
    incoming set.
    """

    vertex: VertexId
    edges: frozenset[EdgeId]
    kind: ConflictKind

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", frozenset(self.edges))

    @property
    def size(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class Instance:
    """A multigraph with parity constraints, conflicts, and forced edges.

    ``parity`` is a partial map: vertices in its domain are constrained to
    the given indegree parity, all others are free. ``forced`` pins an
    edge's head ahead of solving; solvers and normalization share it.
    """

    graph: Multigraph
    parity: Mapping[VertexId, int] = field(default_factory=dict)
    conflicts: tuple[Conflict, ...] = ()
    forced: Mapping[EdgeId, VertexId] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "parity", dict(self.parity))
        object.__setattr__(self, "conflicts", tuple(self.conflicts))
        object.__setattr__(self, "forced", dict(self.forced))

    def pairwise_disjoint(self) -> bool:
        """True when no two conflicts at the same vertex share an edge."""
        seen: dict[VertexId, set[EdgeId]] = {}
        for c in self.conflicts:
            used = seen.setdefault(c.vertex, set())
            if used & c.edges:
                return False
            used |= c.edges
        return True


@dataclass(frozen=True)
class Orientation:
    """Per-edge head assignment; ``heads[e]`` is the vertex edge e points into."""

    heads: tuple[VertexId, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "heads", tuple(self.heads))

    def indegrees(self, g: Multigraph) -> list[int]:
        deg = [0] * g.vertex_count
        for h in self.heads:
            deg[h] += 1
        return deg

    def incoming(self, g: Multigraph, v: VertexId) -> frozenset[EdgeId]:
        return frozenset(e for e in g.incident(v) if self.heads[e] == v)


@dataclass(frozen=True)
class VerifyReport:
    parity_violations: tuple[VertexId, ...]
    conflict_violations: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.parity_violations and not self.conflict_violations


def validate_instance(inst: Instance) -> list[str]:
    """Collect structural errors; an empty list means the instance is valid."""
    errors: list[str] = []
    g = inst.graph
    if g.vertex_count < 0:
        errors.append(f"negative vertex count {g.vertex_count}")
        return errors
    for e, (u, v) in enumerate(g.edges):
        if not (0 <= u < g.vertex_count and 0 <= v < g.vertex_count):
            errors.append(f"edge {e}={u, v} has an endpoint outside 0..{g.vertex_count - 1}")
        elif u == v:
            errors.append(f"edge {e} is a self-loop at vertex {u}")
    if errors:
        # Incidence lookups below assume well-formed edges.
        return errors
    for v, p in sorted(inst.parity.items()):
        if not 0 <= v < g.vertex_count:
            errors.append(f"parity constraint on unknown vertex {v}")
        if p not in (0, 1):
            errors.append(f"parity of vertex {v} is {p}, expected 0 or 1")
    for i, c in enumerate(inst.conflicts):
        if not 0 <= c.vertex < g.vertex_count:
            errors.append(f"conflict {i} names unknown vertex {c.vertex}")
            continue
        if not c.edges:
            errors.append(f"conflict {i} has an empty edge set")
        for e in sorted(c.edges):
            if not 0 <= e < g.edge_count:
                errors.append(f"conflict {i} names unknown edge {e}")
            elif c.vertex not in g.endpoints(e):
                errors.append(f"conflict {i}: edge {e} not incident to conflict vertex {c.vertex}")
    for e, h in sorted(inst.forced.items()):
        if not 0 <= e < g.edge_count:
            errors.append(f"forced orientation names unknown edge {e}")
        elif h not in g.endpoints(e):
            errors.append(f"forced head {h} is not an endpoint of edge {e}")
    return errors


def verify(inst: Instance, o: Orientation) -> VerifyReport:
    """Check an orientation against every parity and conflict constraint.

    Raises InvalidInstanceError for a structurally malformed orientation;
    constraint failures are reported, not raised.
    """
    g = inst.graph
    if len(o.heads) != g.edge_count:
        raise InvalidInstanceError(
            f"orientation covers {len(o.heads)} edges, instance has {g.edge_count}"
        )
    for e, h in enumerate(o.heads):
        if h not in g.endpoints(e):
            raise InvalidInstanceError(f"head {h} is not an endpoint of edge {e}")
    indeg = o.indegrees(g)
    parity_bad = tuple(v for v, p in sorted(inst.parity.items()) if indeg[v] % 2 != p)
    conflict_bad = []
    for i, c in enumerate(inst.conflicts):
        incoming = o.incoming(g, c.vertex)
        if c.kind is ConflictKind.EXACT:
            if incoming == c.edges:
                conflict_bad.append(i)
        elif c.edges <= incoming:
            conflict_bad.append(i)
    return VerifyReport(parity_bad, tuple(conflict_bad))


def normalize(inst: Instance) -> Instance | None:
    """Drop vacuous exact conflicts and turn singleton subset conflicts into forcings.

    An exact conflict at a parity-constrained vertex whose size disagrees
    with the vertex parity can only trigger alongside a parity violation,
    so it is removed. A subset conflict of size 1 just forbids one head,
    which the forced map expresses directly. Returns None when forcings
    contradict each other, which no orientation can satisfy.
    """
    g = inst.graph
    forced = dict(inst.forced)
    kept: list[Conflict] = []
    for c in inst.conflicts:
        p = inst.parity.get(c.vertex)
        if c.kind is ConflictKind.EXACT and p is not None and c.size % 2 != p:
            continue
        if c.kind is ConflictKind.SUBSET and c.size == 1:
            (e,) = c.edges
            away = g.other_end(e, c.vertex)
            if forced.get(e, away) != away:
                return None
            forced[e] = away
            continue
        kept.append(c)
    return replace(inst, conflicts=tuple(kept), forced=forced)


class Component(NamedTuple):
    vertices: tuple[VertexId, ...]
    edges: tuple[EdgeId, ...]


def components(g: Multigraph) -> list[Component]:
    """Connected components, ordered by smallest member vertex id.

    Exploration is breadth-first with neighbors taken in incident-edge-id
    order, so the result is deterministic for equal graphs. An edge is
    collected at its lower endpoint, and each component's edges are listed
    in increasing id order.
    """
    seen = [False] * g.vertex_count
    out: list[Component] = []
    for start in range(g.vertex_count):
        if seen[start]:
            continue
        seen[start] = True
        verts = [start]
        eids: list[EdgeId] = []
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for e in g.incident(v):
                w, hi = g.edges[e]
                if w == v:
                    eids.append(e)
                    w = hi
                if not seen[w]:
                    seen[w] = True
                    verts.append(w)
                    queue.append(w)
        eids.sort()
        out.append(Component(tuple(sorted(verts)), tuple(eids)))
    return out


class Contraction(NamedTuple):
    """Result of eliminating forced edges from an instance.

    ``instance`` has no forced edges; ``edge_origin[i]`` is the original id
    of the reduced instance's edge i, and ``forced_heads`` records every
    original edge removed, including forcings derived during elimination.
    """

    instance: Instance
    edge_origin: tuple[EdgeId, ...]
    forced_heads: dict[EdgeId, VertexId]


def contract_forced(inst: Instance) -> Contraction | None:
    """Remove forced edges, flipping head parities and rewriting conflicts.

    Conflict rewrites follow from set semantics. At a conflict vertex v:
    an edge forced away from v can never be incoming, so an exact or
    subset conflict containing it is vacuous; an edge forced into v is
    always incoming, so it is deleted from the conflict set; an exact
    conflict is also vacuous once some forced-in edge lies outside it.
    A subset conflict shrunk to nothing is unsatisfiable (None); shrunk
    to one edge it becomes a forcing, which may cascade. Raises
    UnsupportedError for an exact conflict shrunk to nothing with free
    incident edges left, a disjunctive constraint this model cannot state.
    """
    g = inst.graph
    forced = dict(inst.forced)
    # Fixpoint over forcings only. Conflicts are always judged from their
    # original edge sets; judging a shrunk set would misread a consumed
    # forced-in member as an outside edge and vacate the conflict.
    changed = True
    while changed:
        changed = False
        for c in inst.conflicts:
            v = c.vertex
            if any(forced.get(e, v) != v for e in c.edges if e in forced):
                continue
            rem = {e for e in c.edges if forced.get(e) != v}
            if c.kind is ConflictKind.SUBSET:
                if not rem:
                    return None
                if len(rem) == 1:
                    (e,) = rem
                    away = g.other_end(e, v)
                    if forced.get(e, away) != away:
                        return None
                    if e not in forced:
                        forced[e] = away
                        changed = True
            else:
                if any(forced.get(e) == v for e in g.incident(v) if e not in c.edges):
                    continue
                if not rem:
                    if all(e in forced for e in g.incident(v)):
                        return None
                    raise UnsupportedError(
                        f"forced edges reduce an exact conflict at vertex {v} to an "
                        "at-least-one-incoming requirement, which is not expressible"
                    )
    live: list[Conflict] = []
    for c in inst.conflicts:
        v = c.vertex
        if any(forced.get(e, v) != v for e in c.edges if e in forced):
            continue
        if c.kind is ConflictKind.EXACT and any(
            forced.get(e) == v for e in g.incident(v) if e not in c.edges
        ):
            continue
        rem = frozenset(e for e in c.edges if forced.get(e) != v)
        if not rem:
            raise RuntimeError("conflict fixpoint left an empty edge set")
        live.append(c if rem == c.edges else Conflict(v, rem, c.kind))
    parity = dict(inst.parity)
    for e, h in forced.items():
        if h in parity:
            parity[h] ^= 1
    edge_origin = tuple(e for e in range(g.edge_count) if e not in forced)
    renumber = {orig: i for i, orig in enumerate(edge_origin)}
    reduced_graph = Multigraph(g.vertex_count, tuple(g.edges[e] for e in edge_origin))
    reduced_conflicts = tuple(
        Conflict(c.vertex, frozenset(renumber[e] for e in c.edges), c.kind) for c in live
    )
    reduced = Instance(reduced_graph, parity, reduced_conflicts, {})
    return Contraction(reduced, edge_origin, forced)


def expand_orientation(con: Contraction, o: Orientation) -> Orientation:
    """Recombine a reduced-instance orientation with the contracted forcings."""
    total = len(con.edge_origin) + len(con.forced_heads)
    heads = [0] * total
    for i, orig in enumerate(con.edge_origin):
        heads[orig] = o.heads[i]
    for e, h in con.forced_heads.items():
        heads[e] = h
    return Orientation(tuple(heads))


def require_valid(inst: Instance) -> None:
    """Raise InvalidInstanceError unless the instance validates cleanly."""
    errors = validate_instance(inst)
    if errors:
        raise InvalidInstanceError("; ".join(errors))


class InstanceBuilder:
    """Mutable accumulator for assembling instances piece by piece.

    Gadget emitters and generators allocate vertices and edges through
    this; ids are handed out sequentially, so identical call sequences
    produce identical instances.
    """

    def __init__(self) -> None:
        self._parity: list[int | None] = []
        self._edges: list[tuple[VertexId, VertexId]] = []
        self._conflicts: list[Conflict] = []
        self._forced: dict[EdgeId, VertexId] = {}

    @property
    def vertex_count(self) -> int:
        return len(self._parity)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def add_vertex(self, parity: int | None = None) -> VertexId:
        self._parity.append(parity)
        return len(self._parity) - 1

    def add_edge(self, u: VertexId, v: VertexId) -> EdgeId:
        self._edges.append((u, v))
        return len(self._edges) - 1

    def add_conflict(self, vertex: VertexId, edges, kind: ConflictKind) -> int:
        self._conflicts.append(Conflict(vertex, frozenset(edges), kind))
        return len(self._conflicts) - 1

    def force(self, e: EdgeId, head: VertexId) -> None:
        self._forced[e] = head

    def build(self) -> Instance:
        parity = {v: p for v, p in enumerate(self._parity) if p is not None}
        return Instance(
            Multigraph(len(self._parity), tuple(self._edges)),
            parity,
            tuple(self._conflicts),
            dict(self._forced),
        )
