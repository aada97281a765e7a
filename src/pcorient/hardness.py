"""Orientation instances that encode one-in-three satisfiability.

Two generators, one per conflict kind. Both build a gadget per variable
whose two internally consistent orientations act as the truth values, and
a vertex per clause whose parity and conflicts admit exactly one true
literal. The generated conflicts overlap, so these instances exercise the
branching solvers and the oracle, not the polynomial routes.

Every vertex is even-constrained and a pendant balances total edge parity,
so feasibility is decided entirely by the conflict structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import Conflict, ConflictKind, Instance, Multigraph
from .errors import InvalidDocumentError
from .sat import SatInstance, validate_formula

__all__ = ["HardnessArtifact", "reduce_to_pco_2ec", "reduce_to_pco_2sc"]


@dataclass(frozen=True)
class HardnessArtifact:
    """A generated instance plus a role map into its vertices and edges.

    ``labels`` keys are slash-separated role paths ("spine/1/3",
    "clause-leg/0/2"); the leading segment names the role, so vertex and
    edge ids share one map without ambiguity. Clauses and variables added
    only to pad the construction are listed so tests can exclude them.
    """

    instance: Instance
    labels: dict[str, int]
    padded_clauses: tuple[int, ...] = ()
    padded_variables: tuple[int, ...] = ()

    def roles(self, head: str) -> dict[str, int]:
        """Labels whose leading path segment equals ``head``."""
        return {
            k: v
            for k, v in self.labels.items()
            if k == head or k.startswith(head + "/")
        }


class _Build:
    """Accumulates vertices, edges, and their role labels in creation order."""

    def __init__(self) -> None:
        self.labels: dict[str, int] = {}
        self.vertex_count = 0
        self.edges: list[tuple[int, int]] = []

    def vertex(self, role: str) -> int:
        v = self.vertex_count
        self.vertex_count += 1
        self.labels[role] = v
        return v

    def edge(self, role: str, u: int, v: int) -> int:
        e = len(self.edges)
        self.edges.append((u, v))
        self.labels[role] = e
        return e


def _assert_shape(art: HardnessArtifact, backbone: str, clause_degree: int) -> None:
    g = art.instance.graph
    degree_of = {backbone: 4, "clause": clause_degree, "clause-pendant": 1, "parity-pendant": 1}
    for role, x in art.labels.items():
        want = degree_of.get(role.split("/", 1)[0])
        if want is not None and g.degree(x) != want:
            raise RuntimeError(f"{role} has degree {g.degree(x)}, not {want}")
    if g.edge_count % 2:
        raise RuntimeError("hardness encoding has an odd edge count")
    if any(c.size != 2 for c in art.instance.conflicts):
        raise RuntimeError("hardness encoding has a conflict that is not a pair")


def reduce_to_pco_2ec(f: SatInstance) -> HardnessArtifact:
    """Encode a formula with exact conflict pairs; feasible iff satisfiable.

    Per variable, a caterpillar: a spine of two vertices per clause, legs
    bringing every spine vertex to degree 4, and an exact conflict on every
    pair of edges at a spine vertex. With all-even parity that pins each
    spine vertex to indegree 0 or 4, which alternates along the spine, so
    the gadget has exactly two states. Clause j takes one leg from spine
    slot 2j of each positively occurring variable and slot 2j+1 of each
    negated one; spare legs collect at a hub. Two conflict-paired pendant
    edges at each clause vertex rule out the all-literals-out state, which
    leaves indegree 4: exactly one literal leg pointing away.
    """
    errors = validate_formula(f)
    if errors:
        raise InvalidDocumentError("; ".join(errors))
    if not f.clauses:
        raise InvalidDocumentError("construction needs at least one clause")
    n, m = f.variable_count, len(f.clauses)
    b = _Build()
    spine = [[b.vertex(f"spine/{i}/{l}") for l in range(2 * m)] for i in range(n)]
    clause_v = [b.vertex(f"clause/{j}") for j in range(m)]
    pend = [
        (b.vertex(f"clause-pendant/{j}/0"), b.vertex(f"clause-pendant/{j}/1"))
        for j in range(m)
    ]
    hub = b.vertex("hub")
    slot: dict[tuple[int, int], int] = {}
    for j, cl in enumerate(f.clauses):
        for var, neg in cl:
            slot[var, 2 * j + 1 if neg else 2 * j] = j
    for i in range(n):
        for l in range(2 * m - 1):
            b.edge(f"spine-edge/{i}/{l}", spine[i][l], spine[i][l + 1])
        for l in range(2 * m):
            legs = 3 if l in (0, 2 * m - 1) else 2
            j = slot.get((i, l))
            if j is not None:
                # The clause leg is always the first leg of its spine vertex.
                b.edge(f"clause-leg/{j}/{i}", spine[i][l], clause_v[j])
                legs -= 1
            for t in range(legs):
                b.edge(f"hub-leg/{i}/{l}/{t}", spine[i][l], hub)
    for j in range(m):
        b.edge(f"clause-pendant-edge/{j}/0", pend[j][0], clause_v[j])
        b.edge(f"clause-pendant-edge/{j}/1", pend[j][1], clause_v[j])
    if len(b.edges) % 2:
        b.edge("parity-pendant-edge", b.vertex("parity-pendant"), hub)
    g = Multigraph(b.vertex_count, tuple(b.edges))
    conflicts: list[Conflict] = []
    for i in range(n):
        for l in range(2 * m):
            v = spine[i][l]
            for a, c in combinations(g.incident(v), 2):
                conflicts.append(Conflict(v, frozenset((a, c)), ConflictKind.EXACT))
    for j in range(m):
        pair = (
            b.labels[f"clause-pendant-edge/{j}/0"],
            b.labels[f"clause-pendant-edge/{j}/1"],
        )
        conflicts.append(Conflict(clause_v[j], frozenset(pair), ConflictKind.EXACT))
    inst = Instance(g, {v: 0 for v in range(g.vertex_count)}, tuple(conflicts))
    art = HardnessArtifact(inst, b.labels)
    _assert_shape(art, "spine", 5)
    return art


def reduce_to_pco_2sc(f: SatInstance) -> HardnessArtifact:
    """Encode a formula with subset conflict pairs; feasible iff satisfiable.

    Per variable, a circuit with one vertex per clause and two literal
    edges per circuit vertex; subset pairs along the circuit force it to
    be oriented cyclically and make the circuit direction push one family
    of literal edges outward. A literal edge lands on its clause vertex
    when the variable occurs there with the matching sign, on the hub
    otherwise. At each clause vertex, subset pairs over the three literal
    edges plus an even constraint and a pendant admit exactly one incoming
    literal.

    Circuits need length 3, so shorter formulas are padded with clauses
    over fresh variables that any assignment of one true literal
    satisfies; ``padded_clauses``/``padded_variables`` record the additions.
    """
    errors = validate_formula(f)
    if errors:
        raise InvalidDocumentError("; ".join(errors))
    clauses = list(f.clauses)
    nvars = f.variable_count
    padded_clauses: list[int] = []
    padded_variables: list[int] = []
    while len(clauses) < 3:
        padded_clauses.append(len(clauses))
        fresh = (nvars, nvars + 1, nvars + 2)
        clauses.append(tuple((v, False) for v in fresh))
        padded_variables.extend(fresh)
        nvars += 3
    n, m = nvars, len(clauses)
    b = _Build()
    ring = [[b.vertex(f"ring/{i}/{l}") for l in range(m)] for i in range(n)]
    clause_v = [b.vertex(f"clause/{j}") for j in range(m)]
    pend = [b.vertex(f"clause-pendant/{j}") for j in range(m)]
    hub = b.vertex("hub")
    occ: dict[tuple[int, int], bool] = {}
    for j, cl in enumerate(clauses):
        for var, neg in cl:
            occ[var, j] = neg
    for i in range(n):
        for l in range(m):
            b.edge(f"ring-edge/{i}/{l}", ring[i][l], ring[i][(l + 1) % m])
        for l in range(m):
            sign = occ.get((i, l))  # None: no occurrence in clause l
            b.edge(
                f"literal-edge/{i}/{l}/pos",
                ring[i][l],
                clause_v[l] if sign is False else hub,
            )
            b.edge(
                f"literal-edge/{i}/{l}/neg",
                ring[i][l],
                clause_v[l] if sign is True else hub,
            )
    for j in range(m):
        b.edge(f"clause-pendant-edge/{j}", pend[j], clause_v[j])
    if len(b.edges) % 2:
        b.edge("parity-pendant-edge", b.vertex("parity-pendant"), hub)
    g = Multigraph(b.vertex_count, tuple(b.edges))
    conflicts: list[Conflict] = []
    for i in range(n):
        for l in range(m):
            nxt = (l + 1) % m
            z = b.labels[f"ring-edge/{i}/{l}"]
            z2 = b.labels[f"ring-edge/{i}/{nxt}"]
            y2 = b.labels[f"literal-edge/{i}/{nxt}/pos"]
            yneg = b.labels[f"literal-edge/{i}/{l}/neg"]
            conflicts.append(Conflict(ring[i][nxt], frozenset((z, z2)), ConflictKind.SUBSET))
            conflicts.append(Conflict(ring[i][nxt], frozenset((z, y2)), ConflictKind.SUBSET))
            conflicts.append(Conflict(ring[i][l], frozenset((z, yneg)), ConflictKind.SUBSET))
    for j in range(m):
        pe = b.labels[f"clause-pendant-edge/{j}"]
        lits = sorted(e for e in g.incident(clause_v[j]) if e != pe)
        if len(lits) != 3:
            raise RuntimeError(f"clause {j} collects {len(lits)} literal edges")
        for a, c in combinations(lits, 2):
            conflicts.append(Conflict(clause_v[j], frozenset((a, c)), ConflictKind.SUBSET))
    inst = Instance(g, {v: 0 for v in range(g.vertex_count)}, tuple(conflicts))
    art = HardnessArtifact(
        inst, b.labels, tuple(padded_clauses), tuple(padded_variables)
    )
    _assert_shape(art, "ring", 4)
    return art
