"""Ground-truth brute force: one backtracking search over orientations,
and a 1-in-3-SAT decider.

``enumerate_best`` and ``iter_feasible`` share one depth-first search
over the free edges, each deciding an edge's lower end before its upper
end, in an edge order the entry point picks. A vertex's parity and its
exact conflicts are checked once its last free edge in that order is
decided, a subset conflict once its last free member is. Conflicts are
always hard.

The sweep (``enumerate_best``) decides in binary-counter order, the last
free edge first (bit 1 of the counter points an edge at its larger
endpoint). It scores parity, and cuts a subtree that can neither beat the
best satisfied count (the count so far plus the constrained vertices
still open is no more than the best) nor lower the fewest odd vertices
(the closed vertices already hold that many). A tie never replaces the
witness, so the witness is the first orientation in counter order that
reaches the best count; the tests hold the sweep to a plain
per-orientation loop kept beside them, witness included.

The decision search (``iter_feasible``, ``decide_feasible``) treats
parity as hard and decides in vertex-id blocks (vertex 0's edges, then
vertex 1's remaining ones, and so on), so each vertex is checked as soon
as the search has passed its block.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ConflictKind, Instance, Orientation, require_valid
from .errors import InvalidInstanceError, OracleLimitError
from .sat import SatInstance, validate_formula


@dataclass(frozen=True)
class OracleResult:
    """Aggregates over every conflict-free orientation of an instance.

    All three optional fields are None exactly when no orientation avoids
    every conflict (possible once conflicts overlap or forcings bite).
    The witness is the first conflict-free orientation, in binary-counter
    order, that attains ``best_satisfied_parities``.
    """

    feasible: bool
    best_satisfied_parities: int | None
    min_odd_vertices: int | None
    witness: Orientation | None


def _search(inst: Instance, order: list[int], bound: list[int]):
    """Depth-first over the free edges of a valid instance, deciding them in
    ``order``, the lower end first.

    Yields ``(heads, sat, odd)`` at each conflict-free orientation that no
    cut removes: the live head list (copy it to keep it), the number of
    satisfied parities and the number of odd vertices. ``bound`` is
    ``[best, min_odd]``. It is read at every node, so the caller may raise
    or lower it between leaves: a subtree is cut once its satisfied count
    so far plus its constrained vertices still open is at most ``best``
    and its closed odd vertices number at least ``min_odd``.
    """
    g = inst.graph
    n, m = g.vertex_count, g.edge_count
    steps = [(e, *g.edges[e]) for e in order]
    depth_of = {e: j for j, (e, _, _) in enumerate(steps, 1)}  # node that decides e
    heads = [-1] * m
    indeg = [0] * n
    for e, h in inst.forced.items():
        heads[e] = h
        indeg[h] += 1
    # Checks each node runs; node j has the first j steps decided, node 0
    # only the forced edges.
    closing: list[list] = [[] for _ in range(len(steps) + 1)]
    subsets: list[list] = [[] for _ in range(len(steps) + 1)]
    exact: dict[int, list] = {}
    for c in inst.conflicts:
        if c.kind is ConflictKind.EXACT:
            exact.setdefault(c.vertex, []).append((len(c.edges), tuple(c.edges)))
        else:
            subsets[max(depth_of.get(e, 0) for e in c.edges)].append((c.vertex, tuple(c.edges)))
    for v in range(n):
        last = max((depth_of.get(e, 0) for e in g.incident(v)), default=0)
        closing[last].append((v, inst.parity.get(v, -1), exact.get(v, ())))

    saved: list[tuple[int, int, int]] = []  # (sat, odd, open) at each node above this one
    sat, odd, still_open = 0, 0, len(inst.parity)
    j = 0
    while True:
        ok = True
        for v, p, at_v in closing[j]:
            d = indeg[v]
            odd += d & 1
            if p >= 0:
                still_open -= 1
                sat += (d & 1) == p
            for size, cedges in at_v:
                if d == size and all(heads[e] == v for e in cedges):
                    ok = False
        for v, cedges in subsets[j]:
            if all(heads[e] == v for e in cedges):
                ok = False
        if ok and (sat + still_open > bound[0] or odd < bound[1]):
            if j < len(steps):
                saved.append((sat, odd, still_open))
                e, lo, _ = steps[j]
                heads[e] = lo
                indeg[lo] += 1
                j += 1
                continue
            yield heads, sat, odd
        # Move to the next sibling, backing out of every exhausted step.
        while j:
            e, lo, hi = steps[j - 1]
            indeg[heads[e]] -= 1
            if heads[e] == lo:
                heads[e] = hi
                indeg[hi] += 1
                sat, odd, still_open = saved[-1]
                break
            heads[e] = -1
            saved.pop()
            j -= 1
        else:
            return


def enumerate_best(inst: Instance, max_edges: int = 20) -> OracleResult:
    """Best parity count and fewest odd vertices over all conflict-free
    orientations respecting forced edges, with a witness.

    The witness is the first orientation, in binary-counter order over the
    free edges, that reaches the best count, so it is reproducible.
    Refuses instances with more than ``max_edges`` edges. Raises
    InvalidInstanceError on a malformed instance.
    """
    require_valid(inst)
    g = inst.graph
    if g.edge_count > max_edges:
        raise OracleLimitError(f"instance has {g.edge_count} edges, oracle budget is {max_edges}")
    counter = [e for e in range(g.edge_count - 1, -1, -1) if e not in inst.forced]
    bound = [-1, g.vertex_count + 1]
    witness: Orientation | None = None
    for heads, sat, odd in _search(inst, counter, bound):
        if sat > bound[0]:
            bound[0] = sat
            witness = Orientation(tuple(heads))
        bound[1] = min(bound[1], odd)
    if witness is None:
        return OracleResult(False, None, None, None)
    return OracleResult(bound[0] == len(inst.parity), bound[0], bound[1], witness)


def iter_feasible(inst: Instance):
    """Yield every conflict-free all-parities orientation, by backtracking.

    Free edges are decided in vertex-id blocks, so every vertex closes at
    the end of its block: the sweep's search with its bound pinned, where
    a best of one less than the number of parities cuts a subtree at the
    first closed vertex whose parity fails, and a fewest-odd of 0 never
    keeps one alive. Exponential in the worst case but exact, with no edge
    budget, and fast on the gadget-heavy instances the sweep cannot reach.
    Raises InvalidInstanceError on a malformed instance, at the first step.
    """
    require_valid(inst)
    g = inst.graph
    blocks = dict.fromkeys(
        e for v in range(g.vertex_count) for e in g.incident(v) if e not in inst.forced
    )
    for heads, _, _ in _search(inst, list(blocks), [len(inst.parity) - 1, 0]):
        yield Orientation(tuple(heads))


def decide_feasible(inst: Instance) -> Orientation | None:
    """First conflict-free all-parities orientation in vertex-block order,
    or None."""
    return next(iter_feasible(inst), None)


def sat_witness(f: SatInstance, max_vars: int = 20) -> tuple[bool, ...] | None:
    """First assignment (counter order, bit 1 = true) with exactly one true
    literal per clause, or None."""
    errors = validate_formula(f)
    if errors:
        raise InvalidInstanceError("; ".join(errors))
    if f.variable_count > max_vars:
        raise OracleLimitError(
            f"formula has {f.variable_count} variables, oracle budget is {max_vars}"
        )
    for mask in range(1 << f.variable_count):
        good = True
        for clause in f.clauses:
            trues = sum(1 for var, neg in clause if bool((mask >> var) & 1) != neg)
            if trues != 1:
                good = False
                break
        if good:
            return tuple(bool((mask >> v) & 1) for v in range(f.variable_count))
    return None


def sat_oracle(f: SatInstance, max_vars: int = 20) -> bool:
    return sat_witness(f, max_vars) is not None
