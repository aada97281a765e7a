"""Ground-truth brute force: orientation sweeps and a 1-in-3-SAT decider.

``enumerate_best`` walks all orientations of an instance and reports the
aggregates every other module tests against. It is one bitmask sweep,
vectorized with numpy over chunks of orientations; the tests hold it to a
plain per-orientation loop kept beside them as the reference, witness
included. ``decide_feasible`` is a complete backtracking search for the
instances whose orientation space is too large to sweep flat.

numpy is imported inside ``enumerate_best``, its only user, so importing
the package or solving through any route does not load it: numpy's
import costs more time and memory than a small solve.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ConflictKind, Instance, Orientation, require_valid
from .errors import InvalidInstanceError, OracleLimitError
from .sat import SatInstance, validate_formula

_CHUNK_BITS = 22


@dataclass(frozen=True)
class OracleResult:
    """Aggregates over every conflict-free orientation of an instance.

    All three optional fields are None exactly when no orientation avoids
    every conflict (possible once conflicts overlap or forcings bite).
    The witness is the first conflict-free orientation, in the fixed
    enumeration order, that attains ``best_satisfied_parities``.
    """

    feasible: bool
    best_satisfied_parities: int | None
    min_odd_vertices: int | None
    witness: Orientation | None


def enumerate_best(inst: Instance, max_edges: int = 20) -> OracleResult:
    """Sweep all orientations respecting forced edges; no pruning anywhere.

    Orientations are enumerated in binary-counter order over free-edge
    bits (bit 1 points an edge at its larger endpoint), so witnesses are
    reproducible. Refuses instances with more than ``max_edges`` edges,
    and with more than 64 free edges, one per bit of a ``uint64``.
    Raises InvalidInstanceError on a malformed instance.
    """
    import numpy as np

    require_valid(inst)
    g = inst.graph
    n, m = g.vertex_count, g.edge_count
    if m > max_edges:
        raise OracleLimitError(f"instance has {m} edges, oracle budget is {max_edges}")
    free = [e for e in range(m) if e not in inst.forced]
    if len(free) > 64:
        raise OracleLimitError(f"instance has {len(free)} free edges, the sweep packs at most 64")
    bit_of = {e: j for j, e in enumerate(free)}
    hi_mask = [0] * n
    lo_mask = [0] * n
    forced_in = [0] * n
    for e in free:
        lo, hi = g.edges[e]
        hi_mask[hi] |= 1 << bit_of[e]
        lo_mask[lo] |= 1 << bit_of[e]
    for h in inst.forced.values():
        forced_in[h] += 1

    # Conflicts reduce to bitmask tests on the free incoming set, or drop
    # out entirely when the forced part already decides them.
    checks: list[tuple[int, int, bool]] = []  # (vertex, free-member mask, exact?)
    impossible = False
    for c in inst.conflicts:
        v = c.vertex
        if any(inst.forced.get(e, v) != v for e in c.edges if e in inst.forced):
            continue  # a member can never come in
        cmask = 0
        for e in c.edges:
            if e in bit_of:
                cmask |= 1 << bit_of[e]
        if c.kind is ConflictKind.EXACT:
            if any(inst.forced.get(e) == v for e in g.incident(v) if e not in c.edges):
                continue  # incoming always exceeds the set
            checks.append((v, cmask, True))
        else:
            if cmask == 0:
                impossible = True  # whole set forced in
                break
            checks.append((v, cmask, False))
    if impossible:
        return OracleResult(False, None, None, None)

    total = 1 << len(free)
    best_sat = -1
    best_idx = -1
    min_odd: int | None = None
    conflict_vs = {v for v, _, _ in checks}
    for start in range(0, total, 1 << _CHUNK_BITS):
        stop = min(start + (1 << _CHUNK_BITS), total)
        o = np.arange(start, stop, dtype=np.uint64)
        incoming: dict[int, np.ndarray] = {}
        odd = np.zeros(o.shape, dtype=np.int16)
        sat = np.zeros(o.shape, dtype=np.int16)
        for v in range(n):
            in_v = (o & np.uint64(hi_mask[v])) | (~o & np.uint64(lo_mask[v]))
            pb = (np.bitwise_count(in_v).astype(np.int16) + forced_in[v]) & 1
            odd += pb
            p = inst.parity.get(v)
            if p is not None:
                sat += pb == p
            if v in conflict_vs:
                incoming[v] = in_v
        valid = np.ones(o.shape, dtype=bool)
        for v, cmask, exact in checks:
            cm = np.uint64(cmask)
            if exact:
                valid &= incoming[v] != cm
            else:
                valid &= (incoming[v] & cm) != cm
        if not valid.any():
            continue
        sat_valid = np.where(valid, sat, np.int16(-1))
        chunk_best = int(sat_valid.max())
        if chunk_best > best_sat:
            best_sat = chunk_best
            best_idx = start + int(np.argmax(sat_valid == chunk_best))
        chunk_min = int(odd[valid].min())
        if min_odd is None or chunk_min < min_odd:
            min_odd = chunk_min
    if best_idx < 0:
        return OracleResult(False, None, None, None)
    heads = [0] * m
    for e, h in inst.forced.items():
        heads[e] = h
    for j, e in enumerate(free):
        lo, hi = g.edges[e]
        heads[e] = hi if (best_idx >> j) & 1 else lo
    witness = Orientation(tuple(heads))
    return OracleResult(best_sat == len(inst.parity), best_sat, min_odd, witness)


def iter_feasible(inst: Instance):
    """Yield every conflict-free all-parities orientation, by backtracking.

    Edges are decided in vertex-id blocks, so every vertex has a position
    at which its incoming set is final; parity and exact conflicts are
    checked there, subset conflicts as soon as their last member is
    decided. Exponential in the worst case but exact, and fast on the
    gadget-heavy instances the flat sweep cannot reach. Raises
    InvalidInstanceError on a malformed instance, at the first step.
    """
    require_valid(inst)
    g = inst.graph
    n, m = g.vertex_count, g.edge_count
    for v, p in inst.parity.items():
        if g.degree(v) == 0 and p != 0:
            return

    order: list[int] = []
    placed = [False] * m
    for v in range(n):
        for e in g.incident(v):
            if not placed[e]:
                placed[e] = True
                order.append(e)
    pos_of = {e: i for i, e in enumerate(order)}
    vertex_checks: list[list[int]] = [[] for _ in range(m)]
    for v in range(n):
        if g.degree(v):
            vertex_checks[max(pos_of[e] for e in g.incident(v))].append(v)
    subset_checks: list[list[int]] = [[] for _ in range(m)]
    exact_at: dict[int, list[int]] = {}
    for ci, c in enumerate(inst.conflicts):
        if c.kind is ConflictKind.SUBSET:
            subset_checks[max(pos_of[e] for e in c.edges)].append(ci)
        else:
            exact_at.setdefault(c.vertex, []).append(ci)

    heads = [-1] * m
    indeg = [0] * n
    conflicts = inst.conflicts
    parity = inst.parity

    def consistent(i: int) -> bool:
        for ci in subset_checks[i]:
            c = conflicts[ci]
            if all(heads[e] == c.vertex for e in c.edges):
                return False
        for v in vertex_checks[i]:
            p = parity.get(v)
            if p is not None and indeg[v] % 2 != p:
                return False
            for ci in exact_at.get(v, ()):
                c = conflicts[ci]
                if indeg[v] == c.size and all(heads[e] == v for e in c.edges):
                    return False
        return True

    def dfs(i: int):
        if i == m:
            yield Orientation(tuple(heads))
            return
        e = order[i]
        lo, hi = g.edges[e]
        forced = inst.forced.get(e)
        for h in (lo, hi) if forced is None else (forced,):
            heads[e] = h
            indeg[h] += 1
            if consistent(i):
                yield from dfs(i + 1)
            indeg[h] -= 1
            heads[e] = -1

    try:
        yield from dfs(0)
    finally:
        del dfs  # it holds itself through its closure; the cycle would outlive the search


def decide_feasible(inst: Instance) -> Orientation | None:
    """First conflict-free all-parities orientation found, or None."""
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
