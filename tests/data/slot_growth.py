"""Print the pair route's growth table: solve_eo_2dec total and per stage.

Each size is a 4-regular multigraph random_regular_multigraph(Random(n),
n, 4) with m = 2n edges, no conflicts and every target even, solved by
solve_eo_2dec twice. The stages are timed by wrapping the names
solve_pco_2dec calls in pcorient.eo2dec: the link graph (build_lprime),
the slot graph (_slot_graph), the matching (max_matching) and the
assembly (matching_to_orientation). Each cell gives the two runs' times
in seconds, as "a-b" when they differ in the printed digits.

Run from the repository root:  python3 tests/data/slot_growth.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from pcorient import Instance, eo2dec  # noqa: E402
from util import random_regular_multigraph  # noqa: E402

EDGES = (16_000, 32_000, 64_000, 128_000)
RUNS = 2
STAGES = (
    ("build_lprime", "link graph"),
    ("_slot_graph", "slot graph"),
    ("max_matching", "`max_matching`"),
    ("matching_to_orientation", "assembly"),
)


def timed_solve(inst: Instance) -> dict[str, float]:
    """Seconds spent in solve_eo_2dec and in each stage of one solve."""
    spent = dict.fromkeys((name for name, _ in STAGES), 0.0)
    saved = {name: getattr(eo2dec, name) for name, _ in STAGES}

    def timer(name, fn):
        def run(*args):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[name] += time.perf_counter() - start

        return run

    try:
        for name, fn in saved.items():
            setattr(eo2dec, name, timer(name, fn))
        start = time.perf_counter()
        eo2dec.solve_eo_2dec(inst)
        spent["total"] = time.perf_counter() - start
    finally:
        for name, fn in saved.items():
            setattr(eo2dec, name, fn)
    return spent


def cell(values: list[float]) -> str:
    lo, hi = f"{min(values):.2f}", f"{max(values):.2f}"
    return f"{lo} s" if lo == hi else f"{lo}-{hi} s"


def main() -> int:
    print("| edges | total | " + " | ".join(label for _, label in STAGES) + " |")
    print("|---" * (len(STAGES) + 2) + "|")
    for m in EDGES:
        n = m // 2
        inst = Instance(random_regular_multigraph(Random(n), n, 4))
        runs = [timed_solve(inst) for _ in range(RUNS)]
        cols = ["total", *(name for name, _ in STAGES)]
        print(f"| {m // 1000}k | " + " | ".join(cell([r[c] for r in runs]) for c in cols) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
