"""Compare two checkouts on one benchmark workload, in alternating pairs of runs.

For each seed in the range, ``perfbench/run.py --workload W --seed SEED
--seconds S --trace 0`` runs once from each checkout, each in its own
process and with its own ``src/``. The side that runs first alternates
from pair to pair, so a drift of the machine's speed over the session
favours neither. For each end-to-end metric that ``BENCHMARK.json``
lists, one line gives each side's median with its quartiles, the change
of the median in %, the parent's interquartile range as % of its median,
and the number of pairs (same seed) the change won in the metric's
better direction. A last line counts the failed solves on each side.

Run from the repository root:
    python3 tests/data/bench_pairs.py --root PARENT --workload base-forest --seeds 51-60 [--seconds 20]
``--root`` is the other checkout, such as a parent commit; this
checkout is the change. Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[2]


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run from ``root``: its result object, the last line it prints."""
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{root}: exit {proc.returncode} on seed {seed}\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True, help="the parent checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="A-B, both included")
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    sides = {"parent": args.root.resolve(), "change": HERE}
    metrics = json.loads((HERE / "BENCHMARK.json").read_text())["end_to_end"]
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for k, seed in enumerate(args.seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            results[side].append(run_once(sides[side], args.workload, seed, args.seconds))
        print(f"pair {k + 1}/{len(args.seeds)} seed {seed}: {order[0]} ran first", file=sys.stderr)

    pairs = len(args.seeds)
    print(f"workload {args.workload}  seeds {args.seeds[0]}-{args.seeds[-1]}  "
          f"seconds {args.seconds:g}  pairs {pairs}")
    print(f"{'metric':14s} {'parent median [q1, q3]':>36s} {'change median [q1, q3]':>36s} "
          f"{'change':>8s} {'parent IQR':>10s} {'won':>6s}")
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        got = {side: [r["metrics"][name]["value"] for r in results[side]] for side in results}
        p1, p2, p3 = quartiles(got["parent"])
        c1, c2, c3 = quartiles(got["change"])
        won = sum((c > p) if higher else (c < p) for p, c in zip(got["parent"], got["change"]))
        print(f"{name:14s} {f'{p2:.6g} [{p1:.6g}, {p3:.6g}]':>36s} {f'{c2:.6g} [{c1:.6g}, {c3:.6g}]':>36s} "
              f"{100 * (c2 - p2) / p2:+7.1f}% {100 * (p3 - p1) / p2:9.1f}% {won:3d}/{pairs}")
    failed = {side: sum(r["failed"] for r in results[side]) for side in results}
    attempted = {side: sum(r["attempted"] for r in results[side]) for side in results}
    print(f"failed solves: parent {failed['parent']} of {attempted['parent']}, "
          f"change {failed['change']} of {attempted['change']}")


if __name__ == "__main__":
    main()
