"""Seeded closed-loop solve benchmark for pcorient.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's planted-answer instance documents from the seed,
then solves them one at a time through the in-process
``pcorient.cli.main(["solve", ...])`` path (one client, closed loop) for
whole passes over the documents until S seconds have gone, and checks
every answer against the planted one. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
solves of the same documents and reports the per-layer metrics. The
last line of standard output is one JSON object. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
TRACE_DIR = BENCH / ".out"


@dataclass(frozen=True)
class Workload:
    tiers: tuple[int, ...]  # the size parameter of each tier
    per_tier: int  # instances per tier, a multiple of every index pattern's period
    make: Callable  # (rng, name, tier, size, index) -> Planted


def _workloads() -> dict[str, Workload]:
    import gen

    # Conflict sizes per hot vertex in each overlap-branching tier: 6, 7 and 8 conflicts.
    chains = (((2, 3),) * 3, ((2, 3, 2), (2, 3), (2, 3)), ((2, 3, 2), (2, 3, 2), (2, 3)))
    return {
        "base-forest": Workload(
            (1500, 3000, 6000), 12,
            lambda rng, name, t, m, i: gen.base_forest(rng, name, t, m, infeasible=i % 3 == 0),
        ),
        "disjoint-conflicts": Workload(
            (200, 400, 800), 12,
            lambda rng, name, t, m, i: gen.disjoint_conflicts(
                rng, name, t, m, 4 if i % 12 < 6 else 6, ("pairs", "exact", "subset")[i % 3],
                flipped=i % 6 == 3),
        ),
        "pairs-hub": Workload(
            (100, 200, 400), 8,
            lambda rng, name, t, n, i: gen.pairs_hub(rng, name, t, n),
        ),
        "overlap-branching": Workload(
            (20, 30, 45), 30,
            lambda rng, name, t, n, i: gen.overlap_branching(
                rng, name, t, n, chains[t],
                gen.EXACT if i % 2 == 0 else gen.SUBSET, infeasible=i % 10 in (0, 3, 6)),
        ),
    }


def _import_program() -> None:
    """Import pcorient from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import pcorient

    found = Path(pcorient.__file__).resolve().parent
    if found != SRC / "pcorient":
        raise ImportError(f"pcorient was imported from {found}, not from {SRC}")


def _generate(name: str, seed: int) -> list:
    """The workload's instances, tiers interleaved, the same for the same seed."""
    from pcorient.cli import pick_route

    w = _workloads()[name]
    out = []
    for i in range(w.per_tier):
        for t, size in enumerate(w.tiers):
            p = w.make(Random(f"{name}/{seed}/{t}/{i}"), f"{name}-t{t}-{i}", t, size, i)
            route = pick_route(p.instance)
            if route != p.route:
                raise RuntimeError(f"{p.name}: routed to {route}, generated for {p.route}")
            out.append(p)
    return out


def _write_docs(planted: list, work: Path) -> list[Path]:
    from pcorient.io import serialize_instance

    paths = []
    for p in planted:
        path = work / f"{p.name}.json"
        path.write_text(serialize_instance(p.instance), encoding="utf-8")
        paths.append(path)
    return paths


class Runner:
    """Solves documents in-process, one at a time, and checks each answer."""

    def __init__(self, planted: list, docs: list[Path], work: Path) -> None:
        from pcorient.cli import main

        self.main = main
        self.planted = planted
        self.docs = docs
        self.out = work / "orientation.txt"
        self.failures: list[str] = []
        self.attempted = 0

    def solve(self, k: int, call: Callable = lambda fn, *a: fn(*a)) -> float:
        """Solve document k through ``call``; returns wall seconds of the call."""
        from check import check

        p = self.planted[k]
        argv = ["solve", str(self.docs[k]), "-o", str(self.out), *p.argv]
        self.out.unlink(missing_ok=True)
        err = io.StringIO()
        code = None
        with contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = call(self.main, argv)
            except Exception:  # a crashed solve is a failed solve; keep measuring
                crash = traceback.format_exc()
            wall = time.perf_counter() - start
        self.attempted += 1
        if code is None:
            reason = "raised " + crash.strip().splitlines()[-1]
        else:
            output = self.out.read_text(encoding="utf-8") if self.out.exists() else None
            reason = check(p, code, err.getvalue(), output)
        if reason is not None:
            self.failures.append(f"{p.name}: {reason}")
        return wall


def _slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) on log(x); 0 when some y is 0."""
    if any(y <= 0 for _, y in points):
        return 0.0
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _tier_growth(planted: list, samples: list[tuple[int, float]]) -> float:
    """Growth exponent of median per-solve value against input edges across tiers."""
    by_tier: dict[int, list[float]] = {}
    edges: dict[int, list[int]] = {}
    for k, value in samples:
        p = planted[k]
        by_tier.setdefault(p.tier, []).append(value)
        edges.setdefault(p.tier, []).append(p.instance.graph.edge_count)
    return _slope([(statistics.median(edges[t]), statistics.median(by_tier[t])) for t in sorted(by_tier)])


def _src_lines() -> int:
    return sum(len(f.read_text(encoding="utf-8").splitlines()) for f in SRC.rglob("*.py"))


def _setup(name: str, seed: int, work: Path) -> Runner:
    """Everything before the first timed solve: generate, write, one warm-up solve."""
    planted = _generate(name, seed)
    runner = Runner(planted, _write_docs(planted, work), work)
    runner.solve(0)
    runner.attempted = 0  # the warm-up document is solved and counted again in the loop
    runner.failures.clear()
    # A solve in its own process would not carry the benchmark's instances
    # on its heap; freezing them keeps the collector from scanning them
    # inside timed solves.
    gc.collect()
    gc.freeze()
    return runner


def _setup_seconds(name: str, seed: int) -> list[float]:
    """Wall time of fresh processes that start, set up and stop."""
    out = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", name, "--seed", str(seed)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        out.append(time.perf_counter() - start)
    return out


def _passes(runner: Runner, seconds: float, body: Callable[[int, int], None]) -> None:
    """Whole passes over every document until ``seconds`` have gone."""
    start = time.perf_counter()
    n = 0
    while True:
        for k in range(len(runner.docs)):
            body(n, k)
            n += 1
        if time.perf_counter() - start >= seconds:
            return


def _end_to_end(runner: Runner, seconds: float) -> tuple[dict[str, tuple[float, str]], float]:
    """End-to-end metrics and the solve time's growth exponent across tiers."""
    walls: list[tuple[int, float]] = []
    _passes(runner, seconds, lambda n, k: walls.append((k, runner.solve(k))))
    times = [w for _, w in walls]
    edges = sum(runner.planted[k].instance.graph.edge_count for k, _ in walls)
    return {
        "solve_s.p50": (statistics.median(times), "s"),
        "solve_s.p90": (statistics.quantiles(times, n=10)[-1], "s"),
        "edges_per_s": (edges / sum(times), "1/s"),
    }, _tier_growth(runner.planted, walls)


# Per-layer metric: (span name, statistic). "incl" sums span durations and
# "self" sums self times, both per traced solve; "calls" counts spans per
# solve; a count name averages that count over the span's calls.
_LAYER = {
    "cli.self_s": ("solve", "self"),
    "io.parse_s": ("io.parse", "incl"),
    "io.serialize_s": ("io.serialize", "incl"),
    "core.components_s": ("core.components", "incl"),
    "core.components_calls": ("core.components", "calls"),
    "core.contract_forced_s": ("core.contract_forced", "incl"),
    "core.normalize_s": ("core.normalize", "incl"),
    "core.verify_s": ("core.verify", "incl"),
    "pco.solve_self_s": ("pco.solve", "self"),
    "matching.max_matching_s": ("matching.max_matching", "incl"),
    "matching.nodes": ("matching.max_matching", "nodes"),
    "matching.size": ("matching.max_matching", "size"),
    "matching.exposed": ("matching.max_matching", "exposed"),
    "eo2dec.lprime_s": ("eo2dec.lprime", "incl"),
    "eo2dec.lprime_links": ("eo2dec.lprime", "links"),
    "eo2dec.assemble_s": ("eo2dec.assemble", "incl"),
    "eo2dec.engine_self_s": ("eo2dec.engine", "self"),
    "eo2dec.decide_self_s": ("eo2dec.decide", "self"),
    "reductions.reduce_s": ("reductions.reduce", "incl"),
    "reductions.reduced_edges": ("reductions.reduce", "edges"),
    "reductions.pull_back_s": ("reductions.pull_back", "incl"),
    "switching.networks": ("switching.emit", "calls"),
    "switching.emit_s": ("switching.emit", "incl"),
    "fpt.leaves": ("fpt.leaf", "calls"),
    "fpt.leaf_s": ("fpt.leaf", "incl"),
    "fpt.branch_self_s": ("fpt.branch", "self"),
}
_GROWTH = {
    "growth.max_matching": "matching.max_matching",
    "growth.components": "core.components",
    "growth.lprime": "eo2dec.lprime",
}


def _per_layer(runner: Runner, seconds: float, name: str) -> dict[str, tuple[float, str]]:
    from spans import Tracer

    tracer = Tracer()
    plain: list[tuple[int, float]] = []
    traced: list[tuple[int, float]] = []

    def traced_solve(k: int) -> None:
        with tracer.installed():
            traced.append((k, runner.solve(k, tracer.solve)))

    def pair(n: int, k: int) -> None:  # alternate which side of a pair runs first
        if n % 2:
            traced_solve(k)
        plain.append((k, runner.solve(k)))
        if not n % 2:
            traced_solve(k)

    _passes(runner, seconds, pair)
    spans = tracer.spans
    selfs = tracer.self_times()
    owner = tracer.solve_index()
    solves = len(traced)
    incl: dict[str, float] = {}
    self_t: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[tuple[str, str], int] = {}
    per_solve: dict[str, list[float]] = {}
    for i, s in enumerate(spans):
        dur = s.end - s.start
        incl[s.name] = incl.get(s.name, 0.0) + dur
        self_t[s.name] = self_t.get(s.name, 0.0) + selfs[i]
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in s.counts.items():
            counts[s.name, key] = counts.get((s.name, key), 0) + value
        if s.name in _GROWTH.values():
            per_solve.setdefault(s.name, [0.0] * solves)[owner[i]] += dur

    metrics: dict[str, tuple[float, str]] = {}
    for metric, (span, stat) in _LAYER.items():
        if stat == "incl":
            metrics[metric] = (incl.get(span, 0.0) / solves, "s")
        elif stat == "self":
            metrics[metric] = (self_t.get(span, 0.0) / solves, "s")
        elif stat == "calls":
            metrics[metric] = (calls.get(span, 0) / solves, "count")
        else:
            metrics[metric] = (counts.get((span, stat), 0) / calls[span] if span in calls else 0.0, "count")
    leaves = calls.get("fpt.leaf", 0)
    metrics["fpt.us_per_leaf"] = (1e6 * incl["fpt.leaf"] / leaves if leaves else 0.0, "us")
    metrics["fpt.feasible_leaf_ratio"] = (
        counts.get(("fpt.leaf", "feasible"), 0) / leaves if leaves else 0.0, "ratio")
    metrics["growth.solve"] = (_tier_growth(runner.planted, plain), "exp")
    for metric, span in _GROWTH.items():
        values = per_solve.get(span)
        samples = [(k, values[j]) for j, (k, _) in enumerate(traced)] if values else []
        metrics[metric] = (_tier_growth(runner.planted, samples) if samples else 0.0, "exp")
    traced_wall = sum(w for _, w in traced)
    metrics["trace.overhead"] = (traced_wall / sum(w for _, w in plain), "ratio")
    metrics["trace.self_sum_ratio"] = (sum(selfs) / traced_wall, "ratio")
    metrics["trace.spans_per_solve"] = (len(spans) / solves, "count")
    TRACE_DIR.mkdir(exist_ok=True)
    tracer.dump(str(TRACE_DIR / f"trace-{name}.jsonl"))
    return metrics


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once and exit; used to time set-up in fresh processes")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in _workloads():
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(_workloads())}", file=sys.stderr)
        return 2
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=BENCH / ".work"))
    try:
        runner = _setup(args.workload, args.seed, work)
        if args.setup_probe:
            return 0
        if args.trace:
            metrics = _per_layer(runner, args.seconds, args.workload)
            metrics["fail_rate"] = (len(runner.failures) / runner.attempted, "ratio")
            metrics["src_lines"] = (_src_lines(), "count")
            growth = metrics["growth.solve"][0]
        else:
            metrics, growth = _end_to_end(runner, args.seconds)
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
            metrics["setup_s"] = (statistics.median(_setup_seconds(args.workload, args.seed)), "s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return _report(args, runner, metrics, growth)


def _report(args: argparse.Namespace, runner: Runner, metrics: dict[str, tuple[float, str]],
            growth: float) -> int:
    failed = len(runner.failures)
    self_sum = metrics.get("trace.self_sum_ratio", (1.0, ""))[0]
    tiers = _workloads()[args.workload].tiers
    print(f"workload {args.workload}  seed {args.seed}  tiers {'/'.join(map(str, tiers))}  "
          f"closed loop, 1 client  nproc {os.cpu_count()}  src_lines {_src_lines()}")
    print(f"solves {runner.attempted}  failed {failed}  fail_rate {failed / runner.attempted:.4f}  "
          f"solve-time growth exponent {growth:.3f}")
    for reason in runner.failures:
        print(f"FAILED {reason}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"  {key:28s} {value:.6g} {unit}")
    # Self times cover each traced solve exactly once, so they add up to
    # its wall time less the wrapper's own entry and exit.
    correct = failed == 0 and 0.97 <= self_sum <= 1.0
    if not 0.97 <= self_sum <= 1.0:
        print(f"trace self times add up to {self_sum:.4f} of traced wall time", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
