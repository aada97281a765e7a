"""Time `pcorient solve` the way a user's command sees it: one fresh process per document.

For each perfbench workload and each given seed, the documents the
benchmark would generate are written to a temporary directory. Each one
is then solved once, in its own new interpreter, by
``pcorient.cli.main(["solve", DOC, "-o", FILE, *flags])`` with the
document's own solve flags. Only that call is timed: the interpreter's
start and the package import are not. Nothing calls ``gc.freeze``, so
the collector sees the heap a real command has. One line per workload
and seed: the number of documents, the median and the sum of the solve
times, and the number of answers that perfbench's checker rejects.

Run from the repository root:
    python3 tests/data/fresh_solve.py [SEED ...]          (default seed 1)
    python3 tests/data/fresh_solve.py --root OTHER [SEED ...]
``--root`` takes the program (``src/``) and the generators
(``perfbench/``) from another checkout, such as a parent commit, so the
two can be timed with the same documents. Nothing under ``perfbench/``
is changed.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# Runs in the fresh interpreter: argv is [DOC, OUT, *flags]; prints "code seconds".
_CHILD = """
import sys, time
from pcorient.cli import main
argv = ["solve", sys.argv[1], "-o", sys.argv[2], *sys.argv[3:]]
start = time.perf_counter()
code = main(argv)
print(code, time.perf_counter() - start)
"""


def _solve_fresh(root: Path, doc: Path, out: Path, flags: list[str]) -> tuple[int, float, str]:
    """Exit code, solve seconds and standard error of one fresh-process solve."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    run = subprocess.run(
        [sys.executable, "-c", _CHILD, str(doc), str(out), *flags],
        env=env, capture_output=True, text=True, check=True,
    )
    code, seconds = run.stdout.split()
    return int(code), float(seconds), run.stderr


def timings(root: Path, seeds: list[int]) -> list[str]:
    """One line per workload and seed, in workload order."""
    import run  # perfbench/run.py: the workloads and their documents
    from check import check

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        out = work / "orientation.txt"
        for name in run._workloads():
            for seed in seeds:
                planted = run._generate(name, seed)
                times, rejected = [], 0
                for p, doc in zip(planted, run._write_docs(planted, work)):
                    out.unlink(missing_ok=True)
                    code, seconds, err = _solve_fresh(root, doc, out, p.argv)
                    output = out.read_text(encoding="utf-8") if out.exists() else None
                    rejected += check(p, code, err, output) is not None
                    times.append(seconds)
                lines.append(
                    f"{name} seed={seed} docs={len(times)} "
                    f"median_ms={1e3 * statistics.median(times):.3f} sum_ms={1e3 * sum(times):.1f} "
                    f"rejected={rejected}"
                )
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[1])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[2],
                        help="checkout whose src/ and perfbench/ are used (default: this one)")
    args = parser.parse_args()
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    for line in timings(root, args.seeds):
        print(line, flush=True)


if __name__ == "__main__":
    main()
