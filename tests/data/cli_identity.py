"""Fingerprint `pcorient solve` on every benchmark document, to compare two checkouts.

For each perfbench workload and each given seed, the documents the
benchmark would generate are written to a temporary directory and solved
in process by ``pcorient.cli.main(["solve", "-v", DOC, "-o", FILE,
*flags])``, with each document's own solve flags. One line per document:
its name, the exit code, and the SHA-256 of standard output, standard
error and the output file ("-" when no file was written). Two checkouts
that print the same lines give byte-identical answers on those documents.

Run from the repository root:
    python3 tests/data/cli_identity.py [SEED ...]          (default seeds 1 2)
    python3 tests/data/cli_identity.py --root OTHER [SEED ...]
``--root`` takes the program (``src/``) and the generators
(``perfbench/``) from another checkout, such as a parent commit, so its
output can be compared line by line with this checkout's. Nothing under
``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path


def _sha(data: str | None) -> str:
    return "-" if data is None else hashlib.sha256(data.encode("utf-8")).hexdigest()


def fingerprints(seeds: list[int]) -> list[str]:
    """One line per document of every workload and seed, in generation order."""
    import run  # perfbench/run.py: the workloads and their documents
    from pcorient.cli import main

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        out = work / "orientation.txt"
        for name in run._workloads():
            for seed in seeds:
                planted = run._generate(name, seed)
                for p, doc in zip(planted, run._write_docs(planted, work)):
                    out.unlink(missing_ok=True)
                    stdout, stderr = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        code = main(["solve", "-v", str(doc), "-o", str(out), *p.argv])
                    written = out.read_text(encoding="utf-8") if out.exists() else None
                    lines.append(
                        f"{name}/{seed}/{p.name} {code} "
                        f"{_sha(stdout.getvalue())} {_sha(stderr.getvalue())} {_sha(written)}"
                    )
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[1, 2])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[2],
                        help="checkout whose src/ and perfbench/ are used (default: this one)")
    args = parser.parse_args()
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    for line in fingerprints(args.seeds):
        print(line)


if __name__ == "__main__":
    main()
