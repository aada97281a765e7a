"""The benchmark's checker must count wrong answers as failures.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import replace
from random import Random

import gen
from check import check
from pcorient.cli import main
from pcorient.io import serialize_instance


def _solve(p: gen.Planted, tmp_path) -> tuple[int, str, str | None]:
    doc = tmp_path / "doc.json"
    out = tmp_path / "out.txt"
    out.unlink(missing_ok=True)
    doc.write_text(serialize_instance(p.instance), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["solve", str(doc), "-o", str(out), *p.argv])
    return code, err.getvalue(), out.read_text(encoding="utf-8") if out.exists() else None


def _flip_one_head(p: gen.Planted, output: str) -> str:
    heads = [int(h) for h in output.split()]
    u, v = p.instance.graph.edges[0]
    heads[0] = v if heads[0] == u else u
    return "".join(f"{h}\n" for h in heads)


def _pairs(flipped: bool) -> gen.Planted:
    return gen.disjoint_conflicts(Random(7), "pairs", 0, 48, 4, "pairs", flipped=flipped)


def test_right_answers_pass(tmp_path):
    planted = [
        _pairs(False),
        _pairs(True),
        gen.base_forest(Random(1), "forest", 0, 60, infeasible=False),
        gen.base_forest(Random(1), "forest", 0, 60, infeasible=True),
        gen.overlap_branching(Random(2), "overlap", 0, 12, ((2, 3),) * 2, gen.EXACT, infeasible=True),
    ]
    for p in planted:
        assert check(p, *_solve(p, tmp_path)) is None, p.name


def test_wrong_orientation_fails(tmp_path):
    for p in (_pairs(False), _pairs(True), gen.base_forest(Random(1), "f", 0, 60, infeasible=False)):
        code, err, out = _solve(p, tmp_path)
        assert check(p, code, err, _flip_one_head(p, out)) is not None, p.name


def test_wrong_exit_code_fails(tmp_path):
    p = _pairs(True)
    code, err, out = _solve(p, tmp_path)
    assert code == 1
    assert check(p, 0, err, out) is not None
    assert check(replace(p, exit_code=0), code, err, out) is not None


def test_wrong_satisfied_count_fails(tmp_path):
    p = _pairs(True)
    code, err, out = _solve(p, tmp_path)
    total = len(p.instance.parity)
    assert check(p, code, f"satisfied {total - 2} of {total} parity constraints\n", out) is not None
    assert check(p, code, "", out) is not None
    assert check(replace(p, satisfied=total), code, err, out) is not None


def test_missing_or_unexpected_orientation_fails(tmp_path):
    p = _pairs(False)
    code, err, _ = _solve(p, tmp_path)
    assert check(p, code, err, None) is not None
    q = gen.base_forest(Random(1), "f", 0, 60, infeasible=True)
    code, err, out = _solve(q, tmp_path)
    assert out is None
    assert check(q, code, err, "0\n") is not None
