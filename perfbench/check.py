"""Compare one ``pcorient solve`` outcome with the planted answer."""

from __future__ import annotations

import re

from gen import Planted
from pcorient.core import verify
from pcorient.errors import InvalidDocumentError, InvalidInstanceError
from pcorient.io import parse_orientation

_SATISFIED = re.compile(r"satisfied (\d+) of (\d+) parity constraints")


def check(p: Planted, exit_code: int, stderr: str, output: str | None) -> str | None:
    """Why the solve disagrees with the planted answer; None when it agrees.

    The exit code must match. Where the route reports a satisfied count,
    it must equal the planted optimum. A written orientation must fire no
    conflict and miss exactly the targets the optimum gives up, as
    ``core.verify`` judges it; a decision route that answers infeasible
    writes none.
    """
    if exit_code != p.exit_code:
        return f"exit code {exit_code}, expected {p.exit_code}"
    total = len(p.instance.parity)
    if p.satisfied is not None:
        found = _SATISFIED.search(stderr)
        if found is None:
            return "no satisfied count reported"
        if int(found.group(1)) != p.satisfied or int(found.group(2)) != total:
            return f"reported {found.group(0)!r}, planted optimum is {p.satisfied} of {total}"
    decision_no = p.exit_code == 1 and p.satisfied is None
    if output is None:
        return None if decision_no else "no orientation written"
    if decision_no:
        return "orientation written for an infeasible instance"
    try:
        report = verify(p.instance, parse_orientation(output))
    except (InvalidDocumentError, InvalidInstanceError) as exc:
        return f"malformed orientation: {exc}"
    if report.conflict_violations:
        return f"conflicts fired: {list(report.conflict_violations)}"
    missed = 0 if p.satisfied is None else total - p.satisfied
    if len(report.parity_violations) != missed:
        return f"{len(report.parity_violations)} targets missed, optimum misses {missed}"
    return None
