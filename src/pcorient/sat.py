"""One-in-three satisfiability formulas: model, validation, and text format.

A literal is a pair (variable, negated). Every clause has exactly three
literals over three distinct variables; repeated variables in a clause are
rejected because the generators downstream rely on that shape.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidDocumentError

Literal = tuple[int, bool]


@dataclass(frozen=True)
class SatInstance:
    variable_count: int
    clauses: tuple[tuple[Literal, Literal, Literal], ...]


def validate_formula(f: SatInstance) -> list[str]:
    """Structural checks; empty list means the formula is usable."""
    errors: list[str] = []
    if f.variable_count < 0:
        return [f"negative variable count {f.variable_count}"]
    for j, clause in enumerate(f.clauses):
        if len(clause) != 3:
            errors.append(f"clause {j} has {len(clause)} literals, expected 3")
            continue
        vars_seen = [var for var, _ in clause]
        if len(set(vars_seen)) != 3:
            errors.append(f"clause {j} repeats a variable")
        for var, _ in clause:
            if not 0 <= var < f.variable_count:
                errors.append(f"clause {j} names unknown variable {var}")
    return errors


def parse_formula(text: str) -> SatInstance:
    """Parse a formula from text: one clause per line, three signed 1-based ints.

    Blank lines and lines starting with '#' are skipped. A negative number
    is a negated literal, DIMACS style. The variable count is the largest
    index mentioned.
    """
    clauses: list[tuple[Literal, Literal, Literal]] = []
    top = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            nums = [int(p) for p in parts]
        except ValueError:
            raise InvalidDocumentError(f"line {lineno}: expected integers, got {line!r}")
        if len(nums) != 3:
            raise InvalidDocumentError(f"line {lineno}: expected 3 literals, got {len(nums)}")
        if any(n == 0 for n in nums):
            raise InvalidDocumentError(f"line {lineno}: literal 0 is not allowed")
        lits = tuple((abs(n) - 1, n < 0) for n in nums)
        top = max(top, *(abs(n) for n in nums))
        clauses.append(lits)  # type: ignore[arg-type]
    f = SatInstance(top, tuple(clauses))
    errors = validate_formula(f)
    if errors:
        raise InvalidDocumentError("; ".join(errors))
    return f

