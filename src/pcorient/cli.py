"""Command-line front end.

Subcommands: ``solve`` (route an instance to a solver and emit the
orientation), ``verify`` (check an orientation file), ``oracle``
(brute-force ground truth), ``generate`` (satisfiability-encoding
instances), ``export-dot``. Exit codes: 0 feasible/ok, 1 infeasible,
2 input error, 3 valid input the chosen route cannot express (forced
edges that cut a conflict down on a decision route, a single-edge exact
conflict that ``normalize`` keeps given ``--solver pco-dec``, an oracle
sweep past its budget), 4 internal error (a solver's own consistency
check failed, or any other exception). ``pick_route`` lives in ``core``
and has a route for every instance: whatever no polynomial route takes
goes to the branching solver.

The argument parser is built once, at import. ``main`` only parses, into
a fresh namespace per call, so it can be called again in one process.

``main`` runs each command with the cyclic garbage collector paused, and
turns it back on afterwards if it was on. A solve allocates tens of
thousands of small containers, none of them in a reference cycle, and
the collector would rescan the live ones every few hundred allocations
for nothing: that costs up to a tenth of a solve. No route leaves a
cycle behind, so the pause holds no garbage. The library itself leaves
``gc`` alone: interpreter-wide state belongs to the process's entry
point, and this is it.

Every route of ``solve`` returns a PcoResult and is reported the same
way: a feasible result's orientation is written; an infeasible one
prints ``infeasible``, followed by the best count when the route found
a best orientation. Under ``--max-parities`` (exact-pair route only) a
best orientation is written either way, with its count.
"""

from __future__ import annotations

import argparse
import gc
import sys

from . import io
from .core import pick_route, require_valid, verify
from .eo2dec import solve_pco_2dec, solve_pco_dec, solve_pco_dsc
from .errors import (
    InvalidDocumentError,
    InvalidInstanceError,
    OracleLimitError,
    UnsupportedError,
)
from .fpt import solve_pco_fpt
from .hardness import reduce_to_pco_2ec, reduce_to_pco_2sc
from .oracle import decide_feasible, enumerate_best
from .pco import solve_pco
from .sat import parse_formula

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_INTERNAL = 4

# The exact-pair route stays out of this table: cmd_solve looks up
# solve_pco_2dec in this module at call time, so it can be replaced there.
# Both branching names run the one branching solver. The names stay apart
# because perfbench's generator and span table key on them.
_DECISION_SOLVERS = {
    "pco": solve_pco,
    "pco-dec": solve_pco_dec,
    "pco-dsc": solve_pco_dsc,
    "pco-ec-fpt": solve_pco_fpt,
    "pco-sc-fpt": solve_pco_fpt,
}


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_solve(args: argparse.Namespace) -> int:
    inst = io.parse_instance(_read(args.instance))
    route = args.solver or pick_route(inst)
    if args.max_parities and route != "pco-2dec":
        print("--max-parities needs the exact-pair route (pco-2dec)", file=sys.stderr)
        return EXIT_INPUT
    if args.verbose:
        print(f"route: {route}", file=sys.stderr)
    solve = solve_pco_2dec if route == "pco-2dec" else _DECISION_SOLVERS[route]
    res = solve(inst)
    total = len(inst.parity)
    if args.max_parities and res.orientation is not None:
        _write(args.output, io.serialize_orientation(res.orientation))
        print(f"satisfied {res.satisfied} of {total} parity constraints", file=sys.stderr)
        return EXIT_OK if res.feasible else EXIT_INFEASIBLE
    if not res.feasible:
        # A route that found a best orientation says how close it came.
        best = f"; {res.satisfied} of {total} parity constraints are satisfiable"
        print("infeasible" + (best if res.orientation is not None else ""), file=sys.stderr)
        return EXIT_INFEASIBLE
    if res.orientation is None:
        raise RuntimeError(f"route {route} reported feasible without an orientation")
    _write(args.output, io.serialize_orientation(res.orientation))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    inst = io.parse_instance(_read(args.instance))
    require_valid(inst)
    o = io.parse_orientation(_read(args.orientation))
    report = verify(inst, o)
    if report.ok:
        print("ok")
        return EXIT_OK
    if report.parity_violations:
        print("parity violated at vertices:", *report.parity_violations)
    if report.conflict_violations:
        print("conflicts violated:", *report.conflict_violations)
    return EXIT_INFEASIBLE


def cmd_oracle(args: argparse.Namespace) -> int:
    inst = io.parse_instance(_read(args.instance))
    if args.decision:
        w = decide_feasible(inst)
        print(f"feasible: {'yes' if w is not None else 'no'}")
        if args.output and w is not None:
            _write(args.output, io.serialize_orientation(w))
        return EXIT_OK if w is not None else EXIT_INFEASIBLE
    res = enumerate_best(inst, max_edges=args.max_edges)
    total = len(inst.parity)
    print(f"feasible: {'yes' if res.feasible else 'no'}")
    if res.best_satisfied_parities is None:
        print("best-satisfied: none (no conflict-free orientation exists)")
        print("min-odd-vertices: none")
    else:
        print(f"best-satisfied: {res.best_satisfied_parities} of {total}")
        print(f"min-odd-vertices: {res.min_odd_vertices}")
    if args.output and res.witness is not None:
        _write(args.output, io.serialize_orientation(res.witness))
    return EXIT_OK if res.feasible else EXIT_INFEASIBLE


def cmd_generate(args: argparse.Namespace) -> int:
    f = parse_formula(_read(args.formula))
    builder = reduce_to_pco_2ec if args.construction == "ec" else reduce_to_pco_2sc
    art = builder(f)
    _write(args.output, io.serialize_instance(art.instance))
    if args.labels:
        _write(args.labels, io.serialize_roles(art.labels, art.padded_clauses, art.padded_variables))
    return EXIT_OK


def cmd_export_dot(args: argparse.Namespace) -> int:
    inst = io.parse_instance(_read(args.instance))
    require_valid(inst)
    o = io.parse_orientation(_read(args.orientation)) if args.orientation else None
    _write(args.output, io.export_dot(inst, o))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcorient",
        description="Parity-constrained orientation solvers with conflict sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="orient an instance; route picked from its shape")
    p.add_argument("instance", help="instance document (JSON)")
    p.add_argument("--solver", choices=sorted([*_DECISION_SOLVERS, "pco-2dec"]),
                   help="override route auto-selection")
    p.add_argument("--max-parities", action="store_true",
                   help="on the exact-pair route, emit the best orientation even "
                        "when some parity constraint must fail")
    p.add_argument("-o", "--output", help="orientation file (default stdout)")
    p.add_argument("-v", "--verbose", action="store_true", help="report the chosen route")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="check an orientation file against an instance")
    p.add_argument("instance")
    p.add_argument("orientation")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force feasibility, best parity count, min odd vertices")
    p.add_argument("instance")
    p.add_argument("--max-edges", type=int, default=20, help="enumeration budget (default 20)")
    p.add_argument("--decision", action="store_true",
                   help="feasibility only, by backtracking; no budget, no best counts")
    p.add_argument("-o", "--output", help="write the witness orientation here")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("generate", help="encode a one-in-three formula as an instance")
    p.add_argument("construction", choices=["ec", "sc"],
                   help="exact-pair or subset-pair construction")
    p.add_argument("formula", help="formula file: three signed 1-based ints per line")
    p.add_argument("-o", "--output", help="instance document (default stdout)")
    p.add_argument("--labels", help="also write the construction role map here")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("export-dot", help="render an instance (optionally oriented) as DOT")
    p.add_argument("instance")
    p.add_argument("--orientation", help="orientation file to direct the edges")
    p.add_argument("-o", "--output", help="DOT file (default stdout)")
    p.set_defaults(fn=cmd_export_dot)
    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.fn(args)
    except (InvalidDocumentError, InvalidInstanceError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (UnsupportedError, OracleLimitError) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
