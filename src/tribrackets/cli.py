"""Command-line front end.

Verbs: verify, enumerate-tribrackets, enumerate-products, count, check-moves,
demo.  Exit codes: 0 success, 1 mathematical failure (axiom violation, move
failure, oracle mismatch, failed demo row), 2 usage or I/O error.  All output
meant for scripting is byte-stable across runs.
"""
from __future__ import annotations

import argparse
import functools
import sys

from .algebra import (
    AlgebraParseError,
    PartialProduct,
    ShapeError,
    Tribracket,
    TribracketAlgebra,
    load_bundled_algebra,
    parse_algebra,
    serialize_algebra,
    verify_algebra,
    verify_tribracket,
)
from .coloring import (
    BruteForceCapError,
    HandlebodyModeError,
    count_colorings,
    count_colorings_bruteforce,
    enumerate_colorings,
    verify_k2_obstruction,
)
from .diagram import Diagram, DiagramParseError, builtin_diagrams, parse_diagram
from .enumeration import (
    EnumerationBudget,
    enumerate_idempotent_products,
    enumerate_products,
    enumerate_tribrackets,
)
from .moves import builtin_move_pairs, check_move_invariance

USAGE_ERROR = 2
MATH_FAILURE = 1


class _CliError(Exception):
    def __init__(self, message: str, code: int = USAGE_ERROR):
        super().__init__(message)
        self.code = code


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror}") from exc


def _load_algebra_file(path: str) -> tuple[Tribracket, PartialProduct | None]:
    try:
        return parse_algebra(_read_file(path))
    except (AlgebraParseError, ShapeError) as exc:
        raise _CliError(f"{path}: {exc}") from exc


def _load_diagram_file(path: str) -> Diagram:
    try:
        return parse_diagram(_read_file(path))
    except DiagramParseError as exc:
        raise _CliError(f"{path}: {exc}") from exc


def _require_product(path: str, product: PartialProduct | None) -> PartialProduct:
    if product is None:
        raise _CliError(f"{path}: the file has no product block")
    return product


def _cmd_verify(args) -> int:
    tribracket, product = _load_algebra_file(args.algebra)
    report = verify_tribracket(tribracket)
    if report.passed and product is not None:
        report = verify_algebra(TribracketAlgebra(tribracket, product))
    print(report.summary())
    return 0 if report.passed else MATH_FAILURE


def _cmd_enumerate_tribrackets(args) -> int:
    budget = None
    if args.max_candidates is not None or args.timeout is not None:
        budget = EnumerationBudget(args.max_candidates, args.timeout)
    result = enumerate_tribrackets(args.n, budget)
    for t in result:
        print(serialize_algebra(t))
    print(f"# {len(result)} tribrackets on {args.n} elements"
          + ("" if result.complete else " (partial: budget exhausted)"))
    return 0


def _cmd_enumerate_products(args) -> int:
    tribracket, _ = _load_algebra_file(args.algebra)
    if not verify_tribracket(tribracket).passed:
        raise _CliError(f"{args.algebra}: tensor fails its axioms", MATH_FAILURE)
    products = (
        enumerate_idempotent_products(tribracket)
        if args.idempotent
        else enumerate_products(tribracket)
    )
    for p in products:
        print(serialize_algebra(tribracket, p))
    kind = "idempotent products" if args.idempotent else "products"
    print(f"# {len(products)} {kind}")
    return 0


def _cmd_count(args) -> int:
    tribracket, product = _load_algebra_file(args.algebra)
    algebra = TribracketAlgebra(tribracket, _require_product(args.algebra, product))
    diagram = _load_diagram_file(args.diagram)
    try:
        count = count_colorings(algebra, diagram)
        if args.oracle:
            reference = count_colorings_bruteforce(algebra, diagram)
            if reference != count:
                print(f"oracle mismatch: solver {count}, brute force {reference}")
                return MATH_FAILURE
        if args.enumerate:
            for coloring in enumerate_colorings(algebra, diagram):
                print(" ".join(f"{r}={coloring[r]}" for r in diagram.regions))
        print(count)
    except (HandlebodyModeError, BruteForceCapError) as exc:
        raise _CliError(str(exc)) from exc
    return 0


def _cmd_check_moves(args) -> int:
    tribracket, product = _load_algebra_file(args.algebra)
    algebra = TribracketAlgebra(tribracket, _require_product(args.algebra, product))
    pairs = builtin_move_pairs()
    if args.moves:
        wanted = args.moves.split(",")
        unknown = [m for m in wanted if m not in {pair.move_id for pair in pairs}]
        if unknown:
            raise _CliError(f"unknown move ids: {', '.join(unknown)}")
        pairs = [pair for pair in pairs if pair.move_id in wanted]
        gated = [pair.move_id for pair in pairs if pair.requires_idempotent]
        if gated and not args.include_ih:
            raise _CliError(f"{', '.join(gated)} needs --include-ih")
    elif not args.include_ih:
        pairs = [pair for pair in pairs if not pair.requires_idempotent]
    failures = 0
    for pair in pairs:
        report = check_move_invariance(algebra, pair)
        print(report.summary())
        if not report.passed:
            failures += 1
    return MATH_FAILURE if failures else 0


_DEMO_COUNTS = (
    ("theta", "z3_full", 9),
    ("handcuff", "z3_full", 3),
    ("theta", "z3_diag", 3),
    ("handcuff", "z3_diag", 3),
    ("hopf_handlebody", "z3_diag", 27),
    ("genus2_link", "z3_diag", 3),
    ("k1", "z3_cyc", 3),
    ("k2", "z3_cyc", 0),
    ("z4_left", "z4_half", 8),
    ("z4_right", "z4_half", 4),
)


def _cmd_demo(_args) -> int:
    diagrams = {d.name: d for d in builtin_diagrams()}
    algebras = {name: load_bundled_algebra(name) for name in
                ("z3_full", "z3_diag", "z3_cyc", "z4_half")}
    rows: list[tuple[str, int, int]] = []

    for name, algebra in algebras.items():
        ok = verify_tribracket(algebra.tribracket).passed and verify_algebra(algebra).passed
        rows.append((f"{name} passes all axioms", 1, int(ok)))

    for dia_name, alg_name, expected in _DEMO_COUNTS:
        got = count_colorings(algebras[alg_name], diagrams[dia_name])
        rows.append((f"{dia_name} colorings ({alg_name})", expected, got))

    products = enumerate_products(algebras["z3_full"].tribracket)
    rows.append(("compatible products of the z3 tensor", 8, len(products)))
    rows.append(
        (
            "idempotent products of the z3 tensor",
            1,
            len(enumerate_idempotent_products(algebras["z3_full"].tribracket)),
        )
    )
    obstructed = sum(
        not case.satisfied for case in verify_k2_obstruction(algebras["z3_cyc"])
    )
    rows.append(("k2 clasp obstruction cases failing", 3, obstructed))

    width = max(len(r[0]) for r in rows)
    failures = 0
    print("bundled reference values")
    print("-" * (width + 26))
    for label, expected, got in rows:
        status = "PASS" if expected == got else "FAIL"
        failures += status == "FAIL"
        print(f"{label:<{width}}  expected {expected:>3}  got {got:>3}  {status}")
    print("-" * (width + 26))
    if failures:
        print(f"{failures} of {len(rows)} checks failed")
        return MATH_FAILURE
    print(f"all {len(rows)} checks passed")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="tribrackets",
        description="Region-coloring counting invariants of trivalent spatial-graph "
        "and handlebody-link diagrams.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("verify", help="check every axiom of an algebra file")
    p.add_argument("algebra")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("enumerate-tribrackets", help="census of tensors on n elements")
    p.add_argument("n", type=int)
    p.add_argument("--max-candidates", type=int, default=None,
                   help="stop after this many complete tensors reach the verifier")
    p.add_argument("--timeout", type=float, default=None,
                   help="stop after this many seconds")
    p.set_defaults(func=_cmd_enumerate_tribrackets)

    p = sub.add_parser("enumerate-products", help="all products compatible with a tensor")
    p.add_argument("algebra")
    p.add_argument("--idempotent", action="store_true")
    p.set_defaults(func=_cmd_enumerate_products)

    p = sub.add_parser("count", help="count the colorings of a diagram")
    p.add_argument("algebra")
    p.add_argument("diagram")
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the brute-force count")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("check-moves", help="run the move-invariance harness")
    p.add_argument("algebra")
    p.add_argument("--moves", default=None, help="comma-separated move ids")
    p.add_argument("--include-ih", action="store_true")
    p.set_defaults(func=_cmd_check_moves)

    p = sub.add_parser("demo", help="reproduce every bundled quantitative result")
    p.set_defaults(func=_cmd_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except (ShapeError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
