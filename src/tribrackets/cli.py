"""Command-line front end.

Verbs: verify, enumerate-tribrackets, enumerate-products, count, check-moves,
demo.  Exit codes: 0 success, 1 mathematical failure (axiom violation, move
failure, oracle mismatch, failed demo row), 2 usage or I/O error.  All output
meant for scripting is byte-stable across runs.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

from .algebra import (
    TribracketAlgebra,
    load_bundled_algebra,
    parse_algebra,
    serialize_algebra,
    verify_algebra,
    verify_tribracket,
)
from .coloring import count_colorings, count_colorings_bruteforce, enumerate_colorings
from .diagram import builtin_diagrams, parse_diagram
from .enumeration import (
    EnumerationBudget,
    UnverifiedTribracketError,
    enumerate_idempotent_products,
    enumerate_products,
    enumerate_tribrackets,
)
from .moves import builtin_move_pairs, check_move_invariance

USAGE_ERROR = 2
MATH_FAILURE = 1

# In-process calls share each parsed algebra file by its text, and with it the keyed
# tables cached on its frozen objects, in at most _CACHE_BYTES by the estimate in
# _parse_shared: an entry is about 24 MB at n = 40, so a bound on entries would not do.
# A keyed table's build keeps nothing past its object, so _CACHE_BYTES bounds everything
# the process keeps per algebra.
_CACHE_BYTES = 64 << 20
_parsed: dict[str, tuple[tuple, int]] = {}  # text -> (pair, estimated bytes), oldest use first
_held = 0  # the estimated bytes in _parsed


class _CliError(ValueError):
    def __init__(self, message: str, code: int = USAGE_ERROR):
        super().__init__(message)
        self.code = code


def _load(path: str, parse):
    """``parse`` of the text of the file at ``path``; a refusal names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # a parse error, or text that is not UTF-8
        raise _CliError(f"{path}: {exc}") from exc


def _parse_shared(text: str) -> tuple:
    """``parse_algebra(text)``, shared by the calls that read the same text; a refused
    text is not kept, nor one whose entry alone is over the budget."""
    global _held
    entry = _parsed.pop(text, None)
    if entry is None:
        pair = parse_algebra(text)
        # 8 bytes a cell of both keyed tables and every level of both nested tables, 40 a
        # header of their n^2 + 2n + 4 tuples, and as this interpreter sizes them the text,
        # the pair, both objects, their dicts, this entry and a one-entry dict's table
        n = pair[0].n
        cells, tuples = (n + 1) ** 4 + (n + 1) ** 3 + n**3 + 2 * n * n + 2 * n, n * n + 2 * n + 4
        size = 8 * cells + 40 * tuples + sys.getsizeof({text: pair}) - sys.getsizeof({})
        size += sum(map(sys.getsizeof, (text, pair, *pair, *map(vars, filter(None, pair)))))
        entry = pair, size + sys.getsizeof((pair, size)) + sys.getsizeof(size)
        if entry[1] > _CACHE_BYTES:
            return pair
        _held += entry[1]
        while _held > _CACHE_BYTES:  # evict the least recently used first
            _held -= _parsed.pop(next(iter(_parsed)))[1]
    _parsed[text] = entry
    return entry[0]


def _load_algebra(path: str) -> TribracketAlgebra:
    """The algebra of the file at ``path``, which must have a product block."""
    tribracket, product = _load(path, _parse_shared)
    if product is None:
        raise _CliError(f"{path}: the file has no product block")
    return TribracketAlgebra(tribracket, product)


def _cmd_verify(args) -> int:
    tribracket, product = _load(args.algebra, _parse_shared)
    report = verify_tribracket(tribracket)
    if report.passed and product is not None:
        report = verify_algebra(TribracketAlgebra(tribracket, product))
    print(report.summary())
    return 0 if report.passed else MATH_FAILURE


def _cmd_enumerate_tribrackets(args) -> int:
    result = enumerate_tribrackets(args.n, EnumerationBudget(args.max_candidates, args.timeout))
    for t in result:
        print(serialize_algebra(t))
    print(f"# {len(result)} tribrackets on {args.n} elements"
          + ("" if result.complete else " (partial: budget exhausted)"))
    return 0


def _cmd_enumerate_products(args) -> int:
    tribracket, _ = _load(args.algebra, _parse_shared)
    search = enumerate_idempotent_products if args.idempotent else enumerate_products
    try:
        products = search(tribracket)
    except UnverifiedTribracketError:
        raise _CliError(f"{args.algebra}: tensor fails its axioms", MATH_FAILURE) from None
    for p in products:
        print(serialize_algebra(tribracket, p))
    kind = "idempotent products" if args.idempotent else "products"
    print(f"# {len(products)} {kind}")
    return 0


def _cmd_count(args) -> int:
    algebra = _load_algebra(args.algebra)
    diagram = _load(args.diagram, parse_diagram)
    # the oracle runs first, so that a space over its cap is refused at once
    reference = count_colorings_bruteforce(algebra, diagram) if args.oracle else None
    # a listing's length is the count, so --enumerate runs one search, not two
    listing = enumerate_colorings(algebra, diagram) if args.enumerate else []
    count = len(listing) if args.enumerate else count_colorings(algebra, diagram)
    if args.oracle and reference != count:
        print(f"oracle mismatch: solver {count}, brute force {reference}")
        return MATH_FAILURE
    for coloring in listing:
        print(" ".join(f"{r}={coloring[r]}" for r in diagram.regions))
    print(count)
    return 0


def _cmd_check_moves(args) -> int:
    algebra = _load_algebra(args.algebra)
    pairs = builtin_move_pairs()
    if args.moves is not None:
        wanted = args.moves.split(",")
        unknown = [m for m in wanted if m not in {pair.move_id for pair in pairs}]
        if unknown:
            raise _CliError(f"unknown move ids: {', '.join(m or repr(m) for m in unknown)}")
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
    # each defined cell a*b = c fixes one candidate coloring of k2, kept when
    # its clasp [a, [a, c, b], b] returns to a
    cyc = algebras["z3_cyc"]
    cells = sum(c is not None for row in cyc.product.table for c in row)
    failing = cells - count_colorings(cyc, diagrams["k2"])
    rows.append(("k2 clasp obstruction cases failing", 3, failing))

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
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:  # stdout closed: quiet the interpreter's flush at exit too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return USAGE_ERROR
    except ValueError as exc:  # refused input: _CliError, ShapeError, HandlebodyModeError, ...
        print(str(exc), file=sys.stderr)
        return exc.code if isinstance(exc, _CliError) else USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
