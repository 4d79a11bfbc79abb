#!/usr/bin/env python3
"""Census experiments at small order.

Counts the tribrackets on n elements for n <= 4 (the whole run takes about a
second), then the compatible partial products of each, split by idempotency.
With --large it also attempts n = 5, which finds all 480 tribrackets in about
5 seconds, under the --timeout budget.
Useful for spotting how fast the product lattice thins out as tensors get
less symmetric.
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tribrackets import (
    EnumerationBudget,
    enumerate_idempotent_products,
    enumerate_products,
    enumerate_tribrackets,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--large", action="store_true", help="also attempt n = 5 under the budget")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="budget for the n = 5 tensor census in seconds")
    args = parser.parse_args()

    sizes = [1, 2, 3, 4] + ([5] if args.large else [])
    for n in sizes:
        budget = EnumerationBudget(timeout=args.timeout) if n >= 5 else None
        result = enumerate_tribrackets(n, budget)
        suffix = "" if result.complete else " (partial, budget hit)"
        print(f"n={n}: {len(result)} tribrackets{suffix}")
        for i, t in enumerate(result):
            products = enumerate_products(t)
            idem = enumerate_idempotent_products(t)
            print(f"  tensor {i}: {len(products)} products, {len(idem)} idempotent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
