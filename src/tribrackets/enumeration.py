"""Exhaustive search for small tribrackets and compatible partial products.

Both enumerators run one backtracking search over a flat table: cells are
filled in lexicographic order and candidate values ascend, so output arrives
sorted by flattened table (undefined cells sorting before 1).  Every axiom
witness is tested as soon as all the cells it reads are decided, so a branch
is cut at the first cell that makes some witness fail, and every complete
table that reaches the verifier passes.  Everything returned has passed its
verifier.

With this pruning the 168 tribrackets of order 4 take well under a second.
Order 5 (480 tribrackets) takes about 17 minutes on one Intel Xeon core,
so call it with a budget.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .algebra import (
    PartialProduct,
    Tribracket,
    TribracketAlgebra,
    _check_size,
    verify_algebra,
    verify_tribracket,
)


@dataclass(frozen=True)
class EnumerationBudget:
    """Caps for a search: complete tables verified and wall-clock seconds.

    ``max_candidates`` counts the complete tables handed to the verifier,
    not the partial tables visited; ``timeout`` is checked at every node.
    """

    max_candidates: Optional[int] = None
    timeout: Optional[float] = None

    def __post_init__(self):
        if self.max_candidates is not None and self.max_candidates < 1:
            raise ValueError("max_candidates must be positive")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")


@dataclass
class EnumerationResult:
    """Search output plus a flag telling whether the search ran to completion."""

    items: list
    complete: bool

    def __iter__(self) -> Iterator:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, i):
        return self.items[i]


_UNDECIDED = -1


def _search(
    candidates: Sequence[Sequence[int]],
    consistent: Callable[[list, int], bool],
    leaf: Callable[[list], None],
    budget: Optional[EnumerationBudget],
) -> bool:
    """Depth-first search over a flat table, cell 0 first.

    ``candidates[i]`` lists the values cell i may take, in output order.
    ``consistent(table, i)`` is asked after cell i is set, with every earlier
    cell decided and every later one _UNDECIDED.  ``leaf`` sees each complete
    table that passes.  Returns False when the budget stopped the search.
    """
    budget = budget or EnumerationBudget()
    deadline = None if budget.timeout is None else time.monotonic() + budget.timeout
    left = budget.max_candidates or math.inf  # complete tables leaf may still see
    size = len(candidates)
    table = [_UNDECIDED] * size
    todo = [iter(candidates[0])]
    while todo:
        if deadline is not None and time.monotonic() > deadline:
            return False
        i = len(todo) - 1
        for v in todo[i]:
            table[i] = v
            if consistent(table, i):
                break
        else:
            table[i] = _UNDECIDED
            todo.pop()
            continue
        if i + 1 < size:
            todo.append(iter(candidates[i + 1]))
        elif left:
            left -= 1
            leaf(table)
        else:
            return False
    return True


def _lines_before(n: int, dims: int) -> list[tuple[int, ...]]:
    """For each cell of a flat n^dims table, the earlier cells sharing a line."""
    strides = [n**k for k in range(dims)]
    return [
        tuple(i - j * s for s in strides for j in range(1, (i // s) % n + 1))
        for i in range(n**dims)
    ]


def enumerate_tribrackets(
    n: int, budget: Optional[EnumerationBudget] = None
) -> EnumerationResult:
    """All n-element tribrackets, in lexicographic tensor order.

    The pruning is a compiled form of the algebra module's axiom table
    entries for a tensor on partial tables: each cell must differ from the
    earlier cells on its three lines (slot-a/b/c-bijection), and each witness
    (a, b, c, d) of coherence-1 and coherence-2 is tested once every cell
    its two sides read is filled.  Complete for n <= 4 in well under a
    second; n = 5 takes minutes and wants a budget.
    """
    _check_size(n)
    nn = n * n
    before = _lines_before(n, 3)
    # A witness joins the search once its static cells [a,b,c] and [b,c,d]
    # are filled; the cells it reads after that depend on their values.  It
    # is stored as those two cells, the offsets of matrix a and of row
    # [a,b], the offset c*n + d of [x,c,d] within matrix x, and d.  It stays
    # pending while any cell it reads is still undecided (negative).
    enter: list[list[tuple[int, ...]]] = [[] for _ in range(n * nn)]
    for a, b, c, d in itertools.product(range(n), repeat=4):
        abc, bcd = a * nn + b * n + c, b * nn + c * n + d
        enter[max(abc, bcd)].append((abc, bcd, a * nn, a * nn + b * n, c * n + d, d))
    pending: list[list[tuple[int, ...]]] = [[] for _ in range(n * nn + 1)]

    def consistent(T: list, i: int) -> bool:
        v = T[i]
        for j in before[i]:
            if T[j] == v:
                return False
        still = []
        for w in itertools.chain(pending[i], enter[i]):
            abc, bcd, am, ab, cd, d = w
            u, x = T[abc], T[bcd]
            ucd, abx = T[u * nn + cd], T[ab + x]  # [u,c,d] and [a,b,[b,c,d]]
            if ucd < 0 or abx < 0:
                still.append(w)
                continue
            rhs1 = T[am + u * n + ucd]  # coherence-1: [a,b,x] = [a,u,[u,c,d]]
            rhs2 = T[abx * nn + x * n + d]  # coherence-2: [u,c,d] = [[a,b,x],x,d]
            if (rhs1 >= 0 and rhs1 != abx) or (rhs2 >= 0 and rhs2 != ucd):
                return False
            if rhs1 < 0 or rhs2 < 0:
                still.append(w)
        pending[i + 1] = still
        return True

    out: list[Tribracket] = []

    def leaf(T: list) -> None:
        t = Tribracket(
            n,
            tuple(
                tuple(tuple(T[m + r + c] + 1 for c in range(n)) for r in range(0, nn, n))
                for m in range(0, n * nn, nn)
            ),
        )
        if verify_tribracket(t).passed:
            out.append(t)

    cells = [range(n)] * (n * nn)
    complete = _search(cells, consistent, leaf, budget)
    return EnumerationResult(out, complete)


def _require_tribracket(t: Tribracket) -> None:
    if not verify_tribracket(t).passed:
        raise ValueError("tribracket must pass its axioms before product search")


def enumerate_products(t: Tribracket) -> list[PartialProduct]:
    """Every partial product compatible with t, empty table included.

    Cells are tried undefined-first then in ascending value order.  The
    pruning is a compiled form of the axiom table's product entries on
    partial tables: a defined cell must pass r4-compat, r5-compat-3 and
    r5-compat-4 (which read that cell alone) and differ from the earlier
    defined cells on its row and column (left- and right-cancellation);
    r5-compat-1/2 are tested once both cells they read are decided.
    """
    _require_tribracket(t)
    n = t.n
    nn = n * n
    undefined = n  # decided, but undefined; distinct from _UNDECIDED

    def br(a: int, b: int, c: int) -> int:
        return t.table[a][b][c] - 1

    candidates = [
        [undefined]
        + [
            v
            for v in range(n)
            if br(x, v, y) == v
            and all(br(br(a, x, v), v, y) == br(a, x, y) for a in range(n))
            and all(br(x, v, br(v, y, c)) == br(x, y, c) for c in range(n))
        ]
        for x in range(n)
        for y in range(n)
    ]
    # (p, q, image): cell p must hold image[value of cell q], tested at the
    # later of the two cells; image maps undefined to undefined
    due: list[set[tuple]] = [set() for _ in range(nn)]
    for a, b, c in itertools.product(range(n), repeat=3):
        u = br(a, b, c)
        for p, q, image in (
            (a * n + u, b * n + c, [br(a, b, v) for v in range(n)]),  # r5-compat-1
            (u * n + c, a * n + b, [br(v, b, c) for v in range(n)]),  # r5-compat-2
        ):
            due[max(p, q)].add((p, q, tuple(image) + (undefined,)))
    before = _lines_before(n, 2)

    def consistent(P: list, i: int) -> bool:
        v = P[i]
        if v != undefined:
            for j in before[i]:
                if P[j] == v:
                    return False
        for p, q, image in due[i]:
            if P[p] != image[P[q]]:
                return False
        return True

    out: list[PartialProduct] = []

    def leaf(P: list) -> None:
        p = PartialProduct(
            n,
            tuple(
                tuple(None if v == undefined else v + 1 for v in P[r : r + n])
                for r in range(0, nn, n)
            ),
        )
        if verify_algebra(TribracketAlgebra(t, p)).passed:
            out.append(p)

    _search(candidates, consistent, leaf, None)
    return out


def enumerate_idempotent_products(t: Tribracket) -> list[PartialProduct]:
    """The compatible products defined exactly on the diagonal with aa = a.

    Only one table has that shape, so this is the diagonal product when it
    is compatible with t and nothing otherwise.
    """
    _require_tribracket(t)
    p = PartialProduct.diagonal(t.n)
    return [p] if verify_algebra(TribracketAlgebra(t, p)).passed else []
