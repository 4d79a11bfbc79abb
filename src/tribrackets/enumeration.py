"""Exhaustive search for small tribrackets and compatible partial products.

Both enumerators run one backtracking search over a flat table: it branches
on the first undecided cell in lexicographic order and tries candidate values
in ascending order, so output arrives sorted by flattened table (undefined
cells sorting before 1).  Every axiom witness is tested, directly or through
an implication, so every complete table reaching the verifier passes it, and
everything returned has passed it.  The tensor search tests each witness as
soon as the cells it reads are decided; the product search tests only the
generating set r4-compat, r5-compat-1/2 (see enumerate_products).

The tensor search also decides cells ahead of the branching cell, and undoes
them on backtrack.  Two rules do this:

* Latin rule: when a line of the tensor (a, b or c varying) has one
  undecided cell left, that cell takes the one value the line is missing.
* Coherence rule: for a witness (a, b, c, d) with u = [a,b,c] and
  x = [b,c,d] decided, if one side of coherence-1 ([a,b,x] = [a,u,[u,c,d]])
  or of coherence-2 ([u,c,d] = [[a,b,x],x,d]) is decided and the other is
  not, the undecided cell takes the decided value.

A forced value is the only one any completion can take, so forcing keeps the
output order, and a forced value that breaks a line or a witness cuts the
branch at once.  The 168 tribrackets of order 4 take about 0.1 s and all
480 of order 5 about 5 s on one Intel Xeon core; order 6 wants a budget.
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
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
    not the partial tables visited; ``timeout`` is checked before every value
    the search tries.  Anything but a positive int cap (not a bool) and a
    positive finite real timeout raises ValueError.
    """

    max_candidates: Optional[int] = None
    timeout: Optional[float] = None

    def __post_init__(self):
        cap, timeout = self.max_candidates, self.timeout
        if cap is not None and (type(cap) is bool or not isinstance(cap, int) or cap < 1):
            raise ValueError(f"max_candidates must be positive and an int, got {cap!r}")
        if timeout is not None and (
            type(timeout) is bool or not isinstance(timeout, numbers.Real)
            or not math.isfinite(timeout) or timeout <= 0
        ):
            raise ValueError(f"timeout must be positive and finite, got {timeout!r}")


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
    consistent: Callable[[list, int, list], bool],
    leaf: Callable[[list], None],
    budget: Optional[EnumerationBudget],
) -> bool:
    """Depth-first search over a flat table, cell 0 first.

    ``candidates[i]`` lists the values cell i may take, in output order.
    ``consistent(table, i, trail)`` is asked after cell i is set, with every
    earlier cell decided.  It may decide later cells as well: it appends each
    such cell to ``trail``, and may also append a list it has just appended
    to.  Before the next value of cell i is tried, and when cell i is given
    up, the search undoes the trail back to where it stood: it makes each
    trailed cell _UNDECIDED again and pops each trailed list.  Descent skips
    the cells already decided.  ``leaf`` sees each complete table that
    passes.  Returns False when the budget stopped the search.
    """
    budget = budget or EnumerationBudget()
    deadline = None if budget.timeout is None else time.monotonic() + budget.timeout
    left = budget.max_candidates or math.inf  # complete tables leaf may still see
    size = len(candidates)
    table = [_UNDECIDED] * size
    trail: list = []
    frames = [(0, iter(candidates[0]), 0)]  # (cell, values left, trail length)

    def undo(mark: int) -> None:
        while len(trail) > mark:
            entry = trail.pop()
            if type(entry) is int:
                table[entry] = _UNDECIDED
            else:
                entry.pop()

    while frames:
        i, values, mark = frames[-1]
        for v in values:
            if deadline is not None and time.monotonic() > deadline:
                return False
            if len(trail) > mark:
                undo(mark)
            table[i] = v
            if consistent(table, i, trail):
                break
        else:
            undo(mark)
            table[i] = _UNDECIDED
            frames.pop()
            continue
        j = i + 1
        while j < size and table[j] != _UNDECIDED:
            j += 1
        if j < size:
            frames.append((j, iter(candidates[j]), len(trail)))
        elif left:
            left -= 1
            leaf(table)
        else:
            return False
    return True


@functools.cache
def _lines(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """For each cell of a flat n^3 tensor, the other cells of each of its lines."""
    strides = (1, n, n * n)
    return tuple(
        tuple(
            tuple(i + (j - (i // s) % n) * s for j in range(n) if j != (i // s) % n)
            for s in strides
        )
        for i in range(n**3)
    )


def enumerate_tribrackets(
    n: int, budget: Optional[EnumerationBudget] = None
) -> EnumerationResult:
    """All n-element tribrackets, in lexicographic tensor order.

    The pruning is a compiled form of the algebra module's axiom table
    entries for a tensor on partial tables, with forcing: each cell must
    differ from the other decided cells on its three lines, and the last
    undecided cell of a line takes the missing value (slot-a/b/c-bijection);
    each witness (a, b, c, d) of coherence-1 and coherence-2 is tested once
    both sides are decided, and when one side is decided and the other is
    not, the other takes its value.  Complete for n <= 5 in seconds; n = 6
    wants a budget.
    """
    _check_size(n)
    nn = n * n
    lines = _lines(n)
    line_sum = n * (n - 1) // 2
    # A witness is stored as its cells [a,b,c] and [b,c,d], the offsets of
    # matrix a and of row [a,b], the offset c*n + d of [u,c,d] within matrix
    # u, and d.  It waits in the watch list of an undecided cell it needs,
    # and is looked at again once that cell is decided.
    watch: list[list[tuple[int, ...]]] = [[] for _ in range(n * nn)]
    for a, b, c, d in itertools.product(range(n), repeat=4):
        abc, bcd = a * nn + b * n + c, b * nn + c * n + d
        watch[max(abc, bcd)].append((abc, bcd, a * nn, a * nn + b * n, c * n + d, d))

    def consistent(T: list, i: int, trail: list) -> bool:
        queue = [i]  # decided cells whose lines and witnesses are still to see

        def force(cell: int, value: int) -> None:
            T[cell] = value
            trail.append(cell)
            queue.append(cell)

        for k in queue:
            v = T[k]
            for line in lines[k]:
                # the line's one undecided cell (-1: none, -2: several), and
                # the value it lacks if the decided cells are distinct
                hole, rest = -1, line_sum - v
                for j in line:
                    other = T[j]
                    if other < 0:
                        hole = j if hole == -1 else -2
                    elif other == v:
                        return False
                    else:
                        rest -= other
                if hole >= 0:
                    if not 0 <= rest < n:  # two decided cells repeat a value
                        return False
                    force(hole, rest)
            for w in watch[k]:
                abc, bcd, am, ab, cd, d = w
                while True:
                    u, x = T[abc], T[bcd]
                    if u < 0 or x < 0:
                        block = abc if u < 0 else bcd
                        break
                    ax, ud = ab + x, u * nn + cd  # cells [a,b,x] and [u,c,d]
                    abx, ucd = T[ax], T[ud]
                    if ucd >= 0:  # coherence-1: [a,b,x] = [a,u,[u,c,d]]
                        r1 = am + u * n + ucd
                        if abx < 0:
                            if T[r1] < 0:
                                block = ax
                                break
                            force(ax, T[r1])
                            continue
                        if T[r1] < 0:
                            force(r1, abx)
                        elif T[r1] != abx:
                            return False
                    elif abx < 0:
                        block = ax
                        break
                    r2 = abx * nn + x * n + d  # coherence-2: [u,c,d] = [[a,b,x],x,d]
                    if ucd < 0:
                        if T[r2] < 0:
                            block = ud
                            break
                        force(ud, T[r2])
                        continue
                    if T[r2] < 0:
                        force(r2, ucd)
                    elif T[r2] != ucd:
                        return False
                    block = -1  # both laws hold for good
                    break
                if block >= 0:
                    watch[block].append(w)
                    trail.append(watch[block])
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


class UnverifiedTribracketError(ValueError):
    """A product search was asked for on a tensor failing its axioms."""


def _require_tribracket(t: Tribracket) -> None:
    if not verify_tribracket(t).passed:
        raise UnverifiedTribracketError("tribracket must pass its axioms before product search")


def enumerate_products(t: Tribracket) -> list[PartialProduct]:
    """Every partial product compatible with t, empty table included.

    Cells are tried undefined-first then in ascending value order.  The
    pruning is a compiled form of the generating set of the product axioms:
    r4-compat, on each defined cell alone, and r5-compat-1/2, once both
    cells they read are decided.  On a tribracket it implies the other
    product axioms, as follows (m is a defined product, bij-a/c bijectivity
    in slot a or c), so every table reaching the verifier passes it.

    * Cancellation.  If a*b = a*b' = m, r4 gives [a,m,b] = m = [a,m,b'],
      and bij-c gives b = b'.  The right-hand case is the same with bij-a.
    * r5-compat-3.  Let m = b*c and u = [a,b,m].  By r4, [b,m,c] = m, so
      coherence-1 at (a,b,m,c) gives [a,u,[u,m,c]] = u.  By r5-compat-1,
      a*[a,b,c] = u, so r4 gives [a,u,[a,b,c]] = u.  Then bij-c gives
      [u,m,c] = [a,b,c].
    * r5-compat-4.  Let m = a*b and w = [m,b,c].  By r4, [a,m,b] = m, so
      coherence-2 at (a,m,b,c) gives [[a,m,w],w,c] = w.  By r5-compat-2,
      [a,b,c]*c = w, so r4 gives [[a,b,c],w,c] = w.  Then bij-a gives
      [a,m,w] = [a,b,c].
    """
    _require_tribracket(t)
    n = t.n
    nn = n * n
    undefined = n  # decided, but undefined; distinct from _UNDECIDED

    def br(a: int, b: int, c: int) -> int:
        return t.table[a][b][c] - 1

    candidates = [
        [undefined] + [v for v in range(n) if br(x, v, y) == v]
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

    def consistent(P: list, i: int, trail: list) -> bool:
        for p, q, image in due[i]:
            if P[p] != image[P[q]]:
                return False
        return True

    out: list[PartialProduct] = []

    def leaf(P: list) -> None:
        rows = (P[r : r + n] for r in range(0, nn, n))
        table = tuple(tuple(None if v == undefined else v + 1 for v in r) for r in rows)
        p = PartialProduct(n, table)
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
