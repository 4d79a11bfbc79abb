"""Exhaustive search for small tribrackets and compatible partial products.

Both censuses return tables sorted by flattened table (undefined product
cells sorting before 1), and everything returned has passed its verifier.
The product census tries each first row and derives the other rows from it
(see enumerate_products).  The tensor census runs a backtracking search over
a flat table: it branches on the first undecided cell in lexicographic order,
tries values in ascending order, and tests each axiom witness as soon as the
cells it reads are decided, so every complete table reaching the verifier
passes it.

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

import itertools
import math
import numbers
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from .algebra import (
    _AXIOM_BY_NAME,
    PartialProduct,
    Tribracket,
    TribracketAlgebra,
    _check_size,
    _padded,
    verify_algebra,
    verify_tribracket,
)


@dataclass(frozen=True)
class EnumerationBudget:
    """Caps for a search: complete tables verified and wall-clock seconds.

    ``max_candidates`` counts the complete tables handed to the verifier,
    not the partial tables visited; ``timeout`` is checked between the
    matrices of the set-up and before every value the search tries.
    Anything but a positive int cap (not a bool) and a positive finite real
    timeout raises ValueError.
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


def enumerate_tribrackets(
    n: int, budget: Optional[EnumerationBudget] = None
) -> EnumerationResult:
    """All n-element tribrackets, in lexicographic tensor order.

    The search and its forcing rules are described in the module docstring;
    every complete table it reaches is handed to verify_tribracket.  Complete
    for n <= 5 in seconds; n = 6 wants a budget.
    """
    _check_size(n)
    budget = budget or EnumerationBudget()
    deadline = None if budget.timeout is None else time.monotonic() + budget.timeout
    left = budget.max_candidates or math.inf  # complete tables the verifier may still see
    nn, size = n * n, n**3
    line_sum = n * (n - 1) // 2
    # lines[i] holds the other cells of each of the three lines through cell i.
    # A witness (a, b, c, d) is stored as its cells [a,b,c] and [b,c,d], the
    # offsets of matrix a and of row [a,b], the offset c*n + d of [u,c,d]
    # within matrix u, and d.  It waits in the watch list of an undecided
    # cell it needs, and is looked at again once that cell is decided.
    lines: list[tuple[tuple[int, ...], ...]] = []
    watch: list[list[tuple[int, ...]]] = [[] for _ in range(size)]
    for a in range(n):
        if deadline is not None and time.monotonic() > deadline:
            return EnumerationResult([], False)
        for i in range(a * nn, a * nn + nn):
            lines.append(tuple(
                tuple(i + (j - (i // s) % n) * s for j in range(n) if j != (i // s) % n)
                for s in (1, n, nn)
            ))
        for b, c, d in itertools.product(range(n), repeat=3):
            abc, bcd = a * nn + b * n + c, b * nn + c * n + d
            watch[max(abc, bcd)].append((abc, bcd, a * nn, a * nn + b * n, c * n + d, d))

    T = [_UNDECIDED] * size
    trail: list = []  # cells forced and watch lists appended to, to undo

    def undo(mark: int) -> None:
        while len(trail) > mark:
            entry = trail.pop()
            if type(entry) is int:
                T[entry] = _UNDECIDED
            else:
                entry.pop()

    def consistent(i: int) -> bool:
        """Whether cell i, just set, breaks no line or witness; forces cells."""
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
    frames = [(0, iter(range(n)), 0)]  # (cell, values left, trail length)
    while frames:
        i, values, mark = frames[-1]
        for v in values:
            if deadline is not None and time.monotonic() > deadline:
                return EnumerationResult(out, False)
            if len(trail) > mark:
                undo(mark)
            T[i] = v
            if consistent(i):
                break
        else:
            undo(mark)
            T[i] = _UNDECIDED
            frames.pop()
            continue
        j = i + 1
        while j < size and T[j] != _UNDECIDED:
            j += 1
        if j < size:  # descend, skipping the cells already forced
            frames.append((j, iter(range(n)), len(trail)))
        elif not left:
            return EnumerationResult(out, False)
        else:
            left -= 1
            t = Tribracket(n, tuple(
                tuple(tuple(T[m + r + c] + 1 for c in range(n)) for r in range(0, nn, n))
                for m in range(0, size, nn)
            ))
            if verify_tribracket(t).passed:
                out.append(t)
    return EnumerationResult(out, True)


class UnverifiedTribracketError(ValueError):
    """A product search was asked for on a tensor failing its axioms."""


def _require_tribracket(t: Tribracket) -> None:
    if not verify_tribracket(t).passed:
        raise UnverifiedTribracketError("tribracket must pass its axioms before product search")


def enumerate_products(t: Tribracket) -> list[PartialProduct]:
    """Every partial product compatible with t, empty table included.

    r5-compat-1 at b = 1 reads a*[a,1,c] = [a,1,1*c], and c -> [a,1,c] is a
    bijection, so a compatible product is fixed by its first row.  The search
    tries each first row (cells undefined first, then ascending), derives rows
    2..n, and keeps a table when the axiom table's r5-compat-1/2 find no
    failure; distinct first rows keep the output sorted by flattened table.
    A value v of 1*c is tried only when r4-compat holds at each cell it fixes,
    [a, [a,1,v], [a,1,c]] = [a,1,v] for every a.  A compatible product passes
    there, so none is lost; a kept table passes r4-compat at every cell, as
    row 1 is its own derivation by r5-compat-1 at a = b = 1.  On a tribracket
    these imply the other product axioms, as follows (m is a defined product,
    bij-a/c bijectivity in slot a or c), so every kept table passes the
    verifier.

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
    T, _ = _padded(t, None)
    full = range(1, n + 1)
    laws = [_AXIOM_BY_NAME[name].failures for name in ("r5-compat-1", "r5-compat-2")]
    firsts = [
        [None] + [v for v in full if all(T[a][T[a][1][v]][T[a][1][c]] == T[a][1][v] for a in full)]
        for c in full
    ]
    out: list[PartialProduct] = []
    for first in itertools.product(*firsts):
        P = [None, (None, *first)]  # padded 1-based, as the axiom table reads it
        for a in range(2, n + 1):
            row_a1, row = T[a][1], [None] * (n + 1)
            for c, v in zip(full, first):
                row[row_a1[c]] = None if v is None else row_a1[v]
            P.append(row)
        if any(next(law(T, P, full, full, full), None) for law in laws):
            continue
        p = PartialProduct(n, tuple(tuple(row[1:]) for row in P[1:]))
        if verify_algebra(TribracketAlgebra(t, p)).passed:
            out.append(p)
    return out


def enumerate_idempotent_products(t: Tribracket) -> list[PartialProduct]:
    """The compatible products defined exactly on the diagonal with aa = a.

    Only one table has that shape, so this is the diagonal product when it
    is compatible with t and nothing otherwise.
    """
    _require_tribracket(t)
    p = PartialProduct.diagonal(t.n)
    return [p] if verify_algebra(TribracketAlgebra(t, p)).passed else []
