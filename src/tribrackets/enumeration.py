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
them on backtrack.  Beside the table it keeps, for each line of the tensor
(a, b or c varying), the coordinate at which the line holds each value and
the line's count of undecided cells; one function decides a cell and updates
both, and the undo restores them.  Two rules force cells:

* Latin rule: a value already in one of a cell's lines is refused by three
  lookups, and when a line's count reaches 1 its last cell takes the one
  value the line is missing.
* Coherence rule: for a witness (a, b, c, d) with u = [a,b,c] and
  x = [b,c,d] decided, if one side of coherence-1 ([a,b,x] = [a,u,[u,c,d]])
  or of coherence-2 ([u,c,d] = [[a,b,x],x,d]) is decided and the other is
  not, the undecided cell takes the decided value.  Each law also forces
  backwards: a decided [a,b,x] fixes an undecided [u,c,d] as the column
  where row [a,u] holds [a,b,x] (coherence-1), and a decided [u,c,d] fixes
  an undecided [a,b,x] as the matrix whose cell [.,x,d] holds [u,c,d]
  (coherence-2).

A forced value is the only one any completion can take, so forcing keeps the
output order, and a forced value that breaks a line or a witness cuts the
branch at once.

The search is broken by symmetry at the first row [1,1,.], a permutation r of
the carrier.  A relabelling s with s(1) = 1 maps the tribrackets with first
row r one-to-one onto those with first row s r s^-1, so a row's class is its
cycle type with 1's cycle length marked (see _row_class).  The first row of
each class that the search completes is searched; its tables are one run of
the output.  A later row of a known class is not descended into: its tables
are that run's images under the s that lines up the two rows' cycles, sorted,
and each is handed on as a leaf is.  The output and its order are those of
the plain search.  The 168 tribrackets of order 4 take about 0.02 s (1,024
values tried, 102 tables relabelled) and all 480 of order 5 about 0.2 s
(50,060 values tried, 420 relabelled) on one Intel Xeon core; the 70,560 of
order 6 take 100-120 s.
"""
from __future__ import annotations

import itertools
import math
import numbers
import operator
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator, Optional

from .algebra import (
    _AXIOM_BY_NAME,
    PartialProduct,
    ShapeError,
    Tribracket,
    TribracketAlgebra,
    _check_size,
    _padded,
    _product_axioms_hold,
    _require,
    verify_algebra,
    verify_tribracket,
)


@dataclass(frozen=True)
class EnumerationBudget:
    """Caps for a search: complete tables verified and wall-clock seconds.

    ``max_candidates`` counts the complete tables handed to the verifier,
    searched or relabelled, not the partial tables visited; ``timeout`` is
    checked before each cell of the set-up, before every value the search
    tries and before each relabelled table.
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

    The search, its forcing rules and its relabelled first rows are described
    in the module docstring; every complete table it reaches or relabels is
    handed to verify_tribracket.  Complete for n <= 5 in under a second and for
    n = 6 in 100-120 s.  An n with n^4 > sys.maxsize
    (n > 55,108 on 64-bit Python), or a budget that is not None or an
    EnumerationBudget, is refused with ShapeError.
    """
    _check_size(n)
    if n**4 > sys.maxsize:  # no list could index the n^4 witnesses
        raise ShapeError(f"carrier size {n} is too large for a census: n^4 exceeds {sys.maxsize}")
    budget = EnumerationBudget() if budget is None else budget
    _require(budget, EnumerationBudget, "budget")
    deadline = None if budget.timeout is None else time.monotonic() + budget.timeout
    left = budget.max_candidates or math.inf  # complete tables the verifier may still see
    nn, size = n * n, n**3
    # slots[k] holds the lines through cell k = [a,b,c] and its coordinates, (r, c, s, b, t, a),
    # with r = a*nn + b*n (the row), s = size + a*nn + c*n and t = 2*size + b*nn + c*n.
    # A witness (a, b, c, d) is stored as its cells [a,b,c] and [b,c,d], the offsets of
    # matrix a and of row [a,b], the offset c*n + d of [u,c,d] within matrix u, d and d*n.
    # It waits in the watch list of an undecided cell it needs, and is looked at again once
    # that cell is decided.
    slots: list[tuple[int, ...]] = []
    watch: dict[int, list] = defaultdict(list)  # a cell's list made on its first witness
    dns = [d * n for d in range(n)]  # one d*n object for all the witnesses of each d
    for a, b, c in itertools.product(range(n), repeat=3):  # cell [a,b,c] is ab + c
        if deadline is not None and time.monotonic() > deadline:
            return EnumerationResult([], False)
        am, ab, bc = a * nn, a * nn + b * n, b * nn + c * n
        slots.append((ab, c, size + am + c * n, b, 2 * size + bc, a))
        for d, dn in enumerate(dns):
            abc, bcd = ab + c, bc + d
            watch[max(abc, bcd)].append((abc, bcd, am, ab, c * n + d, d, dn))
    T = [_UNDECIDED] * size
    # where[line + v] is the coordinate at which a line holds v, and free[line] its undecided cells
    where, free = [_UNDECIDED] * (3 * size), [n] * (3 * size)
    trail, lists = [], []  # cells decided and watch lists appended to, each undone on its own
    queue: list[int] = []  # cells decided whose lines and witnesses are still to see

    def put(k: int, v: int) -> bool:
        """Decide cell k as v unless one of its lines holds v already."""
        r, c, s, b, t, a = slots[k]
        if where[r + v] >= 0 or where[s + v] >= 0 or where[t + v] >= 0:
            return False
        T[k] = v
        where[r + v], where[s + v], where[t + v] = c, b, a
        free[r], free[s], free[t] = free[r] - 1, free[s] - 1, free[t] - 1
        trail.append(k)
        queue.append(k)
        return True

    def undo(cells: int, appended: int) -> None:
        for k in trail[cells:]:
            r, _, s, _, t, _ = slots[k]
            v, T[k] = T[k], _UNDECIDED
            where[r + v] = where[s + v] = where[t + v] = _UNDECIDED
            free[r], free[s], free[t] = free[r] + 1, free[s] + 1, free[t] + 1
        for appended_to in lists[appended:]:
            appended_to.pop()
        del trail[cells:], lists[appended:]

    def fill(line: int, start: int, step: int) -> bool:
        """Decide the last undecided cell of a line as the value it misses."""
        hole = start + step * T[start:start + n * step:step].index(_UNDECIDED)
        return put(hole, where.index(_UNDECIDED, line, line + n) - line)

    def consistent() -> bool:
        """Whether the queued cells break no line or witness; forces the cells they fix."""
        for k in queue:
            r, c, s, b, t, a = slots[k]
            if free[r] == 1 and not fill(r, r, 1) or free[s] == 1 and not fill(s, k - b * n, n) \
                    or free[t] == 1 and not fill(t, k - a * nn, nn):
                return False
            for w in watch.get(k, ()):
                abc, bcd, am, ab, cd, d, dn = w
                while True:
                    if (u := T[abc]) < 0 or (x := T[bcd]) < 0:  # x is read once u is decided
                        block = abc if u < 0 else bcd
                        break
                    ax, ud = ab + x, u * nn + cd  # cells [a,b,x] and [u,c,d]
                    abx, ucd = T[ax], T[ud]
                    # coherence-1: [a,b,x] = [a,u,[u,c,d]]
                    # coherence-2: [u,c,d] = [[a,b,x],x,d]
                    if abx < 0 or ucd < 0:  # force the undecided side, or wait on it
                        if abx >= 0:  # the column where row [a,u] holds abx, or coherence-2
                            block, v = ud, max(where[am + u * n + abx], T[abx * nn + x * n + d])
                        elif ucd >= 0:  # coherence-1, or the matrix whose [.,x,d] holds ucd
                            au, xd = am + u * n, 2 * size + x * nn + dn  # lines [a,u,.], [.,x,d]
                            block, v = ax, max(T[au + ucd], where[xd + ucd])
                        else:
                            block, v = ax, -1
                        if v < 0:
                            break
                        if not put(block, v):
                            return False
                        continue
                    r1 = am + u * n + ucd
                    if T[r1] != abx and (T[r1] >= 0 or not put(r1, abx)):
                        return False
                    r2 = abx * nn + x * n + d
                    if T[r2] != ucd and (T[r2] >= 0 or not put(r2, ucd)):
                        return False
                    block = -1  # both laws hold for good
                    break
                if block >= 0:
                    lists.append(watch[block])
                    lists[-1].append(w)
        return True

    out: list[Tribracket] = []

    def keep(values: list[int]) -> bool:
        """Spend one unit of the cap on a complete table of values 1..n; keep it if it verifies."""
        nonlocal left
        left -= 1
        t = Tribracket(n, [[values[r:r + n] for r in range(m, m + nn, n)]
                           for m in range(0, size, nn)])
        if verify_tribracket(t).passed:
            out.append(t)
            return True
        return False

    # a first row's class -> the cycle order of its searched row, and the values of its tables
    classes: dict[tuple[int, ...], tuple[list[int], list[list[int]]]] = {}
    frames = [(0, iter(range(n)), 0, 0)]  # (cell, values left, both trails' lengths)
    while frames:
        i, values, cells, appended = frames[-1]
        for v in values:
            if deadline is not None and time.monotonic() > deadline:
                return EnumerationResult(out, False)
            undo(cells, appended)
            queue.clear()
            if put(i, v) and consistent():
                break
        else:
            undo(cells, appended)
            frames.pop()
            continue
        j = i + 1
        while j < size and T[j] != _UNDECIDED:
            j += 1
        if i < n <= j:  # the first row is complete
            key, order = _row_class(T[:n])
            if key in classes:  # its tables are the searched row's, relabelled by s
                order0, tables = classes[key]
                sigma, inverse = [0] * (n + 1), [0] * n  # s on values 1..n, s^-1 on 0..n-1
                for x, y in zip(order0, order):
                    sigma[x + 1], inverse[y] = y + 1, x
                at = operator.itemgetter(*[inverse[a] * nn + inverse[b] * n + inverse[c]
                                           for a, b, c in itertools.product(range(n), repeat=3)])
                for image in sorted([*map(sigma.__getitem__, at(t))] for t in tables):
                    if deadline is not None and time.monotonic() > deadline or not left:
                        return EnumerationResult(out, False)
                    keep(image)
                continue
            classes[key] = (order, searched := [])
        if j < size:  # descend, skipping the cells already forced
            frames.append((j, iter(range(n)), len(trail), len(lists)))
        elif not left:
            return EnumerationResult(out, False)
        elif keep(flat := [*map((1).__add__, T)]):
            searched.append(flat)
    return EnumerationResult(out, True)


def _row_class(row: list[int]) -> tuple[tuple[int, ...], list[int]]:
    """The class of a census's first row under the relabellings fixing 0, and its cycle order.

    row is a permutation of range(n).  A relabelling s with s(0) = 0 maps the tensors with
    first row r one-to-one onto those with first row s r s^-1, so two rows are in one class
    exactly when their cycle types, with 0's cycle length marked, agree.  The key is 0's
    cycle length, then the other cycles' lengths in ascending order.  The order lists 0's
    cycle from 0, then the other cycles in that order, each from its least element: the s
    sending one row's order to another's, place by place, fixes 0 and conjugates the first
    row into the second.
    """
    seen, cycles = [False] * len(row), []
    for start in range(len(row)):
        cycle, x = [], start
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = row[x]
        if cycle:
            cycles.append(cycle)
    cycles[1:] = sorted(cycles[1:], key=len)
    return tuple(map(len, cycles)), [*itertools.chain.from_iterable(cycles)]


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
    these three imply the other product axioms (the proofs are in
    :func:`tribrackets.algebra._product_axioms_hold`), so every kept table
    passes the verifier.
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
    is compatible with t and nothing otherwise.  Over a t passing its axioms,
    _product_axioms_hold is verify_algebra's verdict, without the violation
    list a failing diagonal would build.
    """
    _require_tribracket(t)
    p = PartialProduct.diagonal(t.n)
    return [p] if _product_axioms_hold(t, p) else []
