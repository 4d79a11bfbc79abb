"""Counting and listing the region colorings of a diagram by a finite algebra.

One exact search, :func:`_solutions`, serves the counter, the listing and
the move harness.  The counter multiplies the counts of the connected
components of the region-constraint incidence graph; the listing and the
move harness search the whole system jointly.  Regions are integers.  Once
per call, :func:`_plan` fixes from structure alone the order the search
colors regions in and, for each region, the constraint that forces it (none
for a branch) and the constraints it closes.  The search walks that schedule
on an explicit stack, so no diagram is too deep for the recursion limit: a
branch tries 1..n, a forced region reads one entry of its constraint's keyed
table, keyed by the values of the regions before it, and every value must
hold in the constraints it closes.  Stepping back undoes nothing.
count_colorings_bruteforce provides the independent reference semantics.
"""
from __future__ import annotations

import heapq
import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

# the slot solvers stay importable from here; the search reads their tables
from .algebra import TribracketAlgebra, product_solve, tribracket_solve  # noqa: F401
from .diagram import Constraint, ConstraintKind, Diagram, DiagramKind

Coloring = dict[str, int]


class HandlebodyModeError(ValueError):
    """Raised when a handlebody-link diagram meets a non-idempotent algebra.

    Counts of handlebody-link diagrams need the IH move, so they are refused
    unless the product is the diagonal.  IH also holds over the empty product,
    vacuously, but the gate refuses it: it asks for aa = a for every a.
    """


def _check_mode(alg: TribracketAlgebra, dia: Diagram) -> None:
    if dia.kind is DiagramKind.HANDLEBODY_LINK and not alg.idempotent:
        raise HandlebodyModeError(
            f"diagram {dia.name!r} is a handlebody-link; the algebra must be idempotent"
        )


def _satisfies(alg: TribracketAlgebra, con: Constraint, env: Coloring) -> bool:
    if con.kind is ConstraintKind.CROSSING:
        a, b, c, d = (env[r] for r in con.refs)
        return alg.tribracket.bracket(a, b, c) == d
    left, middle, right = (env[r] for r in con.refs)
    return alg.product.mul(left, right) == middle


def _solutions(
    alg: TribracketAlgebra,
    regions: int,
    constraints: Sequence[tuple[ConstraintKind, tuple[int, ...]]],
) -> Iterator[list[int]]:
    """Every coloring of regions 0..regions-1, as the list of their values.

    ``constraints`` pairs each kind with region indices in the order of
    :class:`Constraint` refs.  The same list is yielded each time and changes
    as the search goes on: copy it to keep a coloring.
    """
    if not regions:  # nothing to color: the empty coloring is the only one
        yield []
        return
    m = alg.n + 1
    # each constraint as its regions in slot order and its operation's table,
    # built only if read; a vertex (left, middle, right) reads left*right = middle
    crossing = ConstraintKind.CROSSING
    ops = {crossing: alg.tribracket, ConstraintKind.VERTEX: alg.product}
    refs_of = [x if kind is crossing else (x[0], x[2], x[1]) for kind, x in constraints]
    tables = [ops[kind].keyed_table for kind, _ in constraints]

    def read(i: int, r: int) -> tuple:
        """Constraint i at r's position: its table, four regions whose values are
        its key's digits while r reads 0 (r pads a vertex), and r's place value."""
        refs = refs_of[i]
        k = sum(m**g for g, x in enumerate(reversed(refs)) if x == r)
        return (tables[i], *refs, k) if len(refs) == 4 else (tables[i], r, *refs, k)

    steps = [
        (r, f is not None and read(f, r), [read(i, r) for i in closes if i != f])
        for r, f, closes in _plan(regions, refs_of)
    ]
    span, val = range(1, m), [0] * regions
    choices: list[tuple[int, Iterator[int]]] = []  # positions with values left to try
    p = 0
    while True:
        if p == regions:  # a full coloring; then step back
            yield val
            values = ()
        else:
            r, force, closes = steps[p]
            val[r] = 0
            values = span
            if force:
                t, a, b, c, d, k = force
                key = ((val[a] * m + val[b]) * m + val[c]) * m + val[d]
                e = t[key]
                if e > 0:  # the one value
                    values = (e >> 2,)
                else:  # none, or several (a table not Latin or not cancellative)
                    values = () if e else [v for v in span if not t[key + v * k]]
            for t, a, b, c, d, k in closes:  # keep the values that hold in each
                key = ((val[a] * m + val[b]) * m + val[c]) * m + val[d]
                if len(values) != 1:
                    values = [v for v in values if not t[key + v * k]]
                elif t[key + values[0] * k]:
                    values = ()
                    break
            if len(values) == 1:  # no choice: never stepped back to
                val[r] = values[0]
                p += 1
                continue
        it = iter(values)
        v = next(it, 0)
        while not v:  # step back to the last position with a value left
            if not choices:
                return
            p, it = choices.pop()
            v = next(it, 0)
        val[steps[p][0]] = v
        choices.append((p, it))
        p += 1


def _plan(regions: int, refs_of: list[tuple[int, ...]]) -> list[tuple[int, int | None, list]]:
    """The search's schedule: each region in the order it is colored (fail
    first), with the constraint forcing it (None for a branch) and those it closes.

    Simulates propagation on structure alone: take the best-scored uncolored
    region, then, in cascade, each region that fills a constraint's last open
    slot.  The score ranks r by its constraints that coloring r leaves one slot
    open, then those with a colored slot, then how many constraints r touches,
    then the lowest index.  Stale heap entries are skipped: O((R + slots) log R).
    """
    open_ = [len(refs) for refs in refs_of]  # per constraint: its open slots
    counts = [{r: refs.count(r) for r in refs} for refs in refs_of]  # slots per region
    touch: list[list[int]] = [[] for _ in range(regions)]  # constraints per region
    for i, count in enumerate(counts):
        for r in count:
            touch[r].append(i)
    # per region: its first two scores
    near = [sum(open_[i] - counts[i][r] == 1 for i in touch[r]) for r in range(regions)]
    started = [0] * regions
    heap = [(-near[r], 0, -len(touch[r]), r) for r in range(regions)]
    heapq.heapify(heap)
    forcer: dict[int, int | None] = {}  # per region met: the constraint forcing it
    schedule: list[tuple[int, int | None, list]] = []
    while len(schedule) < regions:
        e1, e2, _, r = heapq.heappop(heap)
        if r in forcer or e1 != -near[r] or e2 != -started[r]:
            continue
        forcer[r] = None
        queue = [r]
        while queue:
            x = queue.pop()
            shut: list[int] = []
            schedule.append((x, forcer[x], shut))
            for i in touch[x]:
                o, k = open_[i], counts[i][x]
                open_[i] = o - k
                if o == k:
                    shut.append(i)
                for y, c in counts[i].items():
                    if y in forcer:
                        continue
                    if o - k == 1:  # y fills the last open slot: i forces it
                        forcer[y] = i
                        queue.append(y)
                    else:
                        near[y] += (o - k - c == 1) - (o - c == 1)
                        started[y] += o == len(refs_of[i])
                        heapq.heappush(heap, (-near[y], -started[y], -len(touch[y]), y))
    return schedule


def _system(dia: Diagram) -> tuple[int, list[tuple[ConstraintKind, tuple[int, ...]]]]:
    index = {r: i for i, r in enumerate(dia.regions)}
    return len(index), [(c.kind, tuple(index[r] for r in c.refs)) for c in dia.constraints]


def _components(regions: int, constraints: Sequence[tuple[ConstraintKind, tuple[int, ...]]]):
    """Each connected component with a constraint: size, constraints over local indices."""
    parent = list(range(regions))

    def find(r: int) -> int:
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        return r

    for _, refs in constraints:
        for r in refs:
            parent[find(r)] = find(refs[0])
    local, sizes = [0] * regions, [0] * regions
    for r in range(regions):
        root = find(r)
        local[r], sizes[root] = sizes[root], sizes[root] + 1
    parts: dict[int, list] = {}
    for kind, refs in constraints:
        parts.setdefault(find(refs[0]), []).append((kind, tuple(local[r] for r in refs)))
    return [(sizes[root], cons) for root, cons in parts.items()]


def enumerate_colorings(alg: TribracketAlgebra, dia: Diagram) -> list[Coloring]:
    """All valid colorings from one joint search, sorted by value tuple in region order."""
    _check_mode(alg, dia)
    found = sorted(tuple(val) for val in _solutions(alg, *_system(dia)))
    return [dict(zip(dia.regions, values)) for values in found]


def count_colorings(alg: TribracketAlgebra, dia: Diagram) -> int:
    """The number of valid region colorings of dia by alg: the product of the
    components' counts, with n for each region that no constraint touches."""
    _check_mode(alg, dia)
    comps = _components(*_system(dia))
    count = alg.n ** (len(dia.regions) - sum(size for size, _ in comps))
    for size, cons in comps:
        if count:  # a factor 0 ends the search
            count *= sum(1 for _ in _solutions(alg, size, cons))
    return count


class BruteForceCapError(ValueError):
    """The assignment space exceeds the cap; use the backtracking solver."""


def count_colorings_bruteforce(
    alg: TribracketAlgebra, dia: Diagram, cap: int = 10_000_000
) -> int:
    """Reference count: test every one of the n^regions assignments.

    Raises BruteForceCapError, before testing any, when there are more than
    ``cap``; a space too long to print in full is written as n^regions.
    """
    _check_mode(alg, dia)
    n = alg.n
    space = n ** len(dia.regions)
    if space > cap:
        shown = space if space.bit_length() <= 64 else f"{n}^{len(dia.regions)}"
        raise BruteForceCapError(
            f"{shown} assignments exceed the cap of {cap}; use count_colorings"
        )
    count = 0
    for values in itertools.product(range(1, n + 1), repeat=len(dia.regions)):
        env = dict(zip(dia.regions, values))
        if all(_satisfies(alg, con, env) for con in dia.constraints):
            count += 1
    return count


@dataclass(frozen=True)
class ObstructionCase:
    """One vertex-admissible triple with the bracket value the clasp forces."""

    triple: tuple[int, int, int]
    value: int
    required: int

    @property
    def satisfied(self) -> bool:
        return self.value == self.required


def verify_k2_obstruction(alg: TribracketAlgebra) -> list[ObstructionCase]:
    """Evaluate the k2 closing condition on the vertex-admissible triples.

    These are (a, b, a*b) over the defined product cells in row-major order.
    The k2 clasp needs bracket(a, bracket(a,c,b), b) to return to a; the
    listing records the actual value next to a.  Each satisfied case is one
    coloring of k2.
    """
    if alg.n != 3:
        raise ValueError("the k2 obstruction concerns the order-3 algebra")
    br = alg.tribracket.bracket
    return [
        ObstructionCase((a, b, c), br(a, br(a, c, b), b), a)
        for a, row in enumerate(alg.product.table, 1) for b, c in enumerate(row, 1) if c
    ]
