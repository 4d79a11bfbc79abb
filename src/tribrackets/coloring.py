"""Counting and listing the region colorings of a diagram by a finite algebra.

The coloring rule is stated once, by :func:`_system`: it numbers the regions and
gives each constraint's regions in slot order, inputs first, the result last.
One exact search, :func:`_solutions`, reads it for the counter, the listing and
the move harness.  :func:`_compile` fixes from structure alone (once per listing,
move pair, or diagram and carrier size n for the counter, which keeps it on the
diagram) the order the search colors regions in and, for each region, the
constraint that forces it (none for a branch; a constraint forces its last
uncolored region) and those it closes.  The listing and the move
harness walk that schedule jointly; the counter walks each connected component's
part of it alone and multiplies the counts.  A part of R regions branching on
b is planned again on a smallest set whose forcing closure is the part, if one
is smaller: sought only where b exceeds R less its distinct constraint region
sets of 2+ regions (each forces one at most), within n^(b - 1) subsets tried.
The search binds the keyed tables and walks on an explicit stack, so no diagram
is too deep for the recursion limit: a branch tries 1..n, a forced region reads
one entry of its constraint's keyed table, keyed by the values of the regions
before it, and every value must hold in the constraints it closes.  Stepping
back undoes nothing.  The reference count_colorings_bruteforce shares only that
numbering and slot order: it tests every assignment through bracket and mul.
"""
from __future__ import annotations

import heapq
import itertools
import math
import operator
from collections.abc import Iterator, Sequence

# the benchmark tracer wraps the slot solvers here: their only use, until it stops doing so
from .algebra import TribracketAlgebra, _require, product_solve, tribracket_solve  # noqa: F401
from .diagram import Constraint, ConstraintKind, Diagram, DiagramKind


class HandlebodyModeError(ValueError):
    """Raised when a handlebody-link diagram meets a non-idempotent algebra.

    Counts of handlebody-link diagrams need the IH move, so they are refused
    unless the product is the diagonal.  IH also holds over the empty product,
    vacuously, but the gate refuses it: it asks for aa = a for every a.
    """


def _check_args(alg: TribracketAlgebra, dia: Diagram) -> None:
    _require(alg, TribracketAlgebra, "algebra")
    _require(dia, Diagram, "diagram")
    if dia.kind is DiagramKind.HANDLEBODY_LINK and not alg.idempotent:
        raise HandlebodyModeError(
            f"diagram {dia.name!r} is a handlebody-link; the algebra must be idempotent"
        )


def _system(names: Sequence[str], constraints: Sequence[Constraint], merges=()) -> tuple:
    """The number of regions, each constraint as its kind and region indices in
    slot order, and each name's index, in ``names`` order; a merge (r1, r2) numbers r2 as r1."""
    merged = {r2: r1 for r1, r2 in merges}
    index = {r: i for i, r in enumerate(r for r in names if r not in merged)}
    regions = len(index)
    index |= {r2: index[r1] for r2, r1 in merged.items()}
    vertex, system = ConstraintKind.VERTEX, []
    for c in constraints:  # a crossing (a, b, c, d) reads [a, b, c] = d, a vertex (l, m, r) l*r = m
        if c.kind is vertex:
            l, m, r = c.refs
            system.append((vertex, (index[l], index[r], index[m])))
        else:
            a, b, x, d = c.refs
            system.append((c.kind, (index[a], index[b], index[x], index[d])))
    return regions, system, index


def _compile(regions: int, system: Sequence[tuple[ConstraintKind, tuple[int, ...]]], *allowed):
    """The schedule of :func:`_plan` over regions 0..regions-1, from structure alone,
    branching on the ``allowed`` regions, if given, before any other.

    ``system`` is as :func:`_system` gives it.  Per position: r, the read of its
    forcing constraint (False for a branch) and those of the constraints it closes.
    A read is the kind, four regions whose values are the key's digits while r
    reads 0, and for each digit whether r fills it."""
    def read(i: int, r: int) -> tuple:
        kind, refs = system[i]  # r pads a vertex's first digit, which r does not fill
        a, b, c, d = refs if len(refs) == 4 else (r, *refs)
        return kind, a, b, c, d, len(refs) == 4 and a == r, b == r, c == r, d == r

    return [
        (r, f is not None and read(f, r), closes and [read(i, r) for i in closes if i != f])
        for r, f, closes in _plan(regions, [refs for _, refs in system], *allowed)
    ]


def _solutions(alg: TribracketAlgebra, schedule: list[tuple], val=None) -> Iterator[list[int]]:
    """Every coloring of a compiled schedule's regions (only [] if none), as one list
    of values that changes as the search goes on: copy it to keep a coloring.  It is
    ``val`` if given, of which the search writes and reads only the schedule's regions."""
    m = alg.n + 1

    # a read binds its operation's table, built only if read, and r's place values summed
    def bind(kind, a, b, c, d, fa, fb, fc, fd) -> tuple:
        op = alg.product if kind is ConstraintKind.VERTEX else alg.tribracket
        return op.keyed_table, a, b, c, d, ((fa * m + fb) * m + fc) * m + fd

    steps = [(r, f and bind(*f), [bind(*x) for x in closes]) for r, f, closes in schedule]
    end, span, val = len(steps), range(1, m), [0] * len(steps) if val is None else val
    choices: list[tuple[int, Iterator[int]]] = []  # positions with values left to try
    p = 0
    while True:
        if p == end:  # a full coloring; then step back
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
                if e > 0:  # the one value: test it in each constraint it closes
                    for t, a, b, c, d, k in closes:
                        if t[((val[a] * m + val[b]) * m + val[c]) * m + val[d] + e * k]:
                            break
                    else:  # no choice: never stepped back to
                        val[r] = e
                        p += 1
                        continue
                    closes = values = ()  # it fails one: step back
                else:  # none, or several (r in several slots, or a table not Latin)
                    values = () if e else [v for v in span if not t[key + v * k]]
            for t, a, b, c, d, k in closes:  # keep the values that hold in each
                key = ((val[a] * m + val[b]) * m + val[c]) * m + val[d]
                values = [v for v in values if not t[key + v * k]]
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


def _plan(
    regions: int, constraints: list[tuple[int, ...]], allowed: Sequence[int] = ()
) -> list[tuple[int, int | None, list]]:
    """The search's schedule: each region in the order it is colored (fail
    first), with the constraint forcing it (None for a branch) and those it closes.

    Simulates propagation on structure alone, a constraint being its set of
    regions: take the best-scored uncolored region, then, in cascade, each
    constraint's last uncolored region, whatever slots it fills.  The score
    ranks r by its constraints that coloring r leaves one region uncolored,
    then those with a colored region, then how many constraints r touches,
    then the lowest index.  r's heap key is one int whose digits are the
    constraint count less each score, then r; it is pushed again only when a
    score rises.  Stale keys are skipped: O((R + slots) log R).

    Given ``allowed``, any other region's key sorts after all of theirs.  So
    allowing the regions the plan branches on unasked changes nothing, and nor
    does allowing none of a connected component's, whose keys all rise alike.
    """
    sets = [{*refs} for refs in constraints]  # per constraint: its regions
    left = list(map(len, sets))  # per constraint: its uncolored regions
    top, base = len(sets), max(len(sets), regions) + 1
    first, second = base**3, base**2  # a key's drop when its first or second score rises by 1
    key = [((top * base + top) * base + top) * base + r for r in range(regions)]
    for r in set(range(regions)).difference(allowed) if allowed else ():
        key[r] += base**4  # above any key of a region allowed to branch
    touch: list[list[int]] = [[] for _ in range(regions)]  # constraints per region
    for i, s in enumerate(sets):
        drop = base + (len(s) == 2) * first  # r's degree rises, and its first score if i is a pair
        for r in s:
            touch[r].append(i)
            key[r] -= drop
    heap = key.copy()
    heapq.heapify(heap)
    met = [False] * regions  # per region: scheduled or queued
    schedule: list[tuple[int, int | None, list]] = []
    while len(schedule) < regions:
        k = heapq.heappop(heap)
        r = k % base
        if met[r] or k != key[r]:
            continue
        met[r] = True
        queue: list[tuple[int, int | None]] = [(r, None)]
        while queue:
            x, f = queue.pop()
            shut: list[int] = []
            schedule.append((x, f, shut))
            for i in touch[x]:
                left[i] = u = left[i] - 1
                if u == 1:  # i's last uncolored region, if not yet met: i forces it
                    for y in sets[i]:
                        if not met[y]:
                            met[y] = True
                            queue.append((y, i))
                elif not u:
                    shut.append(i)
                elif drop := (u == 2) * first + (u + 1 == len(sets[i])) * second:  # scores rise
                    for y in sets[i]:
                        if not met[y]:
                            key[y] -= drop
                            heapq.heappush(heap, key[y])
    return schedule


def enumerate_colorings(alg: TribracketAlgebra, dia: Diagram) -> list[dict[str, int]]:
    """All valid colorings from one joint search, sorted by value tuple in region order."""
    _check_args(alg, dia)
    regions, system, _ = _system(dia.regions, dia.constraints)
    found = sorted(tuple(val) for val in _solutions(alg, _compile(regions, system)))
    return [dict(zip(dia.regions, values)) for values in found]


def count_colorings(alg: TribracketAlgebra, dia: Diagram) -> int:
    """The number of valid region colorings of dia by alg: the product of the counts
    of the connected components, n for a region that no constraint touches.  It walks
    each component's part of the schedule, the one it would get alone, or, if
    :func:`_fewer_branches` finds fewer regions to branch on, their plan.  The parts
    are planned on dia's first count at each carrier size n and kept on dia."""
    _check_args(alg, dia)
    n = alg.n
    if n not in dia._plans:  # a plan reads nothing of the algebra but n
        dia._plans[n] = _count_plan(dia, n)
    regions, parts = dia._plans[n]
    count, val = n ** (regions - sum(map(len, parts))), [0] * regions
    for part in parts:
        if count:  # a factor 0 ends the search
            count *= operator.countOf(_solutions(alg, part, val), val)  # it yields val
    return count


def _count_plan(dia: Diagram, n: int) -> tuple[int, list[list[tuple]]]:
    """dia's number of regions, and the compiled parts count_colorings walks at size n."""
    regions, system, _ = _system(dia.regions, dia.constraints)
    parent = list(range(regions))

    def find(r: int) -> int:
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        return r

    for _, refs in system:
        root = find(refs[0])
        for r in refs:
            parent[find(r)] = root

    def walks(schedule: list[tuple]) -> list[list[tuple]]:
        parts: dict[int, list[tuple]] = {}
        for step in schedule:
            if not step[1]:  # a branch, then the regions it forces, all in its component
                part = parts.setdefault(find(step[0]), [])
            part.append(step)
        # a part of one region that closes no constraint is a region no constraint touches
        return [part for part in parts.values() if len(part) > 1 or part[0][2]]

    parts = walks(_compile(regions, system))
    allowed = [r for part in parts for r in _fewer_branches(part, n)]
    if allowed:  # a part without an allowed region keeps its schedule
        parts = walks(_compile(regions, system, allowed))
    return regions, parts


def _fewer_branches(part: list[tuple], n: int) -> list[int]:
    """A smallest set of a compiled part's regions whose forcing closure is the part,
    if it is smaller than the b the part branches on and the search is in budget; else [].

    A constraint forces at most one region, the last of its 2+ distinct regions, so
    at least R less the number of such sets branch.  The R - b forcing sets differ,
    and any other closes where it forces nothing, so it can equal only the set forcing
    there.  Subsets are tried by size from that bound, in schedule order; the search
    is refused if they number over n^(b - 1), about one walk of a smaller plan."""
    size, branches = len(part), [step[1] for step in part].count(False)
    if branches < 2 or math.comb(size, branches - 1) > (budget := n ** (branches - 1)):
        return []  # its last size alone is over budget
    other = {frozenset(s) for _, f, shut in part for x in shut
             if len(s := {*x[1:5]}) > 1 and s != (f and {*f[1:5]})}
    sizes = range(max(1, branches - len(other)), branches)
    if not sizes or sum(math.comb(size, k) for k in sizes) > budget:
        return []
    bit = {r: 1 << i for i, (r, _, _) in enumerate(part)}
    sets = [m for _, f, shut in part for x in (f, *shut)
            if x and (m := sum(map(bit.get, {*x[1:5]}))) & (m - 1)]
    for k in sizes:
        for chosen in itertools.combinations(range(size), k):
            if _forced(sets, sum(1 << i for i in chosen)) == (1 << size) - 1:
                return [part[i][0] for i in chosen]
    return []


def _forced(sets: list[int], colored: int) -> int:
    """colored, as bits, with each region forced from it: a set's one uncolored region."""
    grown = -1
    while grown != colored:
        grown = colored
        for s in sets:
            if (left := s & ~colored) and not left & (left - 1):
                colored |= left
    return colored


class BruteForceCapError(ValueError):
    """The assignment space exceeds the cap; use the backtracking solver."""


_BRUTE_FORCE_CAP = 10_000_000


def count_colorings_bruteforce(alg: TribracketAlgebra, dia: Diagram) -> int:
    """Reference count: test every one of the n^regions assignments.

    Raises BruteForceCapError, before testing any, when there are more than
    _BRUTE_FORCE_CAP; a space too long to print in full is written as n^regions.
    """
    _check_args(alg, dia)
    n = alg.n
    space = n ** len(dia.regions)
    if space > _BRUTE_FORCE_CAP:
        shown = space if space.bit_length() <= 64 else f"{n}^{len(dia.regions)}"
        raise BruteForceCapError(
            f"{shown} assignments exceed the cap of {_BRUTE_FORCE_CAP}; use count_colorings"
        )
    ops = {ConstraintKind.CROSSING: alg.tribracket.bracket, ConstraintKind.VERTEX: alg.product.mul}
    _, system, _ = _system(dia.regions, dia.constraints)
    return sum(
        all(ops[kind](*(val[i] for i in refs[:-1])) == val[refs[-1]] for kind, refs in system)
        for val in itertools.product(range(1, n + 1), repeat=len(dia.regions))
    )

