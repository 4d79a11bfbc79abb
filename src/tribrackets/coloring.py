"""Counting and listing the region colorings of a diagram by a finite algebra.

The coloring rule is stated once, by :func:`_system`: it numbers the regions and
gives each constraint's regions in slot order, inputs first, the result last.
One exact search, :func:`_solutions`, reads it for the counter, the listing and
the move harness.  :func:`_plan` fixes from structure alone (once per listing,
move pair, or diagram for the counter, which keeps it on the diagram whatever n)
the regions the search branches on, in order, and the constraint that forces each
other region (a constraint forces its last uncolored region).  The listing and the
move harness walk that schedule jointly; the counter walks each connected
component's part alone, rescheduled by :func:`_fewer_branches` if a peel keeps
fewer regions than it branches on, and multiplies the counts.  :func:`_place` then
colors each forced region in the loop of the latest branch it waits for, and tests
each constraint as soon as its regions are colored (fail first).  The search binds
the keyed tables and walks on an explicit stack, so no diagram is too deep for the
recursion limit: a branch tries 1..n, a forced region reads one entry of its
constraint's keyed table, keyed by the values of the regions before it, and every
value must hold in the constraints it closes.  Stepping back undoes nothing.

A kept schedule, a :class:`_Kept`, chooses for the counter and the move harness alike
how each use walks it.  Its first use (a diagram's first count, a move pair's first check)
walks :func:`_solutions` and compiles nothing; from the second, :func:`_kernel` has turned
each part into a generator of nested loops, compiled once whatever n, which runs instead
and yields what the search does.  The tier is chosen before the walk, which never restarts:
:func:`_solutions` walks a part of more than 20 loops, which Python cannot compile, and any
part over an algebra that :func:`_single_valued` refuses.  The reference
count_colorings_bruteforce shares only that numbering and slot order: it tests every
assignment through bracket and mul.
"""
from __future__ import annotations

import functools
import heapq
import itertools
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


def _compile(regions: int, system: Sequence[tuple[ConstraintKind, tuple[int, ...]]]):
    """The reads of :func:`_plan`'s schedule of a ``system`` from :func:`_system`, placed."""
    return _reads(system, _place(_plan(regions, [refs for _, refs in system]), system))


def _place(part: list[tuple], system: Sequence[tuple]) -> list[tuple]:
    """A schedule reordered to test each constraint once its regions are colored: branches
    keep their order, a forced region moves to the loop of the latest branch it waits for,
    and there each test (a constraint that forces nothing) pulls in, depth first, the forced
    regions it reads, before the rest in part order, and closes at the last.  O(slots)."""
    force, level, loops = {}, {}, []  # per branch: its region, then the regions in its loop
    for r, f, _ in part:
        force[r], level[r] = f, 0  # 0 leaves r's level to the regions it is forced from
        level[r] = len(loops) if f is None else max(map(level.__getitem__, system[f][1]))
        loops.append([r]) if f is None else loops[level[r]].append(r)
    forcing, wants = set(force.values()), [[] for _ in loops]  # per loop: its tests' regions
    tests = [i for _, _, shut in part for i in shut if i not in forcing]
    for i in tests:
        wants[max(map(level.__getitem__, system[i][1]))] += system[i][1]
    at: dict[int, int] = {}  # per placed region: its position
    for loop, want in zip(loops, wants):
        stack = [*reversed(want), loop[0]]
        while stack:  # the branch, then each test's regions, depth first
            x, f = stack[-1], force[stack[-1]]
            wait = f is not None and [y for y in system[f][1] if y not in at and y != x]
            if wait:  # color the regions x is forced from first
                stack += reversed(wait)
            else:
                at.setdefault(stack.pop(), len(at))
        for x in loop:  # then the loop's other forced regions, in part order
            at.setdefault(x, len(at))
    shut: dict[int, list[int]] = {}  # per position that closes tests: those tests
    for i in tests:
        shut.setdefault(max(map(at.__getitem__, system[i][1])), []).append(i)
    return [(r, force[r], shut.get(k, ())) for k, r in enumerate(at)]


def _reads(system: Sequence[tuple[ConstraintKind, tuple[int, ...]]], steps: list[tuple]):
    """Per step (r, forcing constraint or None, closed constraints) of a schedule of
    ``system``: r, the read of its forcing constraint (False for a branch) and those of
    the others it closes.  A read is the kind, four regions whose values are the key's
    digits while r reads 0, and for each digit whether r fills it."""
    def read(i: int, r: int) -> tuple:
        kind, refs = system[i]  # r pads a vertex's first digit, which r does not fill
        a, b, c, d = refs if len(refs) == 4 else (r, *refs)
        return kind, a, b, c, d, len(refs) == 4 and a == r, b == r, c == r, d == r

    return [(r, f is not None and read(f, r), closes and [read(i, r) for i in closes if i != f])
            for r, f, closes in steps]


def _solutions(alg: TribracketAlgebra, schedule: list[tuple], ends=(), val=None) -> Iterator:
    """Per coloring of a compiled schedule's regions, the tuple of the ``ends`` regions'
    values (only () if the schedule is empty).  The search colors one list of values,
    ``val`` if given, of which it writes and reads only the schedule's regions."""
    m = alg.n + 1
    # itemgetter needs an index, and returns a tuple only for two or more
    get = operator.itemgetter(*ends) if len(ends) > 1 else lambda val: tuple(val[i] for i in ends)

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
            yield get(val) if ends else ()  # no call per coloring for a count
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


def _single_valued(alg: TribracketAlgebra) -> bool:
    """Whether no read of alg with one open slot has several values, as a kernel needs:
    a tensor passing its axioms is Latin in slots a, b and c (see algebra._tensor_axioms_hold)."""
    return alg.tribracket.axioms_hold and alg.product.cancellative


def _kernel(schedule: list[tuple], leaf: Sequence[int]):
    """A generator function of an algebra (and a ``val`` it ignores), compiled once from
    a compiled schedule, that yields the tuple of the ``leaf`` regions' values once per
    coloring, as :func:`_solutions` would over an algebra that :func:`_single_valued`
    accepts; None if it would nest more than 20 loops, which Python cannot compile.

    A branch is a loop over 1..n, and so is a forced region that fills several slots
    of its read (the key has several open digits, so its entry is 0); each other forced
    region is one read of its keyed table, whose none (-1) skips.  Each read a region
    closes is one test; its digits from outer loops are summed once, as the loop inside
    them opens, in a name such reads share.
    The source holds only ints and fixed names, and binds only the tables its reads use."""
    lines, tables, loops, sums = [], set(), 0, {}
    outside, inner = {}, []  # per region outside the innermost loop: where the next one opens

    def entry(kind, a, b, c, d, *fills, unset=None) -> str:
        """The read's keyed-table entry, with region ``unset``'s digits left 0."""
        table = "TV" if kind is ConstraintKind.VERTEX else "TX"
        tables.add(table)
        digits = [*zip((a, b, c, d), ("*M3", "*M2", "*m", ""))][table == "TV":]  # a pads
        terms = [f"v{x}{place}" for x, place in digits if x != unset]
        if not outside.keys().isdisjoint((a, b, c, d)):  # a vertex's pad a is r, never outside
            outer = tuple(f"v{x}{place}" for x, place in digits if x in outside)
            if outer not in sums:  # bind their sum once, where the loop inside them opens
                line, indent = max(outside[x] for x, _ in digits if x in outside)
                sums[outer] = f"k{len(sums)}"
                lines[line] = f"{indent}{sums[outer]} = {' + '.join(outer)}\n{lines[line]}"
            terms = [sums[outer], *(term for term in terms if term not in outer)]
        return f"{table}[{' + '.join(terms) or 0}]"

    for r, force, closes in schedule:  # a schedule starts with a branch, so all is in a loop
        pad = "    " * (loops + 1)
        if force and sum(force[5:]) == 1:  # its entry is r's value
            lines.append(f"{pad}v{r} = {entry(*force, unset=r)}\n{pad}if v{r} < 0: continue")
        else:  # a branch, or r in several slots: filter every value
            if loops == 20:  # Python refuses a 21st statically nested block
                return None
            outside.update(dict.fromkeys(inner, (len(lines), pad)))
            lines.append(f"{pad}for v{r} in span:")
            pad, loops, inner = pad + "    ", loops + 1, []
            closes = [force, *closes] if force else closes
        lines += [f"{pad}if {entry(*x)}: continue" for x in closes]
        inner.append(r)
    lines.append(f"{'    ' * (loops + 1)}yield ({''.join(f'v{r}, ' for r in leaf)})")
    binds = {"TX": "alg.tribracket.keyed_table", "TV": "alg.product.keyed_table"}
    head = ["def kernel(alg, val=None):", "    m = alg.n + 1", "    span = range(1, m)",
            "    M2 = m * m", "    M3 = M2 * m"]
    source = "\n".join(head + [f"    {t} = {binds[t]}" for t in sorted(tables)] + lines)
    namespace = {}
    exec(compile(source, "<kernel>", "exec"), namespace)
    return namespace["kernel"]


class _Kept:
    """A kept schedule's compiled parts, each with the regions whose values it yields (its
    ends), and the walkers of each use, functions walk(alg, val=None) that yield as
    :func:`_solutions` does: the searches at the first use and over an algebra that
    :func:`_single_valued` refuses, else the kernels.  It holds no table, nor any val."""

    def __init__(self, parts: Sequence[list[tuple]], ends: Sequence[Sequence[int]]):
        self.parts, self.ends, self.used = parts, ends, False
        # a search looks _solutions up as it walks, not as the plan is made
        self.searches = [lambda alg, val=None, part=part, e=e: _solutions(alg, part, e, val)
                         for part, e in zip(parts, ends)]

    @functools.cached_property
    def kernels(self) -> list:
        """Per part, its kernel, or its search where the kernel would nest over 20 loops."""
        return [_kernel(part, e) or search
                for part, e, search in zip(self.parts, self.ends, self.searches)]

    def walkers(self, alg: TribracketAlgebra) -> list:
        """Per part, its walker for this use over alg."""
        if self.used and _single_valued(alg):
            return self.kernels
        self.used = True
        return self.searches


def _plan(regions: int, constraints: list[tuple[int, ...]]) -> list[tuple[int, int | None, list]]:
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
    """
    sets = [{*refs} for refs in constraints]  # per constraint: its regions
    left = list(map(len, sets))  # per constraint: its uncolored regions
    top, base = len(sets), max(len(sets), regions) + 1
    first, second = base**3, base**2  # a key's drop when its first or second score rises by 1
    key = [((top * base + top) * base + top) * base + r for r in range(regions)]
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
    found = sorted(_solutions(alg, _compile(regions, system), range(regions)))
    return [dict(zip(dia.regions, values)) for values in found]


def count_colorings(alg: TribracketAlgebra, dia: Diagram) -> int:
    """The number of valid region colorings of dia by alg: the product of the counts
    of the connected components, n for a region that no constraint touches.  It walks
    each component's part of the schedule, planned once from dia's structure and kept
    on dia: the one it would get alone, or that of :func:`_fewer_branches`' regions;
    by the walker its :class:`_Kept` chooses."""
    _check_args(alg, dia)
    regions, kept = dia._count_plan
    count, val = alg.n ** (regions - sum(map(len, kept.parts))), [0] * regions
    for walk in kept.walkers(alg):
        if count:  # a factor 0 ends the search
            count *= operator.countOf(walk(alg, val), ())
    return count


def _count_plan(dia: Diagram) -> tuple[int, _Kept]:
    """dia's number of regions, and the compiled parts count_colorings walks at any n, kept
    with no ends: each component's part of the plan, as _fewer_branches leaves it, placed."""
    regions, system, _ = _system(dia.regions, dia.constraints)
    parent = list(range(regions))

    def find(r: int) -> int:
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        return r

    for _, refs in system:
        for r in refs:
            parent[find(r)] = find(refs[0])
    parts: dict[int, list[tuple]] = {}
    for step in _plan(regions, [refs for _, refs in system]):
        if step[1] is None:  # a branch, then the regions it forces, all in its component
            part = parts.setdefault(find(step[0]), [])
        part.append(step)
    # a part of one region that closes no constraint is a region no constraint touches
    compiled = [_reads(system, _place(_fewer_branches(part, system), system))
                for part in parts.values() if len(part) > 1 or part[0][2]]
    return regions, _Kept(compiled, [()] * len(compiled))


def _fewer_branches(part: list[tuple], system: Sequence[tuple]) -> list[tuple]:
    """A planned part, rescheduled on the regions a peel keeps if fewer than the b it
    branches on.  While a kept region lies in a constraint whose 2+ distinct regions are
    all kept, the peel drops the one in the fewest such, the earliest first: each such
    constraint would force it from the rest.  So the kept regions branch first, in plan
    order, then each dropped region, the last dropped first, is forced by the first
    constraint it was dropped from; each step keeps its plan's closed list, which
    :func:`_place` closes again.  Skipped where fewer than b cannot: R less the distinct
    region sets is b or more (each forces one at most), or no set has b regions or fewer
    (k force one only through k + 1).  O(slots log R)."""
    size, branches = len(part), [step[1] for step in part].count(None)
    closed = sorted(i for _, _, shut in part for i in shut)  # each constraint closes once
    if branches < 2 or len(closed) == size - branches:
        return part  # each constraint forces a region: R less them is b
    # per distinct set of 2+ regions, its first constraint
    first = {s: i for i in reversed(closed) if len(s := frozenset(system[i][1])) > 1}
    if size - len(first) >= branches or min(map(len, first)) > branches:
        return part
    at = {r: p for p, (r, _, _) in enumerate(part)}
    sets = {i: [*map(at.get, s)] for s, i in first.items()}
    touch: list[list[int]] = [[] for _ in part]  # per position: its sets
    for i, s in sets.items():
        for p in s:
            touch[p].append(i)
    live = [len(t) for t in touch]  # per position: its sets with every region kept
    heap = [d * size + p for p, d in enumerate(live) if d]
    heapq.heapify(heap)
    forced: dict[int, int] = {}  # per dropped position, in drop order: its constraint
    while heap:
        d, p = divmod(heapq.heappop(heap), size)
        if d == live[p]:  # not stale: drop p, which ends each of its live sets
            forced[p] = min(i for i in touch[p] if sets[i])
            for i in touch[p]:
                for q in sets[i]:
                    live[q] -= 1
                    if live[q]:
                        heapq.heappush(heap, live[q] * size + q)
                sets[i] = ()  # ended
    order = [p for p in range(size) if p not in forced]
    if len(order) >= branches:
        return part
    order += reversed(forced)
    return [(part[p][0], forced.get(p), part[p][2]) for p in order]


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

