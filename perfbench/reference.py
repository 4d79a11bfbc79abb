"""Reference semantics written from the definitions, independent of the package.

Nothing here imports ``tribrackets``.  Algebras are plain nested tuples with
labels 1..n: ``tensor[a-1][b-1][c-1]`` is the bracket [a,b,c] and
``product[a-1][b-1]`` is a*b, or None where the product is undefined.  A
diagram is a kind, a tuple of region names and a tuple of ``(kind, refs)``
constraints: ``("crossing", (a, b, c, d))`` demands [a,b,c] = d and
``("vertex", (l, m, r))`` demands l*r = m.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional


class ReferenceMismatch(Exception):
    """The benchmark's own reference contradicts a pinned value."""


@dataclass(frozen=True)
class Algebra:
    name: str
    tensor: tuple
    product: tuple

    @property
    def n(self) -> int:
        return len(self.tensor)


@dataclass(frozen=True)
class Dia:
    name: str
    kind: str
    regions: tuple
    constraints: tuple


def linear_tensor(n: int, x: int, y: int) -> tuple:
    """[a,b,c] = x*a - x*y*b + y*c mod n, residue 0 written as n."""
    rng = range(1, n + 1)
    return tuple(
        tuple(tuple((x * a - x * y * b + y * c - 1) % n + 1 for c in rng) for b in rng)
        for a in rng
    )


def midpoint_product(n: int) -> tuple:
    """a*b = (a+b)/2 mod n, defined everywhere; n must be odd."""
    half = pow(2, -1, n)
    rng = range(1, n + 1)
    return tuple(tuple(((a + b) * half - 1) % n + 1 for b in rng) for a in rng)


def diagonal_product(n: int) -> tuple:
    rng = range(1, n + 1)
    return tuple(tuple(a if a == b else None for b in rng) for a in rng)


def is_diagonal(product: tuple) -> bool:
    return product == diagonal_product(len(product))


# ---------------------------------------------------------------------------
# colorings

def holds(alg: Algebra, kind: str, vals: tuple) -> bool:
    if kind == "crossing":
        a, b, c, d = vals
        return alg.tensor[a - 1][b - 1][c - 1] == d
    left, middle, right = vals
    return alg.product[left - 1][right - 1] == middle


def exhaustive_count(alg: Algebra, dia: Dia) -> int:
    """Test every one of the n^regions assignments."""
    index = {r: i for i, r in enumerate(dia.regions)}
    cons = [(kind, tuple(index[r] for r in refs)) for kind, refs in dia.constraints]
    count = 0
    for values in itertools.product(range(1, alg.n + 1), repeat=len(dia.regions)):
        if all(holds(alg, kind, tuple(values[i] for i in refs)) for kind, refs in cons):
            count += 1
    return count


def _solutions(alg: Algebra) -> dict:
    """(kind, slot, other values) -> every value of the slot satisfying the rule."""
    n = alg.n
    out: dict = {}
    for a, b, c in itertools.product(range(1, n + 1), repeat=3):
        vals = (a, b, c, alg.tensor[a - 1][b - 1][c - 1])
        for slot in range(4):
            key = ("crossing", slot, vals[:slot] + vals[slot + 1:])
            out.setdefault(key, []).append(vals[slot])
    for a, b in itertools.product(range(1, n + 1), repeat=2):
        m = alg.product[a - 1][b - 1]
        if m is None:
            continue
        vals = (a, m, b)
        for slot in range(3):
            key = ("vertex", slot, vals[:slot] + vals[slot + 1:])
            out.setdefault(key, []).append(vals[slot])
    return out


def growth_count(alg: Algebra, dia: Dia, free: tuple, growth: tuple) -> int:
    """Count colorings of a grown diagram over its free regions in growth order.

    ``growth`` lists ``(region, constraint index)``: the constraint introduces
    the region, which occurs in it exactly once.  Every other constraint is
    checked once all regions carry a value.
    """
    table = _solutions(alg)
    introducing = {ci for _, ci in growth}
    closing = [c for i, c in enumerate(dia.constraints) if i not in introducing]
    steps = []
    for region, ci in growth:
        kind, refs = dia.constraints[ci]
        slot = refs.index(region)
        steps.append((region, kind, slot, refs[:slot] + refs[slot + 1:]))
    count = 0

    def extend(env: dict, i: int) -> None:
        nonlocal count
        if i == len(steps):
            count += all(holds(alg, k, tuple(env[r] for r in refs)) for k, refs in closing)
            return
        region, kind, slot, others = steps[i]
        for v in table.get((kind, slot, tuple(env[r] for r in others)), ()):
            env[region] = v
            extend(env, i + 1)
        env.pop(region, None)

    for values in itertools.product(range(1, alg.n + 1), repeat=len(free)):
        extend(dict(zip(free, values)), 0)
    return count


# ---------------------------------------------------------------------------
# axioms, checked directly from the definitions

def tensor_ok(tensor: tuple) -> bool:
    """Slot bijectivity and both coherence identities."""
    n = len(tensor)
    rng = range(n)
    full = set(range(1, n + 1))
    for i, j in itertools.product(rng, repeat=2):
        if {tensor[k][i][j] for k in rng} != full:
            return False
        if {tensor[i][k][j] for k in rng} != full:
            return False
        if {tensor[i][j][k] for k in rng} != full:
            return False

    def br(a, b, c):
        return tensor[a - 1][b - 1][c - 1]

    for a, b, c, d in itertools.product(range(1, n + 1), repeat=4):
        u, w = br(a, b, c), br(b, c, d)
        if br(a, b, w) != br(a, u, br(u, c, d)):
            return False
        if br(u, c, d) != br(br(a, b, w), w, d):
            return False
    return True


def product_ok(tensor: tuple, product: tuple) -> bool:
    """Cancellation and the vertex (r4) and vertex-slide (r5) compatibilities."""
    n = len(tensor)
    rng = range(1, n + 1)

    def br(a, b, c):
        return tensor[a - 1][b - 1][c - 1]

    def mul(a, b):
        return product[a - 1][b - 1]

    for a in rng:
        row = [mul(a, b) for b in rng if mul(a, b) is not None]
        col = [mul(b, a) for b in rng if mul(b, a) is not None]
        if len(set(row)) != len(row) or len(set(col)) != len(col):
            return False
        for b in rng:
            ab = mul(a, b)
            if ab is not None and (not 1 <= ab <= n or br(a, ab, b) != ab):
                return False
    for a, b, c in itertools.product(rng, repeat=3):
        u, ab, bc = br(a, b, c), mul(a, b), mul(b, c)
        if mul(a, u) != (None if bc is None else br(a, b, bc)):
            return False
        if mul(u, c) != (None if ab is None else br(ab, b, c)):
            return False
        if bc is not None and u != br(br(a, b, bc), bc, c):
            return False
        if ab is not None and u != br(a, ab, br(ab, b, c)):
            return False
    return True


# ---------------------------------------------------------------------------
# censuses by searches that prune as soon as an identity can be evaluated

def tensor_census(n: int) -> list:
    """Every tribracket on n elements as a flattened 1-based tuple, sorted.

    Cells are filled in lexicographic order.  Each coherence instance waits on
    the first unfilled cell its evaluation reads and is re-evaluated when that
    cell is filled, so a violation prunes the branch at the earliest cell that
    decides it.
    """
    nn, n3 = n * n, n * n * n
    table = [-1] * n3
    used = [[0] * nn for _ in range(3)]  # lines along a, b and c
    full = (1 << n) - 1

    def evaluate(inst) -> int:
        """-1 holds, -2 fails, otherwise the unfilled cell it waits on."""
        a, b, c, d, second = inst
        i = a * nn + b * n + c
        u = table[i]
        if u < 0:
            return i
        i = b * nn + c * n + d
        w = table[i]
        if w < 0:
            return i
        i = a * nn + b * n + w
        x = table[i]
        if x < 0:
            return i
        i = u * nn + c * n + d
        v = table[i]
        if v < 0:
            return i
        i = x * nn + w * n + d if second else a * nn + u * n + v
        y = table[i]
        if y < 0:
            return i
        return -1 if (v if second else x) == y else -2

    watch: list = [[] for _ in range(n3)]
    for inst in itertools.product(range(n), range(n), range(n), range(n), (0, 1)):
        watch[evaluate(inst)].append(inst)
    out = []

    def fill(i: int) -> None:
        if i == n3:
            out.append(tuple(v + 1 for v in table))
            return
        a, rest = divmod(i, nn)
        b, c = divmod(rest, n)
        lines = (b * n + c, a * n + c, a * n + b)
        free = full & ~(used[0][lines[0]] | used[1][lines[1]] | used[2][lines[2]])
        pending = watch[i]
        for v in range(n):
            bit = 1 << v
            if not free & bit:
                continue
            table[i] = v
            watch[i] = []
            moved = []
            ok = True
            for inst in pending:
                j = evaluate(inst)
                if j == -2:
                    ok = False
                    break
                if j >= 0:
                    watch[j].append(inst)
                    moved.append(j)
            if ok:
                for k in range(3):
                    used[k][lines[k]] |= bit
                fill(i + 1)
                for k in range(3):
                    used[k][lines[k]] ^= bit
            for j in reversed(moved):
                watch[j].pop()
            watch[i] = pending
            table[i] = -1

    fill(0)
    return sorted(out)


def nest_tensor(flat: tuple, n: int) -> tuple:
    return tuple(
        tuple(tuple(flat[a * n * n + b * n: a * n * n + b * n + n]) for b in range(n))
        for a in range(n)
    )


def product_census(tensor: tuple) -> list:
    """Every compatible partial product as a flattened tuple (None undefined).

    Sorted with undefined before 1.  Each compatibility instance reads at most
    four product cells whose positions the tensor fixes, so it is checked as
    soon as the last of them in fill order is decided.
    """
    n = len(tensor)
    cells = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    pos = {cell: i for i, cell in enumerate(cells)}

    def br(a, b, c):
        return tensor[a - 1][b - 1][c - 1]

    grid: list = [None] * len(cells)
    checks: list = [[] for _ in cells]
    for a, b, c in itertools.product(range(1, n + 1), repeat=3):
        u = br(a, b, c)
        for fam, reads in (
            (1, ((a, u), (b, c))),
            (2, ((u, c), (a, b))),
            (3, ((b, c),)),
            (4, ((a, b),)),
        ):
            checks[max(pos[r] for r in reads)].append((fam, a, b, c, u))

    def mul(a, b):
        return grid[pos[(a, b)]]

    def check(fam, a, b, c, u) -> bool:
        if fam == 1:
            bc = mul(b, c)
            return mul(a, u) == (None if bc is None else br(a, b, bc))
        if fam == 2:
            ab = mul(a, b)
            return mul(u, c) == (None if ab is None else br(ab, b, c))
        if fam == 3:
            bc = mul(b, c)
            return bc is None or u == br(br(a, b, bc), bc, c)
        ab = mul(a, b)
        return ab is None or u == br(a, ab, br(ab, b, c))

    out = []

    def fill(i: int) -> None:
        if i == len(cells):
            out.append(tuple(grid))
            return
        a, b = cells[i]
        row = {grid[pos[(a, x)]] for x in range(1, b)}
        col = {grid[pos[(x, b)]] for x in range(1, a)}
        options = [None] + [
            v for v in range(1, n + 1) if br(a, v, b) == v and v not in row and v not in col
        ]
        for v in options:
            grid[i] = v
            if all(check(*inst) for inst in checks[i]):
                fill(i + 1)
        grid[i] = None

    fill(0)
    return sorted(out, key=lambda t: tuple(0 if v is None else v for v in t))


def nest_product(flat: tuple, n: int) -> tuple:
    return tuple(tuple(flat[a * n: a * n + n]) for a in range(n))


def flat_key(flat: tuple) -> tuple:
    """Sort key of the enumeration contract: undefined cells before 1."""
    return tuple(0 if v is None else v for v in flat)


def pinned(what: str, got: int, expected: Optional[int]) -> int:
    if expected is not None and got != expected:
        raise ReferenceMismatch(f"{what}: reference gives {got}, pinned value is {expected}")
    return got
