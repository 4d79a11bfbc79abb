"""Seeded inputs for the four workloads, written in the package's text formats.

Each workload function returns a ``Plan``: the input files to write, the calls
of one timed body, and each call's expected output, computed by
``reference`` without the package.  The program under test only ever sees
the written ``.alg``/``.dia`` text.

The seed names the regions and orders the calls; the structures themselves
and the order of their regions and constraints are the same for every seed,
because the solver's search, and with it the body's time, depends on them.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import reference as ref
from reference import Algebra, Dia

Z3 = ref.linear_tensor(3, 1, 1)
Z4 = ref.linear_tensor(4, 1, 1)

# the four bundled reference algebras, as shipped with the package
BUNDLED_ALGEBRAS = (
    Algebra("z3_full", Z3, ((1, 3, 2), (3, 2, 1), (2, 1, 3))),
    Algebra("z3_diag", Z3, ref.diagonal_product(3)),
    Algebra("z3_cyc", Z3, ((None, 3, None), (None, None, 1), (2, None, None))),
    Algebra(
        "z4_half",
        Z4,
        ((1, None, 2, None), (None, 2, None, 3), (4, None, 3, None), (None, 1, None, 4)),
    ),
)

_X, _V = "crossing", "vertex"
SG, HB = "spatial-graph", "handlebody-link"

# the eight bundled diagrams, as shipped with the package
BUNDLED_DIAGRAMS = (
    Dia("theta", SG, ("o", "p", "q"), ((_V, ("o", "p", "q")), (_V, ("o", "p", "q")))),
    Dia("handcuff", SG, ("o", "p", "q"), ((_V, ("o", "p", "o")), (_V, ("o", "q", "o")))),
    Dia("hopf_handlebody", HB, ("a", "b", "c", "d"),
        ((_X, ("a", "b", "c", "d")), (_X, ("a", "d", "c", "b")))),
    Dia("genus2_link", HB, ("a", "b", "c", "p", "q"),
        ((_V, ("a", "p", "a")), (_V, ("a", "q", "a")),
         (_X, ("a", "a", "b", "c")), (_X, ("c", "a", "b", "a")))),
    Dia("k1", SG, ("a", "b", "c", "d"),
        ((_V, ("a", "c", "b")), (_V, ("a", "c", "b")),
         (_X, ("a", "c", "b", "d")), (_X, ("a", "d", "b", "c")))),
    Dia("k2", SG, ("a", "b", "c", "d"),
        ((_V, ("a", "c", "b")), (_V, ("a", "c", "b")),
         (_X, ("a", "c", "b", "d")), (_X, ("a", "d", "b", "a")))),
    Dia("z4_left", SG, ("o", "pw", "pe", "q", "b"),
        ((_V, ("o", "pw", "q")), (_V, ("o", "pe", "q")),
         (_X, ("q", "b", "pw", "o")), (_X, ("q", "b", "pe", "o")))),
    Dia("z4_right", SG, ("o", "p", "q", "l"),
        ((_V, ("o", "p", "o")), (_V, ("o", "q", "o")), (_X, ("o", "o", "o", "l")))),
)

# the coloring counts the package README states for the bundled pairs
README_COUNTS = {
    ("theta", "z3_full"): 9, ("handcuff", "z3_full"): 3,
    ("theta", "z3_diag"): 3, ("handcuff", "z3_diag"): 3,
    ("hopf_handlebody", "z3_diag"): 27, ("genus2_link", "z3_diag"): 3,
    ("k1", "z3_cyc"): 3, ("k2", "z3_cyc"): 0,
    ("z4_left", "z4_half"): 8, ("z4_right", "z4_half"): 4,
}

# census: tensor orders, and the order-4 count cross-checked by reference.tensor_census
TENSOR_COUNTS = {1: 1, 2: 2, 3: 12, 4: 168}
Z3_PRODUCTS, Z3_IDEMPOTENT_PRODUCTS = 8, 1


@dataclass
class Plan:
    """Files to write, the calls of one body, and the expected outputs."""

    files: dict = field(default_factory=dict)  # file name -> text
    calls: list = field(default_factory=list)  # (kind, args) in body order
    expected: list = field(default_factory=list)  # one per call
    structures: dict = field(default_factory=dict)  # file name -> Algebra or Dia


def algebra_text(alg: Algebra) -> str:
    lines = [f"# {alg.name}", f"n = {alg.n}", "tribracket:"]
    for mat in alg.tensor:
        lines.append(" / ".join(" ".join(map(str, row)) for row in mat))
    if alg.product is not None:
        lines.append("product:")
        lines.append(" / ".join(
            " ".join("-" if v is None else str(v) for v in row) for row in alg.product
        ))
    return "\n".join(lines) + "\n"


def diagram_text(dia: Dia) -> str:
    lines = [f"name = {dia.name}", f"kind = {dia.kind}", "regions: " + " ".join(dia.regions)]
    lines += [f"{kind}: " + " ".join(refs) for kind, refs in dia.constraints]
    return "\n".join(lines) + "\n"


def _add_algebra(plan: Plan, alg: Algebra) -> str:
    name = f"{alg.name}.alg"
    plan.files[name] = algebra_text(alg)
    plan.structures[name] = alg
    return name


def _add_diagram(plan: Plan, dia: Dia) -> str:
    name = f"{dia.name}.dia"
    plan.files[name] = diagram_text(dia)
    plan.structures[name] = dia
    return name


def _shuffled(rng: random.Random, dia: Dia) -> Dia:
    regions, cons = list(dia.regions), list(dia.constraints)
    rng.shuffle(regions)
    rng.shuffle(cons)
    return Dia(dia.name, dia.kind, tuple(regions), tuple(cons))


def _shuffle(rng: random.Random, plan: Plan) -> None:
    """Put the calls in random order, so that calls of one kind are spread
    over the run rather than bunched into one stretch of it."""
    order = list(range(len(plan.calls)))
    rng.shuffle(order)
    plan.calls = [plan.calls[i] for i in order]
    plan.expected = [plan.expected[i] for i in order]


def _pinned_readme() -> None:
    algebras = {a.name: a for a in BUNDLED_ALGEBRAS}
    diagrams = {d.name: d for d in BUNDLED_DIAGRAMS}
    for (d, a), want in README_COUNTS.items():
        ref.pinned(f"{d}/{a}", ref.exhaustive_count(algebras[a], diagrams[d]), want)


# ---------------------------------------------------------------------------
# count_dense: disjoint unions of small components, many colorings each

# (components, count exponent) of each union, per algebra: the count is an
# exact power of 3 over the z3 algebras and of 2 over z4_half.  Many
# mid-sized unions rather than a few huge ones keep the calls' times close.
DENSE_SCHEDULE = {
    3: ((2, 4), (2, 5), (3, 5), (3, 6)) * 6,
    2: ((2, 6), (2, 7), (3, 7), (3, 8)) * 6,
}
# count exponents every pool holds, so that each schedule entry can be met
DENSE_NEEDED = {3: {1, 2, 3}, 2: {2, 3, 4}}
DENSE_POOL = 16  # components per algebra


def _random_component(rng: random.Random, tag: str) -> Dia:
    """A small connected constraint system: 3-5 regions, 2-4 constraints."""
    regions = [f"r{i}" for i in range(rng.randint(3, 5))]
    while True:
        cons = []
        for _ in range(rng.randint(2, 4)):
            kind = rng.choice((_X, _V))
            cons.append((kind, tuple(rng.choice(regions) for _ in range(4 if kind == _X else 3))))
        seen = set(cons[0][1])
        for _ in range(len(cons)):  # enough passes to reach every connected constraint
            for _, refs in cons:
                if seen & set(refs):
                    seen |= set(refs)
        if seen == set(regions):
            return Dia(tag, SG, tuple(regions), tuple(cons))


def _power(count: int, base: int) -> int:
    """k with base**k == count, or 0 when count is not a positive power of base."""
    k = 0
    while count > 1 and count % base == 0:
        count //= base
        k += 1
    return k if count == 1 else 0


def _rename_regions(dia: Dia, prefix: str, rng: random.Random) -> Dia:
    labels = list(range(len(dia.regions)))
    rng.shuffle(labels)
    names = {r: f"{prefix}r{labels[i]}" for i, r in enumerate(dia.regions)}
    cons = tuple((kind, tuple(names[r] for r in refs)) for kind, refs in dia.constraints)
    return Dia(dia.name, dia.kind, tuple(names[r] for r in dia.regions), cons)


def _pick_parts(rng: random.Random, pool: list, parts: int, exponent: int) -> list:
    """parts components whose count exponents sum to exponent."""
    sums = [{0}]  # sums[s]: exponent totals that s components can reach
    for _ in range(parts):
        sums.append({t + k for t in sums[-1] for _, k in pool})
    picked, left = [], exponent
    for slots in range(parts - 1, -1, -1):
        dia, k = rng.choice([(d, k) for d, k in pool if left - k in sums[slots]])
        picked.append(dia)
        left -= k
    return picked


def count_dense(seed: int) -> Plan:
    _pinned_readme()
    # the unions, with their region and constraint orders, are the same for
    # every seed, so every seed gets the same search; the seed names the
    # regions and orders the calls
    shapes = random.Random("count_dense")
    rng = random.Random(f"count_dense/{seed}")
    plan = Plan()
    for alg in BUNDLED_ALGEBRAS:
        aname = _add_algebra(plan, alg)
        base = 2 if alg.n == 4 else 3
        pool = []
        for dia in BUNDLED_DIAGRAMS:
            k = _power(ref.exhaustive_count(alg, dia), base)
            if k and (dia.kind == SG or ref.is_diagonal(alg.product)):
                pool.append((dia, k))
        while len(pool) < DENSE_POOL or not DENSE_NEEDED[base] <= {k for _, k in pool}:
            dia = _random_component(shapes, f"s{len(pool)}")
            k = _power(ref.exhaustive_count(alg, dia), base)
            if k:
                pool.append((dia, k))
        for parts, k in DENSE_SCHEDULE[base]:
            comps = [
                _rename_regions(d, f"c{j}", rng)
                for j, d in enumerate(_pick_parts(shapes, pool, parts, k))
            ]
            union = Dia(
                f"dense{len(plan.calls)}",
                HB if any(d.kind == HB for d in comps) else SG,
                tuple(r for d in comps for r in d.regions),
                tuple(c for d in comps for c in d.constraints),
            )
            dname = _add_diagram(plan, _shuffled(shapes, union))
            plan.calls.append(("count", (aname, dname)))
            plan.expected.append(base ** k)
    _shuffle(rng, plan)
    return plan


# ---------------------------------------------------------------------------
# count_sparse: connected diagrams grown by forced constraints, few colorings

SPARSE_MIDPOINT_ORDERS = (5, 7, 9, 11)
SPARSE_DIAGONAL_ORDERS = (5, 6, 7, 8, 9, 10, 11)
SPARSE_REPEATS = 10  # diagrams per algebra
SPARSE_REGIONS = 10  # per diagram, free regions included
SPARSE_VERTEX_SHARE = 0.3


def _grow(rng: random.Random, kind: str, free: int) -> tuple:
    """Grow a chain region by region from the free regions.

    Each new region is forced by one constraint on it and the regions grown
    just before it, so a window of consecutive known regions determines the
    rest.  One closing crossing on another window then cuts the count by
    about a factor n.
    """
    existing = [f"g{i}" for i in range(free)]
    cons, growth = [], []
    for i in range(free, SPARSE_REGIONS):
        new = f"g{i}"
        if rng.random() < SPARSE_VERTEX_SHARE:
            # a handlebody vertex needs equal outer sectors under the diagonal product
            refs = [existing[-1]] * 2 if kind == HB else existing[-2:]
            refs.insert(rng.randrange(3), new)
            cons.append((_V, tuple(refs)))
        else:
            refs = existing[-3:]
            while len(refs) < 3:
                refs.append(rng.choice(existing))
            rng.shuffle(refs)
            refs.insert(rng.randrange(4), new)
            cons.append((_X, tuple(refs)))
        growth.append((new, len(cons) - 1))
        existing.append(new)
    start = rng.randrange(len(existing) - 3)
    window = existing[start:start + 4]
    rng.shuffle(window)
    cons.append((_X, tuple(window)))
    return existing[:free], growth, cons


def count_sparse(seed: int) -> Plan:
    # the grown diagrams, with their region and constraint orders, are the
    # same for every seed, so every seed gets the same search; the seed names
    # the regions and orders the calls
    shapes = random.Random("count_sparse")
    rng = random.Random(f"count_sparse/{seed}")
    plan = Plan()
    specs = [(n, SG) for n in SPARSE_MIDPOINT_ORDERS] + [(n, HB) for n in SPARSE_DIAGONAL_ORDERS]
    for rep in range(SPARSE_REPEATS):
        for n, kind in specs:
            if kind == SG:
                alg = Algebra(f"lin{n}_mid", ref.linear_tensor(n, 1, 1), ref.midpoint_product(n))
            else:
                alg = Algebra(f"lin{n}_diag", ref.linear_tensor(n, 1, 1), ref.diagonal_product(n))
            aname = _add_algebra(plan, alg)
            free = 2 + (n + rep) % 2
            free_regions, growth, cons = _grow(shapes, kind, free)
            # rename so that neither names nor order reveal the growth order
            labels = rng.sample(range(SPARSE_REGIONS), SPARSE_REGIONS)
            names = {f"g{k}": f"x{labels[k]}" for k in range(SPARSE_REGIONS)}
            dia = Dia(
                f"sparse{len(plan.calls)}",
                kind,
                tuple(names[f"g{k}"] for k in range(SPARSE_REGIONS)),
                tuple((ckind, tuple(names[r] for r in refs)) for ckind, refs in cons),
            )
            expected = ref.growth_count(
                alg,
                dia,
                tuple(names[r] for r in free_regions),
                tuple((names[r], ci) for r, ci in growth),
            )
            plan.calls.append(("count", (aname, _add_diagram(plan, _shuffled(shapes, dia)))))
            plan.expected.append(expected)
    _shuffle(rng, plan)
    return plan


# ---------------------------------------------------------------------------
# census: tensor censuses at orders 1-4 and product censuses

CENSUS_LINEAR4 = ((1, 1), (1, 3), (3, 1), (3, 3))


def _relabellings(tensor: tuple) -> list:
    """The distinct tensors obtained by renaming the elements, sorted."""
    n = len(tensor)
    found = set()
    for perm in itertools.permutations(range(n)):
        table = [[[0] * n for _ in range(n)] for _ in range(n)]
        for a, b, c in itertools.product(range(n), repeat=3):
            table[perm[a]][perm[b]][perm[c]] = perm[tensor[a][b][c] - 1] + 1
        found.add(tuple(tuple(tuple(row) for row in mat) for mat in table))
    return sorted(found)


def census(seed: int) -> Plan:
    del seed  # the census is the same for every seed
    plan = Plan()
    tensors = []
    for n, want in TENSOR_COUNTS.items():
        found = ref.tensor_census(n)
        ref.pinned(f"tribrackets of order {n}", len(found), want)
        if n <= 3:
            plan.calls.append(("tensors", (n,)))
            plan.expected.append(found)
            tensors += [(f"t{n}_{k}", ref.nest_tensor(f, n)) for k, f in enumerate(found)]
    for x, y in CENSUS_LINEAR4:
        orbit = _relabellings(ref.linear_tensor(4, x, y))
        tensors += [(f"lin4_{x}_{y}_{k}", t) for k, t in enumerate(orbit)]
    for name, tensor in tensors:
        fname = _add_algebra(plan, Algebra(name, tensor, None))
        products = ref.product_census(tensor)
        idempotent = [p for p in products if ref.is_diagonal(ref.nest_product(p, len(tensor)))]
        if tensor == Z3:
            ref.pinned("products of the z3 tensor", len(products), Z3_PRODUCTS)
            ref.pinned("idempotent products of the z3 tensor", len(idempotent),
                       Z3_IDEMPOTENT_PRODUCTS)
        plan.calls.append(("products", (fname,)))
        plan.expected.append(products)
        plan.calls.append(("idempotent", (fname,)))
        plan.expected.append(idempotent)
    _shuffle(random.Random("census"), plan)
    # the order-4 tensor census runs last, so that the garbage it leaves behind
    # cannot put collector pauses into the short calls
    plan.calls.append(("tensors", (4,)))
    plan.expected.append(found)
    return plan


# ---------------------------------------------------------------------------
# moves: every move on each verified algebra, through the command line

MOVE_IDS = ("R1a", "R1b", "R1c", "R1d", "R2a", "R2b", "R2c", "R2d", "R3a",
            "R4.1", "R4.10", "R5.7", "R5.10", "R5.13", "R5.16", "IH")
# (order, products): n = 7 is left out because one R3a check there takes 3-5 s,
# so a run held one body and its time could not be made steady
MOVES_LINEAR = ((5, ("diag", "mid")), (6, ("diag",)))


def _ih_holds(product: tuple) -> bool:
    """IH keeps every extension count exactly when a*b is defined only as a*a = a.

    This is the package README's statement, read so that it also covers
    products defined on part of the diagonal or nowhere: then both sides of
    IH force the four boundary regions to one color a with a*a defined.
    """
    n = len(product)
    return all(
        product[a][b] is None or (a == b and product[a][b] == a + 1)
        for a in range(n) for b in range(n)
    )


def moves(seed: int) -> Plan:
    """The move set is the same for every seed; the seed orders the calls."""
    plan = Plan()
    # every compatible product of the z3 tensor (three of them are bundled)
    bundled = {a.product: a.name for a in BUNDLED_ALGEBRAS if a.tensor == Z3}
    algebras = [
        Algebra(bundled.get(p, f"z3_p{k}"), Z3, p)
        for k, p in enumerate(ref.nest_product(f, 3) for f in ref.product_census(Z3))
    ]
    algebras += [a for a in BUNDLED_ALGEBRAS if a.tensor != Z3]
    products = {"diag": ref.diagonal_product, "mid": ref.midpoint_product}
    for n, kinds in MOVES_LINEAR:
        tensor = ref.linear_tensor(n, 1, 1)
        algebras += [Algebra(f"lin{n}_{k}", tensor, products[k](n)) for k in kinds]
    for alg in algebras:
        if not (ref.tensor_ok(alg.tensor) and ref.product_ok(alg.tensor, alg.product)):
            raise ref.ReferenceMismatch(f"{alg.name} is not a verified algebra")
        fname = _add_algebra(plan, alg)
        for move in MOVE_IDS:
            plan.calls.append(("moves", (fname, move)))
            # every move but IH holds for a verified algebra
            plan.expected.append(move != "IH" or _ih_holds(alg.product))
    _shuffle(random.Random(f"moves/{seed}"), plan)
    return plan


WORKLOADS = {
    "count_dense": count_dense,
    "count_sparse": count_sparse,
    "census": census,
    "moves": moves,
}
