import hashlib
import itertools
import math
import sys
import time
import tracemalloc

import pytest

from tribrackets import (
    EnumerationBudget,
    PartialProduct,
    ShapeError,
    Tribracket,
    TribracketAlgebra,
    UnverifiedTribracketError,
    alexander_tribracket,
    enumerate_idempotent_products,
    enumerate_products,
    enumerate_tribrackets,
    verify_algebra,
    verify_tribracket,
)
from tribrackets.enumeration import _row_class
from tests.conftest import Z4_PRODUCT, Z4_TENSOR

# the eight compatible products of the order-3 tensor, row by row (0 = undefined)
EIGHT_PRODUCT_ROWS = [
    ((1, 3, 2), (3, 2, 1), (2, 1, 3)),
    ((1, 3, 0), (0, 2, 1), (2, 0, 3)),
    ((1, 0, 2), (3, 2, 0), (0, 1, 3)),
    ((0, 3, 2), (3, 0, 1), (2, 1, 0)),
    ((1, 0, 0), (0, 2, 0), (0, 0, 3)),
    ((0, 3, 0), (0, 0, 1), (2, 0, 0)),
    ((0, 0, 2), (3, 0, 0), (0, 1, 0)),
    ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
]


def product_from_rows(rows, n=3):
    return PartialProduct(
        n, tuple(tuple(v or None for v in row) for row in rows)
    )


def brute_force_products(t):
    """Independent oracle: filter every (n+1)^(n*n) table by the verifier."""
    n = t.n
    cells = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    found = []
    for combo in itertools.product(range(n + 1), repeat=len(cells)):
        rows = [[0] * n for _ in range(n)]
        for (a, b), v in zip(cells, combo):
            rows[a - 1][b - 1] = v
        # cheap cancellation sieve before the full verifier
        ok = True
        for i in range(n):
            row = [v for v in rows[i] if v]
            col = [rows[j][i] for j in range(n) if rows[j][i]]
            if len(row) != len(set(row)) or len(col) != len(set(col)):
                ok = False
                break
        if not ok:
            continue
        p = product_from_rows(rows, n)
        if verify_algebra(TribracketAlgebra(t, p)).passed:
            found.append(p)
    return found


class TestEnumerateProducts:
    def test_exactly_the_eight_tables(self, z3):
        got = enumerate_products(z3)
        assert len(got) == 8
        want = {product_from_rows(rows).table for rows in EIGHT_PRODUCT_ROWS}
        assert {p.table for p in got} == want

    def test_includes_empty_product(self, z3):
        assert PartialProduct.empty(3) in enumerate_products(z3)

    def test_z4_census_contains_bundled_product(self):
        got = enumerate_products(Z4_TENSOR)
        assert Z4_PRODUCT in got
        assert PartialProduct.empty(4) in got
        assert len(got) == 9  # frozen census value

    def test_everything_emitted_passes_the_verifier(self, z3):
        for t in (z3, Z4_TENSOR):
            for p in enumerate_products(t):
                assert verify_algebra(TribracketAlgebra(t, p)).passed

    def test_matches_brute_force_oracle_n2(self):
        t = alexander_tribracket(2, 1, 1)
        assert {p.table for p in enumerate_products(t)} == {
            p.table for p in brute_force_products(t)
        }

    def test_matches_brute_force_oracle_n3(self, z3):
        assert {p.table for p in enumerate_products(z3)} == {
            p.table for p in brute_force_products(z3)
        }

    def test_deterministic_order(self, z3):
        first = enumerate_products(z3)
        second = enumerate_products(z3)
        assert first == second
        keys = [
            tuple(v if v else 0 for row in p.table for v in row) for p in first
        ]
        assert keys == sorted(keys)

    def test_rejects_invalid_tensor(self):
        t = Tribracket(2, (((1, 1), (1, 1)), ((1, 1), (1, 1))))
        with pytest.raises(ValueError):
            enumerate_products(t)


class TestIdempotentProducts:
    def test_z3_has_exactly_the_diagonal(self, z3):
        got = enumerate_idempotent_products(z3)
        assert len(got) == 1
        assert got[0] == PartialProduct.diagonal(3)

    def test_domain_is_exactly_the_diagonal(self, z3):
        for t in (z3, Z4_TENSOR):
            for p in enumerate_idempotent_products(t):
                assert TribracketAlgebra(t, p).idempotent
                assert all(
                    v is None or a == b for a, row in enumerate(p.table) for b, v in enumerate(row)
                )


def brute_force_tribrackets(n):
    """Independent oracle: filter every n^(n^3) tensor by the verifier."""
    cells = list(itertools.product(range(n), repeat=3))
    found = []
    for combo in itertools.product(range(1, n + 1), repeat=len(cells)):
        table = [[[0] * n for _ in range(n)] for _ in range(n)]
        for (a, b, c), v in zip(cells, combo):
            table[a][b][c] = v
        t = Tribracket(n, tuple(tuple(tuple(r) for r in m) for m in table))
        if verify_tribracket(t).passed:
            found.append(t)
    return found


class TestEnumerateTribrackets:
    def test_n1(self):
        result = enumerate_tribrackets(1)
        assert result.complete and len(result) == 1
        assert result[0].bracket(1, 1, 1) == 1

    def test_n2_against_brute_force(self):
        result = enumerate_tribrackets(2)
        assert result.complete
        assert {t.table for t in result} == {t.table for t in brute_force_tribrackets(2)}
        assert len(result) == 2  # frozen census value

    def test_n3_census_and_linear_members(self):
        result = enumerate_tribrackets(3)
        assert result.complete
        assert len(result) == 12  # frozen census value
        for x in (1, 2):
            for y in (1, 2):
                assert alexander_tribracket(3, x, y) in result.items

    def test_everything_emitted_passes_the_verifier(self):
        for t in enumerate_tribrackets(3):
            assert verify_tribracket(t).passed

    def test_deterministic_lexicographic_order(self):
        first = enumerate_tribrackets(3)
        second = enumerate_tribrackets(3)
        assert first.items == second.items
        keys = [tuple(v for m in t.table for r in m for v in r) for t in first]
        assert keys == sorted(keys)

    def test_budget_exhaustion_flags_partial_result(self):
        capped = enumerate_tribrackets(3, EnumerationBudget(max_candidates=3))
        assert not capped.complete
        full = enumerate_tribrackets(3)
        assert capped.items == full.items[: len(capped.items)]

    @pytest.mark.parametrize("cap", [1, 11, 12, 13])
    def test_max_candidates_caps_the_complete_tables(self, cap):
        # every complete order-3 table that reaches the verifier passes, and
        # there are 12 of them: the search stops only if a 13th would be needed
        capped = enumerate_tribrackets(3, EnumerationBudget(max_candidates=cap))
        assert len(capped) == min(cap, 12)
        assert capped.complete == (cap >= 12)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            EnumerationBudget(max_candidates=0)
        with pytest.raises(ValueError):
            EnumerationBudget(timeout=-1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_candidates", 2.5),
            ("max_candidates", True),
            ("max_candidates", "2"),
            ("max_candidates", -3),
            ("timeout", float("nan")),
            ("timeout", float("inf")),
            ("timeout", "1"),
            ("timeout", True),
            ("timeout", 0),
        ],
    )
    def test_a_bad_cap_or_timeout_is_refused_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            EnumerationBudget(**{field: value})

    @pytest.mark.parametrize("budget", [5, 0, False, "", (), 1.5, "x"])
    def test_a_budget_that_is_not_an_enumeration_budget_is_refused(self, budget):
        # a falsy one too: it is not taken for None and run unbounded
        with pytest.raises(ShapeError, match="^the budget must be a EnumerationBudget, got "):
            enumerate_tribrackets(3, budget=budget)

    @pytest.mark.parametrize("cap, timeout", [(1, 0.5), (168, 2), (None, 1e-9)])
    def test_good_caps_and_timeouts_are_kept(self, cap, timeout):
        budget = EnumerationBudget(cap, timeout)
        assert (budget.max_candidates, budget.timeout) == (cap, timeout)


# Leaf-only reference enumerators.  They prune only on slot bijectivity
# (tensors) or on cancellation and the vertex fixpoint (products) and leave
# every other axiom to the verifier at the leaf, so they are slow but visit
# tables in the same lexicographic order: the pruned enumerators must return
# identical lists.
def leaf_only_tribrackets(n):
    cells = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    out = []

    def line_free(a, b, c, v):
        return (
            all(table[a][b][cc] != v for cc in range(c))
            and all(table[a][bb][c] != v for bb in range(b))
            and all(table[aa][b][c] != v for aa in range(a))
        )

    def rec(i):
        if i == len(cells):
            t = Tribracket(n, tuple(tuple(tuple(r) for r in m) for m in table))
            if verify_tribracket(t).passed:
                out.append(t)
            return
        a, b, c = cells[i]
        for v in range(1, n + 1):
            if line_free(a, b, c, v):
                table[a][b][c] = v
                rec(i + 1)

    rec(0)
    return out


def leaf_only_products(t):
    n = t.n
    cells = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    cand = {
        (a, b): [v for v in range(1, n + 1) if t.bracket(a, v, b) == v]
        for a, b in cells
    }
    grid = {}
    out = []

    def rec(i):
        if i == len(cells):
            p = PartialProduct(
                n,
                tuple(
                    tuple(grid.get((a, b)) for b in range(1, n + 1))
                    for a in range(1, n + 1)
                ),
            )
            if verify_algebra(TribracketAlgebra(t, p)).passed:
                out.append(p)
            return
        a, b = cells[i]
        rec(i + 1)  # undefined sorts first
        for v in cand[(a, b)]:
            if any(grid.get((a, bb)) == v for bb in range(1, n + 1)) or any(
                grid.get((aa, b)) == v for aa in range(1, n + 1)
            ):
                continue
            grid[(a, b)] = v
            rec(i + 1)
            del grid[(a, b)]

    rec(0)
    return out


ORDER3 = leaf_only_tribrackets(3)
ALEXANDER4 = [alexander_tribracket(4, x, y) for x in (1, 3) for y in (1, 3)]


class TestAgainstLeafOnlyOracle:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tribrackets_identical_in_order(self, n):
        result = enumerate_tribrackets(n)
        assert result.complete
        assert result.items == leaf_only_tribrackets(n)

    @pytest.mark.parametrize(
        "t",
        ORDER3 + [alexander_tribracket(4, 1, 1), alexander_tribracket(4, 1, 3)],
        ids=[f"order3_{k}" for k in range(len(ORDER3))] + ["alex4_1_1", "alex4_1_3"],
    )
    def test_products_identical_in_order(self, t):
        assert enumerate_products(t) == leaf_only_products(t)

    @pytest.mark.parametrize(
        "t", leaf_only_tribrackets(1) + leaf_only_tribrackets(2) + ORDER3 + ALEXANDER4
    )
    def test_idempotent_shortcut_equals_filter(self, t):
        want = [
            p for p in enumerate_products(t) if TribracketAlgebra(t, p).idempotent
        ]
        assert enumerate_idempotent_products(t) == want

    def test_idempotent_shortcut_keeps_the_precondition(self):
        t = Tribracket(2, (((1, 1), (1, 1)), ((1, 1), (1, 1))))
        with pytest.raises(ValueError, match="must pass its axioms"):
            enumerate_idempotent_products(t)

    @pytest.mark.parametrize("search", [enumerate_products, enumerate_idempotent_products])
    def test_a_tensor_failing_its_axioms_raises_a_typed_error(self, search):
        t = Tribracket(2, (((1, 1), (1, 1)), ((1, 1), (1, 1))))
        with pytest.raises(UnverifiedTribracketError, match="must pass its axioms"):
            search(t)


def flat(t):
    return tuple(v for m in t.table for r in m for v in r)


def relabel(t, sigma):
    """The tensor [s(a), s(b), s(c)] -> s([a, b, c]) for a permutation s of 1..n."""
    n = t.n
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    for a, b, c in itertools.product(range(1, n + 1), repeat=3):
        table[sigma[a] - 1][sigma[b] - 1][sigma[c] - 1] = sigma[t.bracket(a, b, c)]
    return Tribracket(n, tuple(tuple(tuple(r) for r in m) for m in table))


class TestOrder4Census:
    @pytest.fixture(scope="class")
    def census(self):
        result = enumerate_tribrackets(4)
        assert result.complete
        return result.items

    def test_count(self, census):
        assert len(census) == 168  # cross-checked by an independent search

    def test_strictly_sorted(self, census):
        keys = [flat(t) for t in census]
        assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))

    def test_everything_emitted_passes_the_verifier(self, census):
        assert all(verify_tribracket(t).passed for t in census)

    def test_contains_the_linear_members(self, census):
        for t in ALEXANDER4:
            assert t in census

    def test_closed_under_relabelling(self, census):
        members = {t.table for t in census}
        for perm in itertools.permutations(range(1, 5)):
            sigma = dict(zip(range(1, 5), perm))
            for t in census:
                assert relabel(t, sigma).table in members


class TestBudgetAtInteriorNodes:
    def test_timeout_fires_between_leaves(self):
        start = time.monotonic()
        result = enumerate_tribrackets(5, EnumerationBudget(timeout=0.2))
        assert time.monotonic() - start < 5.0
        assert not result.complete
        keys = [flat(t) for t in result]
        assert keys == sorted(keys)
        assert all(verify_tribracket(t).passed for t in result)

    @staticmethod
    def _ticking_clock(monkeypatch):
        """Make the census clock tick once per reading; return the ticks."""
        import tribrackets.enumeration as enumeration

        ticks = itertools.count()
        monkeypatch.setattr(
            enumeration, "time", type("Clock", (), {"monotonic": lambda: next(ticks)})
        )
        return ticks

    def test_timeout_is_checked_at_every_node(self, monkeypatch):
        # the deadline passes after 200 clock readings, long before the first
        # order-5 tensor is complete (the search reads the clock 894 times
        # before it)
        ticks = self._ticking_clock(monkeypatch)
        result = enumerate_tribrackets(5, EnumerationBudget(timeout=200))
        assert not result.complete and len(result) == 0
        assert next(ticks) < 400  # stopped soon after the deadline

    def test_forcing_halves_the_order4_search(self, monkeypatch):
        # the search reads the clock 1,191 times (see the next test); forcing coherence
        # only forwards, it reads it 1,879 times
        ticks = self._ticking_clock(monkeypatch)
        result = enumerate_tribrackets(4, EnumerationBudget(timeout=10**9))
        assert result.complete and len(result) == 168
        assert next(ticks) <= 1500

    def test_the_order4_search_reads_the_clock_exactly_1191_times(self, monkeypatch):
        # 1 reading at the start, 1 per set-up cell (64), 1 per value tried (1,024) and 1 per
        # relabelled table (102): the 7 first-row classes' searched rows hold the other 66.
        # A search that tries one value more or less, relabels one table more or less, or
        # reads the clock elsewhere, moves it
        ticks = self._ticking_clock(monkeypatch)
        result = enumerate_tribrackets(4, EnumerationBudget(timeout=10**9))
        assert result.complete and len(result) == 168
        assert next(ticks) == 1191

    def test_timeout_bounds_the_set_up(self):
        # the set-up at order 30 builds 30^4 witnesses, about 2 s; the
        # deadline is checked before each of its cells, so it stops within one
        start = time.monotonic()
        result = enumerate_tribrackets(30, EnumerationBudget(timeout=0.05))
        assert time.monotonic() - start < 1.0
        assert not result.complete and len(result) == 0

    def test_timeout_bounds_the_set_up_memory(self, monkeypatch):
        # the deadline passes after two cells of the order-40 set-up, of 40
        # witnesses each; no list is made ahead for each of the 40^3 cells
        self._ticking_clock(monkeypatch)
        tracemalloc.start()
        try:
            result = enumerate_tribrackets(40, EnumerationBudget(timeout=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not result.complete and len(result) == 0
        assert peak < 2 * 2**20

    def test_timeout_bounds_the_set_up_at_order_3000(self):
        # once a MemoryError under a 2 GB address-space cap: the deadline was
        # read once per row (a, b) of 3000^2 witnesses
        tracemalloc.start()
        try:
            start = time.monotonic()
            result = enumerate_tribrackets(3000, EnumerationBudget(timeout=0.05))
            elapsed = time.monotonic() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not result.complete and len(result) == 0
        assert elapsed < 0.5 and peak < 4 * 2**20

    LARGEST = math.isqrt(math.isqrt(sys.maxsize))  # the last n with n^4 <= sys.maxsize

    @pytest.mark.parametrize("n", [LARGEST + 1, 10**20], ids=["largest+1", "1e20"])
    def test_an_order_whose_witnesses_no_list_can_index_is_refused(self, n):
        # 10**20 once raised OverflowError while the set-up built its ranges
        with pytest.raises(ShapeError) as err:
            enumerate_tribrackets(n, EnumerationBudget(timeout=0.05))
        assert str(err.value) == (
            f"carrier size {n} is too large for a census: n^4 exceeds {sys.maxsize}"
        )

    def test_the_largest_order_runs_under_its_budget(self, monkeypatch):
        # the deadline passes after two cells, of LARGEST witnesses each
        self._ticking_clock(monkeypatch)
        result = enumerate_tribrackets(self.LARGEST, EnumerationBudget(timeout=2))
        assert not result.complete and len(result) == 0


class TestMaxCandidatesAtOrder4:
    @pytest.fixture(scope="class")
    def census(self):
        return enumerate_tribrackets(4).items

    @pytest.mark.parametrize("cap", [1, 40, 167, 168, 169])
    def test_cap_returns_a_prefix(self, census, cap):
        # every complete table reaching the verifier passes, so a cap of k
        # returns the first k members and stops only if a 169th is needed
        capped = enumerate_tribrackets(4, EnumerationBudget(max_candidates=cap))
        assert capped.items == census[:cap]
        assert capped.complete == (cap >= 168)


def conjugator(row0, row):
    """The relabelling the census applies to the tables of row0 to reach those of row."""
    (key0, order0), (key, order) = _row_class(row0), _row_class(row)
    assert key0 == key
    sigma = [0] * len(row)
    for x, y in zip(order0, order):
        sigma[x] = y
    return sigma


class TestFirstRowClasses:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_the_searched_row_conjugates_into_every_row_of_its_class(self, n):
        # the search reaches first rows in lexicographic order, so the first of each class
        # is the one searched when every row is reached, as at orders 1-5
        searched = {}
        for row in itertools.permutations(range(n)):
            row0 = searched.setdefault(_row_class(row)[0], row)
            sigma = conjugator(row0, row)
            assert sigma[0] == 0 and sorted(sigma) == list(range(n))
            assert [sigma[row0[x]] for x in range(n)] == [row[sigma[x]] for x in range(n)]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_rows_share_a_key_exactly_when_a_relabelling_fixing_0_conjugates_them(self, n):
        rows = list(itertools.permutations(range(n)))
        fixing_0 = [(0, *rest) for rest in itertools.permutations(range(1, n))]
        for row in rows:
            orbit = {tuple(s[row[s.index(y)]] for y in range(n)) for s in fixing_0}
            assert orbit == {r for r in rows if _row_class(r)[0] == _row_class(row)[0]}

    @pytest.fixture(scope="class")
    def census4(self):
        return enumerate_tribrackets(4).items

    @pytest.fixture(scope="class")
    def census5(self):
        return enumerate_tribrackets(5).items

    def test_every_order4_cap_returns_a_prefix(self, census4):
        for cap in range(1, 169):
            capped = enumerate_tribrackets(4, EnumerationBudget(max_candidates=cap))
            assert capped.items == census4[:cap]
            assert capped.complete == (cap == 168)

    @pytest.mark.parametrize("cap", [41, 100, 250, 479])
    def test_order5_caps_inside_relabelled_rows_return_a_prefix(self, census5, cap):
        capped = enumerate_tribrackets(5, EnumerationBudget(max_candidates=cap))
        assert capped.items == census5[:cap] and not capped.complete

    def test_a_deadline_inside_a_relabelled_block_returns_a_sorted_strict_prefix(
        self, census4, monkeypatch
    ):
        # first row 1 3 2 4 is the first relabelled one: its 8 tables, census4[32:40], are
        # the images of those of 1 2 4 3.  Each reads the clock once before it is handed on;
        # the deadline is the reading taken before the second, so the third is refused
        import tribrackets.enumeration as enumeration

        assert [t.table[0][0] for t in census4[31:41]] == [(1, 2, 4, 3)] + [(1, 3, 2, 4)] * 8 + [
            (1, 3, 4, 2)
        ]
        ticks, read = itertools.count(), []
        clock = type("Clock", (), {"monotonic": lambda: read.append(next(ticks)) or read[-1]})
        monkeypatch.setattr(enumeration, "time", clock)
        handed = []
        monkeypatch.setattr(
            enumeration, "verify_tribracket", lambda t: handed.append(read[-1]) or verify_tribracket(t)
        )
        assert enumerate_tribrackets(4, EnumerationBudget(timeout=10**9)).items == census4
        assert handed[33] == handed[32] + 1  # no value is tried between relabelled tables
        result = enumerate_tribrackets(4, EnumerationBudget(timeout=handed[33] - read[0]))
        assert not result.complete and result.items == census4[:34]
        keys = [flat(t) for t in result]
        assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))

    def test_the_idempotent_census_keeps_the_diagonal_exactly_when_it_verifies(self, census4):
        diagonal = PartialProduct.diagonal(4)
        kept = 0
        for t in census4:
            passed = verify_algebra(TribracketAlgebra(t, diagonal)).passed
            assert enumerate_idempotent_products(t) == ([diagonal] if passed else [])
            kept += passed
        assert 0 < kept < 168


# sha256 of the order-5 census written one tensor a line, entries joined by
# commas, from a complete run of an enumerator that forced no cells
ORDER5_DIGEST = "9da7221b49c6e40889d19dce6820bcfdaf5bf3da441fb5e2b666f44ff05c87e1"
# sha256 of repr(p.table) for every compatible product p of every tensor of
# orders 1-5 in census order, b"|" after each tensor, from a product search
# that tested cancellation and all four r5-compat families
PRODUCTS_DIGEST = "054b4bd5841dcd50316f6cfe0e46a9a6cd77d88290935c4776a9c858492a740e"

# sha256 of repr(p.table) for every compatible product p of every
# alexander_tribracket(n, x, y), n = 6..9, x and y running over the units mod n
# in ascending order, b"|" after each tensor, from a search that decided the
# product cell by cell
LINEAR_PRODUCTS_DIGEST = "8258b53adaedc34db311aa8ef56159410007efdac1a6688ade9fde585141618e"


def test_product_lists_of_linear_tensors_6_to_9():
    digest, count = hashlib.sha256(), 0
    for n in range(6, 10):
        units = [x for x in range(1, n) if math.gcd(x, n) == 1]
        for x, y in itertools.product(units, repeat=2):
            for p in enumerate_products(alexander_tribracket(n, x, y)):
                digest.update(repr(p.table).encode())
                count += 1
            digest.update(b"|")
    assert count == 836
    assert digest.hexdigest() == LINEAR_PRODUCTS_DIGEST


class TestOrder5Census:
    @pytest.fixture(scope="class")
    def census(self):
        result = enumerate_tribrackets(5, EnumerationBudget(timeout=120))
        assert result.complete
        return result.items

    def test_count(self, census):
        assert len(census) == 480

    def test_strictly_sorted(self, census):
        keys = [flat(t) for t in census]
        assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))

    def test_everything_emitted_passes_the_verifier(self, census):
        assert all(verify_tribracket(t).passed for t in census)

    def test_digest(self, census):
        text = "".join(",".join(map(str, flat(t))) + "\n" for t in census)
        assert hashlib.sha256(text.encode()).hexdigest() == ORDER5_DIGEST

    def test_product_lists_of_orders_1_to_5(self, census, monkeypatch):
        # the product search prunes by a generating set of the product axioms
        # only; its lists must equal those of a search that tested all of
        # them, and the leaf verifier must never reject a table
        import tribrackets.enumeration as enumeration

        verdicts = []

        def recording(alg):
            report = verify_algebra(alg)
            verdicts.append(report.passed)
            return report

        monkeypatch.setattr(enumeration, "verify_algebra", recording)
        digest, count = hashlib.sha256(), 0
        for tensors in [*(enumerate_tribrackets(n) for n in range(1, 5)), census]:
            for t in tensors:
                for p in enumerate_products(t):
                    digest.update(repr(p.table).encode())
                    count += 1
                digest.update(b"|")
        assert count == 899 and all(verdicts) and len(verdicts) == 899
        assert digest.hexdigest() == PRODUCTS_DIGEST
