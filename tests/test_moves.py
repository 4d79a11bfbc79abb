import dataclasses
import functools
import hashlib
import itertools
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tribrackets import (
    Constraint,
    ConstraintKind,
    DiagramParseError,
    LocalMovePair,
    MoveCheckReport,
    MoveFragment,
    PartialProduct,
    ShapeError,
    Tribracket,
    TribracketAlgebra,
    alexander_tribracket,
    builtin_move_pairs,
    check_move_invariance,
    enumerate_products,
    verify_algebra,
    verify_tribracket,
)
from tribrackets import coloring
from tribrackets.coloring import _solutions
from tribrackets.moves import _compile_fragment
from tests.conftest import (
    CYC_PRODUCT,
    FULL_PRODUCT,
    SEVERAL_VALUED,
    Z3_TENSOR,
    arbitrary_algebras,
    census_algebras,
    latin_slabs,
    latin_squares,
    search_walks,
)


def extensions(alg, frag, env):
    """Extensions of env (keys in boundary order) to the fragment's internal regions."""
    return Counter(_solutions(alg, *_compile_fragment(tuple(env), frag)))[tuple(env.values())]


MOVE_IDS = [
    "R1a", "R1b", "R1c", "R1d",
    "R2a", "R2b", "R2c", "R2d",
    "R3a",
    "R4.1", "R4.10",
    "R5.7", "R5.10", "R5.13", "R5.16",
    "IH",
]


def pairs_by_id():
    return {p.move_id: p for p in builtin_move_pairs()}


def all_verified_z3_algebras():
    return [TribracketAlgebra(Z3_TENSOR, p) for p in enumerate_products(Z3_TENSOR)]


class TestCatalog:
    def test_move_ids(self):
        assert [p.move_id for p in builtin_move_pairs()] == MOVE_IDS

    def test_each_call_returns_a_new_equal_list(self):
        first, second = builtin_move_pairs(), builtin_move_pairs()
        assert first == second and first is not second
        first.clear()
        assert builtin_move_pairs() == second

    def test_only_ih_requires_idempotency(self):
        flags = {p.move_id: p.requires_idempotent for p in builtin_move_pairs()}
        assert flags.pop("IH") is True
        assert not any(flags.values())

    def test_fragment_sizes_within_bounds(self):
        for p in builtin_move_pairs():
            assert len(p.boundary) <= 6
            assert len(p.before.internal) <= 3
            assert len(p.after.internal) <= 3


class TestSoundness:
    def test_every_verified_z3_algebra_passes_every_non_ih_move(self):
        for alg in all_verified_z3_algebras():
            assert verify_algebra(alg).passed
            for pair in builtin_move_pairs():
                if pair.requires_idempotent:
                    continue
                report = check_move_invariance(alg, pair)
                assert report.passed, f"{pair.move_id}: {report.summary()}"

    def test_every_census_algebra_of_orders_1_to_4_passes_every_non_ih_move(self):
        algebras = census_algebras()
        assert len(algebras) == 233
        pairs = [pair for pair in builtin_move_pairs() if not pair.requires_idempotent]
        assert len(pairs) == 15
        for alg in algebras:
            for pair in pairs:
                report = check_move_invariance(alg, pair)
                assert report.passed, (alg, report.summary())

    def test_z4_algebra_passes_every_non_ih_move(self, z4_algebra):
        for pair in builtin_move_pairs():
            if pair.requires_idempotent:
                continue
            assert check_move_invariance(z4_algebra, pair).passed, pair.move_id

    def test_r4_boundary_extends_uniquely_when_product_defined(self, full_algebra):
        pair = pairs_by_id()["R4.1"]
        for a in range(1, 4):
            for b in range(1, 4):
                ab = full_algebra.product.mul(a, b)
                env = {"a": a, "b": b, "m": ab}
                assert extensions(full_algebra, pair.before, env) == 1
                assert extensions(full_algebra, pair.after, env) == 1

    def test_r5_extension_counts_agree_pointwise(self, full_algebra):
        pair = pairs_by_id()["R5.7"]
        for values in itertools.product((1, 2, 3), repeat=4):
            env = dict(zip(pair.boundary, values))
            assert extensions(full_algebra, pair.before, env) == extensions(
                full_algebra, pair.after, env
            )


class TestIH:
    def test_diagonal_product_passes(self, diag_algebra):
        assert check_move_invariance(diag_algebra, pairs_by_id()["IH"]).passed

    def test_full_product_fails_with_witness(self, full_algebra):
        report = check_move_invariance(full_algebra, pairs_by_id()["IH"])
        assert not report.passed
        env, before, after = report.witness
        assert before != after
        # the witness is concrete: recounting reproduces it
        pair = pairs_by_id()["IH"]
        assert extensions(full_algebra, pair.before, env) == before
        assert extensions(full_algebra, pair.after, env) == after

    def test_ih_passes_exactly_for_diagonal_only_products(self):
        # over every census algebra of orders 1-4, the IH pair holds for
        # every boundary coloring iff multiplication happens on equal
        # operands only (with aa = a where defined)
        pair = pairs_by_id()["IH"]
        for alg in census_algebras():
            diagonal_only = all(
                v is None or a == b == v
                for a, row in enumerate(alg.product.table, 1)
                for b, v in enumerate(row, 1)
            )
            assert check_move_invariance(alg, pair).passed == diagonal_only

    def test_is_idempotent_additionally_needs_the_whole_diagonal(self, empty_algebra):
        pair = pairs_by_id()["IH"]
        assert check_move_invariance(empty_algebra, pair).passed
        assert not empty_algebra.idempotent


class TestEmptyFragments:
    def test_a_pair_with_no_regions_passes(self, full_algebra):
        empty = MoveFragment((), ())
        pair = LocalMovePair("X", (), empty, empty)
        assert Counter(_solutions(full_algebra, *_compile_fragment((), empty))) == {(): 1}
        assert check_move_invariance(full_algebra, pair) == MoveCheckReport("X", True)

    def test_a_failure_with_no_boundary_names_no_coloring(self):
        # before: the square l*l = l, which the empty product never defines
        square = MoveFragment(("l",), (Constraint(ConstraintKind.VERTEX, ("l", "l", "l")),))
        pair = LocalMovePair("X", (), square, MoveFragment((), ()))
        alg = TribracketAlgebra(alexander_tribracket(3, 1, 1), PartialProduct.empty(3))
        report = check_move_invariance(alg, pair)
        assert report == MoveCheckReport("X", False, ({}, 0, 1))
        assert report.summary() == "X  FAIL: 0 extensions vs 1"

    def test_a_one_region_boundary_tallies_to_one_tuples(self, full_algebra, empty_algebra):
        # before: the square w*w, which the empty product never defines
        square = MoveFragment(("l",), (Constraint(ConstraintKind.VERTEX, ("w", "l", "w")),))
        pair = LocalMovePair("X", ("w",), square, MoveFragment((), ()))
        compiled = _compile_fragment(("w",), square)
        assert Counter(_solutions(full_algebra, *compiled)) == {(1,): 1, (2,): 1, (3,): 1}
        assert Counter(_solutions(empty_algebra, *compiled)) == {}
        assert check_move_invariance(full_algebra, pair) == MoveCheckReport("X", True)
        report = check_move_invariance(empty_algebra, pair)
        assert report == MoveCheckReport("X", False, ({"w": 1}, 0, 1))
        assert report.summary() == "X  FAIL at w=1: 0 extensions vs 1"


def _cross(*refs):
    return Constraint(ConstraintKind.CROSSING, refs)


class TestMalformedPairs:
    """A pair is refused as Diagram refuses the same defect, before any check."""

    EMPTY = MoveFragment((), ())

    def test_an_internal_region_may_not_repeat_a_boundary_region(self):
        # once counted as a second, unconstrained w: "FAIL at e=1 w=1: 3 extensions vs 1"
        kink = MoveFragment(("w",), (_cross("w", "e", "e", "w"),))
        with pytest.raises(DiagramParseError, match="duplicate region declaration 'w'"):
            LocalMovePair("dup", ("w", "e"), kink, self.EMPTY)

    def test_a_boundary_region_may_not_repeat(self):
        with pytest.raises(DiagramParseError, match="duplicate region declaration 'w'"):
            LocalMovePair("dup", ("w", "w"), self.EMPTY, self.EMPTY)

    def test_a_bad_region_name_is_refused(self):
        with pytest.raises(DiagramParseError, match="bad region name 'w-1'"):
            LocalMovePair("bad", ("w-1",), self.EMPTY, self.EMPTY)

    def test_a_constraint_may_not_name_an_undeclared_region(self):
        kink = MoveFragment(("l",), (_cross("w", "e", "e", "zz"),))
        with pytest.raises(DiagramParseError, match="undeclared region 'zz'"):
            LocalMovePair("und", ("w", "e"), self.EMPTY, kink)

    def test_a_merge_may_not_name_an_undeclared_region(self):
        for merge in (("w", "zz"), ("zz", "w")):
            with pytest.raises(DiagramParseError, match="undeclared region 'zz'"):
                LocalMovePair("und", ("w", "e"), self.EMPTY, MoveFragment((), (), (merge,)))

    @pytest.mark.parametrize(
        "merge, name", [((["w"], "e"), "['w']"), (("w", ["e"]), "['e']")], ids=["first", "second"]
    )
    def test_a_merge_naming_a_region_that_is_not_a_str_is_a_bad_name(self, merge, name):
        # once a bare TypeError: unhashable type: 'list'
        with pytest.raises(DiagramParseError) as err:
            LocalMovePair("m", ("w", "e"), MoveFragment((), (), (merge,)), self.EMPTY)
        assert str(err.value) == f"bad region name {name}"

    def test_a_merged_region_may_not_be_merged_again(self):
        for merges in ((("w", "e"), ("e", "s")), (("w", "w"),), (("w", "s"), ("e", "s"))):
            with pytest.raises(DiagramParseError, match="chains or repeats a merge"):
                LocalMovePair("m", ("w", "e", "s"), MoveFragment((), (), merges), self.EMPTY)

    def test_a_constraint_that_is_not_a_constraint_is_refused(self):
        # once AttributeError: 'tuple' object has no attribute 'refs'
        for before, after in ((MoveFragment((), (("a",),)), self.EMPTY),
                              (self.EMPTY, MoveFragment((), (("a",),)))):
            with pytest.raises(ShapeError) as err:
                LocalMovePair("t", ("a",), before, after)
            assert str(err.value) == "the constraint must be a Constraint, got ('a',)"

    @pytest.mark.parametrize("side", ["before", "after"])
    @pytest.mark.parametrize("bad", [None, (), "fragment"], ids=["none", "tuple", "str"])
    def test_a_side_that_is_not_a_fragment_is_refused(self, side, bad):
        sides = {"before": self.EMPTY, "after": self.EMPTY, side: bad}
        with pytest.raises(ShapeError) as err:
            LocalMovePair("t", ("a",), **sides)
        assert str(err.value) == f"the move fragment must be a MoveFragment, got {bad!r}"

    @pytest.mark.parametrize(
        "boundary, internal",
        [((1,), ()), (("a",), (1,)), (("a", 1), ("b",))],
        ids=["boundary", "internal", "second-boundary"],
    )
    def test_a_region_that_is_not_a_str_is_a_bad_name(self, boundary, internal):
        with pytest.raises(DiagramParseError) as err:
            LocalMovePair("t", boundary, MoveFragment(internal, ()), self.EMPTY)
        assert str(err.value) == "bad region name 1"

    @pytest.mark.parametrize(
        "boundary, fragment, message",
        [
            # once a pair over the boundary regions 'a' and 'b'
            ("ab", EMPTY, "the region list must be a sequence, not str: 'ab'"),
            # the rest once raised a bare TypeError
            (None, EMPTY, "the region list must be a sequence, not NoneType: None"),
            (("a",), MoveFragment(None, ()),
             "the region list must be a sequence, not NoneType: None"),
            (("a",), MoveFragment((), None),
             "the constraint list must be a sequence, not NoneType: None"),
            (("a",), MoveFragment((), (), None),
             "the merge list must be a sequence, not NoneType: None"),
        ],
        ids=["boundary-str", "boundary-none", "internal-none", "constraints-none", "merges-none"],
    )
    def test_a_str_or_non_sequence_for_a_list_is_refused(self, boundary, fragment, message):
        with pytest.raises(ShapeError) as err:
            LocalMovePair("t", boundary, fragment, self.EMPTY)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "merge", [("a",), ("a", "b", "a"), "ab"], ids=["one", "three", "str"]
    )
    def test_a_merge_that_is_not_a_pair_is_refused(self, merge):
        # once ValueError: not enough (or too many) values to unpack; "ab" was
        # read as the merge of 'a' into 'b'
        with pytest.raises(DiagramParseError) as err:
            LocalMovePair("m", ("a", "b"), MoveFragment((), (), (merge,)), self.EMPTY)
        assert str(err.value) == f"merge {merge!r} is not a pair of regions"

    def test_a_list_changed_after_the_check_leaves_the_pair_as_checked(self, full_algebra):
        # a pair once held the caller's list: appending this crossing after the
        # first check left the kept schedule reporting PASS for a pair that fails
        kink = _cross("w", "e", "e", "l")
        constraints = [kink]
        pair = LocalMovePair("k", ["w", "e"], MoveFragment(["l"], constraints), self.EMPTY)
        assert check_move_invariance(full_algebra, pair).passed
        constraints.append(_cross("w", "e", "w", "l"))
        assert pair.before == MoveFragment(("l",), (kink,)) and pair.boundary == ("w", "e")
        assert check_move_invariance(full_algebra, pair).passed
        grown = LocalMovePair("k", ("w", "e"), MoveFragment(("l",), constraints), self.EMPTY)
        report = check_move_invariance(full_algebra, grown)
        assert report.summary() == "k  FAIL at e=2 w=1: 0 extensions vs 1"
        assert report == oracle_check(full_algebra, grown)

    def test_merge_pairs_are_stored_as_tuples(self):
        poke = pairs_by_id()["R2a"]
        after = MoveFragment([], [], [["s", "n"]])
        pair = LocalMovePair("R2a", list(poke.boundary), poke.before, after)
        assert pair == poke and hash(pair) == hash(poke)
        assert pair.before is poke.before and pair.after.merges == (("s", "n"),)
        # a fragment built from lists keeps tuples itself, so it is the pair's copy
        before = MoveFragment(list(poke.before.internal), list(poke.before.constraints))
        pair = LocalMovePair("R2a", poke.boundary, before, after)
        assert pair.before == before == poke.before and hash(before) == hash(poke.before)
        assert pair.after == after and hash(after) == hash(poke.after)

    def test_every_builtin_pair_rebuilds(self):
        for pair in builtin_move_pairs():
            assert dataclasses.replace(pair) == pair


class TestCompiledOnce:
    def test_each_fragment_is_planned_once_over_repeated_checks(
        self, monkeypatch, full_algebra, cyc_algebra, z4_algebra
    ):
        calls = []
        plan = coloring._plan
        monkeypatch.setattr(coloring, "_plan", lambda *args: calls.append(args) or plan(*args))
        fresh = [dataclasses.replace(pair) for pair in builtin_move_pairs()]  # none compiled yet
        reports = [
            [check_move_invariance(alg, pair) for pair in fresh]
            for _ in range(3) for alg in (full_algebra, cyc_algebra, z4_algebra)
        ]
        assert len(calls) == 2 * len(fresh)  # one plan per side of each pair
        # the catalogue's own pairs keep theirs: once checked, they plan nothing again
        for pair in builtin_move_pairs():
            check_move_invariance(full_algebra, pair)
        calls.clear()
        again = [
            [check_move_invariance(alg, pair) for pair in builtin_move_pairs()]
            for _ in range(3) for alg in (full_algebra, cyc_algebra, z4_algebra)
        ]
        assert calls == [] and again == reports

    def test_a_user_built_pair_reports_the_same_on_first_and_later_checks(
        self, full_algebra, cyc_algebra, empty_algebra
    ):
        slide = pairs_by_id()["R5.13"]
        for alg in (*perturbed_census_algebras()[:6], full_algebra, cyc_algebra, empty_algebra):
            pair = LocalMovePair("mine", slide.boundary, slide.before, slide.after)
            first = check_move_invariance(alg, pair)
            assert first == oracle_check(alg, pair)
            assert [check_move_invariance(alg, pair) for _ in range(2)] == [first, first]
        # a pair first checked on one algebra reports on the next as a new pair does
        pair = LocalMovePair("mine", slide.boundary, slide.before, slide.after)
        check_move_invariance(full_algebra, pair)
        assert check_move_invariance(cyc_algebra, pair) == oracle_check(cyc_algebra, pair)


class TestResultSlotKinks:
    @given(alg=arbitrary_algebras(sizes=(1, 2, 3, 4)))
    @settings(max_examples=200, deadline=None)
    def test_r1a_and_r1c_pass_on_arbitrary_tables(self, alg):
        # their loop region sits in the bracket's result slot, so every
        # boundary coloring has exactly one extension on each side
        for move_id in ("R1a", "R1c"):
            assert check_move_invariance(alg, pairs_by_id()[move_id]).passed


def perturbed_census_algebras():
    """40 seeded census algebras of orders 3 and 4, each with one or two cells
    of its tensor or product changed (a product cell may become undefined)."""
    rng = random.Random(19)
    out = []
    for alg in rng.sample([alg for alg in census_algebras() if alg.n >= 3], 40):
        n = alg.n
        cube = [[list(row) for row in mat] for mat in alg.tribracket.table]
        square = [list(row) for row in alg.product.table]
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.5:
                a, b, c = (rng.randrange(n) for _ in range(3))
                cube[a][b][c] = rng.choice([v for v in range(1, n + 1) if v != cube[a][b][c]])
            else:
                a, b = rng.randrange(n), rng.randrange(n)
                others = [v for v in (None, *range(1, n + 1)) if v != square[a][b]]
                square[a][b] = rng.choice(others)
        out.append(TribracketAlgebra(Tribracket(n, cube), PartialProduct(n, square)))
    return out


class TestFailWitnesses:
    # taken before each move pair kept its compiled fragments
    DIGEST = "3a0d241ad5e49414102dcb4b3051c41c8e40abe60a2e1a4b10ecb4eaa6264446"

    def test_reports_on_perturbed_census_algebras_match_the_pinned_digest(self):
        pairs = builtin_move_pairs()
        lines = [check_move_invariance(alg, pair).summary()
                 for alg in perturbed_census_algebras() for pair in pairs]
        # every move but the result-slot kinks fails somewhere, so the digest
        # pins FAIL witnesses and extension counts of each of them
        failing = {line.split()[0] for line in lines if "FAIL" in line}
        assert failing == set(MOVE_IDS) - {"R1a", "R1c"}
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.DIGEST


class TestMutationDetection:
    def test_broken_vertex_compat_fails_r4(self):
        table = [list(row) for row in FULL_PRODUCT.table]
        table[0][0], table[0][1] = table[0][1], table[0][0]  # keeps cancellation
        broken = TribracketAlgebra(Z3_TENSOR, PartialProduct(3, tuple(map(tuple, table))))
        assert not verify_algebra(broken).passed
        report = check_move_invariance(broken, pairs_by_id()["R4.1"])
        assert not report.passed
        env, before, after = report.witness
        assert before != after

    def test_broken_slide_compat_fails_r5(self):
        table = [list(row) for row in CYC_PRODUCT.table]
        table[0][1] = None  # drop one defined cell: definedness stops matching
        broken = TribracketAlgebra(Z3_TENSOR, PartialProduct(3, tuple(map(tuple, table))))
        assert not verify_algebra(broken).passed
        failed = [
            pair.move_id
            for pair in builtin_move_pairs()
            if not pair.requires_idempotent
            and not check_move_invariance(broken, pair).passed
        ]
        assert any(move.startswith("R5") for move in failed)


def all_order3_latin_cubes():
    """Every 3x3x3 tensor whose lines are bijective in all three directions."""
    n = 3
    cells = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
    table = [[[0] * n for _ in range(n)] for _ in range(n)]
    out = []

    def free(a, b, c, v):
        return (
            all(table[a][b][cc] != v for cc in range(c))
            and all(table[a][bb][c] != v for bb in range(b))
            and all(table[aa][b][c] != v for aa in range(a))
        )

    def rec(i):
        if i == len(cells):
            out.append(Tribracket(n, tuple(tuple(tuple(r) for r in m) for m in table)))
            return
        a, b, c = cells[i]
        for v in range(1, n + 1):
            if free(a, b, c, v):
                table[a][b][c] = v
                rec(i + 1)

    rec(0)
    return out


random_products = st.builds(
    lambda cells: PartialProduct(
        3, tuple(tuple(cells[3 * a + b] for b in range(3)) for a in range(3))
    ),
    st.lists(st.sampled_from([None, 1, 2, 3]), min_size=9, max_size=9),
)

# each move is transcribed so that passing it for every boundary coloring is
# equivalent to one verifier family coming back empty
SHADOWS = {
    "R4.1": "r4-compat",
    "R4.10": "r4-compat",
    "R5.7": "r5-compat-1",
    "R5.10": "r5-compat-2",
    "R5.13": "r5-compat-3",
    "R5.16": "r5-compat-4",
}


class TestShadowCertification:
    def test_r3a_is_exactly_the_coherence_pair(self):
        # all 24 order-3 line-bijective tensors: 12 cohere, 12 do not, and
        # R3a agrees with the verifier on every one of them
        r3a = pairs_by_id()["R3a"]
        cubes = all_order3_latin_cubes()
        assert len(cubes) == 24
        verdicts = []
        for t in cubes:
            alg = TribracketAlgebra(t, PartialProduct.empty(3))
            verdicts.append(check_move_invariance(alg, r3a).passed)
            assert verdicts[-1] == verify_tribracket(t).passed
        assert verdicts.count(True) == 12

    @given(product=random_products)
    @settings(max_examples=60, deadline=None)
    def test_vertex_moves_match_their_verifier_families(self, product):
        alg = TribracketAlgebra(Z3_TENSOR, product)
        families = {v.axiom for v in verify_algebra(alg).violations}
        for pair in builtin_move_pairs():
            family = SHADOWS.get(pair.move_id)
            if family is None:
                continue
            assert check_move_invariance(alg, pair).passed == (family not in families), (
                pair.move_id,
                sorted(families),
            )


def _r4_10_holds(alg):
    """For every defined a*b = p, [a, m, b] = p holds exactly at m = p."""
    n = alg.n
    return all(
        (alg.tribracket.bracket(a, m, b) == p) == (m == p)
        for a, b in itertools.product(range(1, n + 1), repeat=2)
        if (p := alg.product.mul(a, b)) is not None
        for m in range(1, n + 1)
    )


class TestVertexMovesAreTheirAxioms:
    @given(alg=arbitrary_algebras(sizes=(1, 2, 3, 4)))
    @settings(max_examples=300, deadline=None)
    def test_vertex_moves_fail_exactly_when_their_axiom_fails(self, alg):
        # any tensor and partial product, axioms unchecked
        failing = {v.axiom for v in verify_algebra(alg).violations}
        pairs = pairs_by_id()
        for move_id, family in (("R4.1", "r4-compat"), ("R5.7", "r5-compat-1"),
                                ("R5.10", "r5-compat-2"), ("R5.13", "r5-compat-3"),
                                ("R5.16", "r5-compat-4")):
            assert check_move_invariance(alg, pairs[move_id]).passed == (family not in failing)
        r4_10 = check_move_invariance(alg, pairs["R4.10"]).passed
        assert r4_10 == _r4_10_holds(alg)
        # [a, m, b] = p has one solution m when slot b is bijective
        if "slot-b-bijection" not in {v.axiom for v in verify_tribracket(alg.tribracket).violations}:
            assert r4_10 == ("r4-compat" not in failing)


@functools.cache
def census_tensors():
    """Every tensor of orders 1-4 that passes its axioms, in census order."""
    return tuple(dict.fromkeys(alg.tribracket for alg in census_algebras()))


@st.composite
def crossing_tensors(draw):
    """A tensor of order 1-4 that keeps all, some or none of its axioms.

    An arbitrary table of order 1-3; an isotope of a census tensor (slots and
    values permuted independently: every slot stays bijective, coherence may
    fail); or a Latin square read off two of the three slots (from order 2 the
    third slot is not bijective).  Then, half the time, one cell is redrawn.
    """
    kind = draw(st.sampled_from(["arbitrary", "isotope", "two-slot"]))
    if kind == "isotope":
        t = draw(st.sampled_from(census_tensors()))
        n, table = t.n, t.table
        pa, pb, pc, pv = (draw(st.permutations(range(n))) for _ in range(4))
        cube = [[[pv[table[pa[a]][pb[b]][pc[c]] - 1] + 1 for c in range(n)]
                 for b in range(n)] for a in range(n)]
    else:
        n = draw(st.integers(1, 3))
        if kind == "arbitrary":
            value = st.integers(1, n)
            cube = [[[draw(value) for _ in range(n)] for _ in range(n)] for _ in range(n)]
        else:
            rows, values = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
            square = [[values[(rows[x] + y) % n] + 1 for y in range(n)] for x in range(n)]
            kept = draw(st.sampled_from([(0, 1), (0, 2), (1, 2)]))  # the slots read
            cube = [[[square[(a, b, c)[kept[0]]][(a, b, c)[kept[1]]] for c in range(n)]
                     for b in range(n)] for a in range(n)]
    if draw(st.booleans()):
        a, b, c = (draw(st.integers(0, n - 1)) for _ in range(3))
        cube[a][b][c] = draw(st.integers(1, n))
    return Tribracket(n, cube)


def _kinks_biject(t):
    """For every x, l -> [l, x, x] is a bijection: what the kinks R1b and R1d read."""
    r = range(1, t.n + 1)
    return all(len({t.bracket(l, x, x) for l in r}) == t.n for x in r)


# per crossing move, the axioms whose failure it detects: on any tensor it fails
# exactly when one of them fails ("kinks" is _kinks_biject failing)
CROSSING_MOVE_AXIOMS = {
    "R1a": set(),
    "R1b": {"kinks"},
    "R1c": set(),
    "R1d": {"kinks"},
    "R2a": {"slot-b-bijection", "slot-c-bijection"},
    "R2b": {"slot-b-bijection", "slot-c-bijection"},
    "R2c": {"slot-a-bijection", "slot-c-bijection"},
    "R2d": {"slot-a-bijection", "slot-c-bijection"},
    # the internal region is a forced result on both sides
    "R3a": {"coherence-1", "coherence-2"},
}


class TestCrossingMovesAreTheirAxioms:
    @given(t=crossing_tensors())
    @settings(max_examples=300, deadline=None)
    def test_crossing_moves_fail_exactly_when_their_axioms_fail(self, t):
        failing = {v.axiom for v in verify_tribracket(t).violations}
        if not _kinks_biject(t):
            failing.add("kinks")
            assert "slot-a-bijection" in failing  # slot-a bijectivity implies the kinks'
        alg = TribracketAlgebra(t, PartialProduct.empty(t.n))  # no crossing reads the product
        pairs = pairs_by_id()
        for move_id, axioms in CROSSING_MOVE_AXIOMS.items():
            passed = check_move_invariance(alg, pairs[move_id]).passed
            assert passed == failing.isdisjoint(axioms), (move_id, sorted(failing))

    def test_r2c_r2d_and_r3a_passing_imply_r2a_and_r2b_passing(self):
        # the slot-b lemma at the move level: R2c/R2d pass when slots a and c are
        # bijective, R3a when coherence holds, and those make slot b bijective, which
        # with slot c is what R2a/R2b check; over every order-2 tensor and every
        # order-3 table whose b-slabs are Latin squares, with the empty product
        order2 = [Tribracket(2, [[cells[:2], cells[2:4]], [cells[4:6], cells[6:]]])
                  for cells in itertools.product((1, 2), repeat=8)]
        order3 = [latin_slabs(slabs) for slabs in itertools.product(latin_squares(3), repeat=3)]
        pairs, tally = pairs_by_id(), Counter()
        for t in order2 + order3:
            alg = TribracketAlgebra(t, PartialProduct.empty(t.n))
            passed = {m for m in ("R2a", "R2b", "R2c", "R2d", "R3a")
                      if check_move_invariance(alg, pairs[m]).passed}
            premise = {"R2c", "R2d", "R3a"} <= passed
            if premise:
                assert {"R2a", "R2b"} <= passed, t
            tally[t.n, premise, "R2a" in passed, "R2b" in passed] += 1
        # the premise holds on the census's 2 and 12 tensors; R2a/R2b pass on as many
        # more, whose slots b and c are bijective but which fail coherence (and at
        # order 2 slot a)
        assert tally == {
            (2, True, True, True): 2, (2, False, True, True): 2, (2, False, False, False): 252,
            (3, True, True, True): 12, (3, False, True, True): 12, (3, False, False, False): 1704,
        }

    def test_the_kinks_do_not_need_slot_a_bijectivity(self):
        # [a, b, c] is a on the diagonal b = c and 1 off it
        t = Tribracket(2, [[[a if b == c else 1 for c in (1, 2)] for b in (1, 2)] for a in (1, 2)])
        assert _kinks_biject(t)
        assert "slot-a-bijection" in {v.axiom for v in verify_tribracket(t).violations}
        alg = TribracketAlgebra(t, PartialProduct.empty(2))
        for move_id in ("R1b", "R1d"):
            assert check_move_invariance(alg, pairs_by_id()[move_id]).passed


class TestReports:
    def test_summary_formats(self, full_algebra, diag_algebra):
        ok = check_move_invariance(diag_algebra, pairs_by_id()["IH"])
        assert ok.summary() == "IH  PASS"
        bad = check_move_invariance(full_algebra, pairs_by_id()["IH"])
        assert bad.summary().startswith("IH  FAIL at ")

    def test_reports_are_deterministic(self, full_algebra):
        pair = pairs_by_id()["IH"]
        assert check_move_invariance(full_algebra, pair) == check_move_invariance(
            full_algebra, pair
        )


def oracle_extensions(alg, frag, env):
    """Brute force: count the internal colorings that satisfy every constraint."""
    for r1, r2 in frag.merges:
        if env[r1] != env[r2]:
            return 0
    n = alg.n
    br = alg.tribracket.bracket
    mul = alg.product.mul
    count = 0
    for values in itertools.product(range(1, n + 1), repeat=len(frag.internal)):
        full = dict(env)
        full.update(zip(frag.internal, values))
        ok = True
        for con in frag.constraints:
            if con.kind is ConstraintKind.CROSSING:
                a, b, c, d = (full[r] for r in con.refs)
                if br(a, b, c) != d:
                    ok = False
                    break
            else:
                left, middle, right = (full[r] for r in con.refs)
                if mul(left, right) != middle:
                    ok = False
                    break
        if ok:
            count += 1
    return count


def oracle_check(alg, pair):
    """The first boundary coloring, in product order, where the counts differ."""
    for values in itertools.product(range(1, alg.n + 1), repeat=len(pair.boundary)):
        env = dict(zip(pair.boundary, values))
        before = oracle_extensions(alg, pair.before, env)
        after = oracle_extensions(alg, pair.after, env)
        if before != after:
            return MoveCheckReport(pair.move_id, False, (env, before, after))
    return MoveCheckReport(pair.move_id, True)


class TestBruteForceOracle:
    @given(alg=arbitrary_algebras())
    @settings(max_examples=100, deadline=None)
    def test_reports_match_the_oracle_on_arbitrary_tables(self, alg):
        for pair in builtin_move_pairs():
            assert check_move_invariance(alg, pair).summary() == oracle_check(alg, pair).summary()

    def test_reports_match_the_oracle_on_verified_algebras(self, z4_algebra):
        for alg in all_verified_z3_algebras() + [z4_algebra]:
            for pair in builtin_move_pairs():
                assert check_move_invariance(alg, pair) == oracle_check(alg, pair)


@st.composite
def merged_fragments(draw):
    """A boundary of 2-4 regions, and a fragment of 0-2 internal regions, 0-3 crossings
    or vertices drawn from all of them (a region may fill several slots), and 0-2 merges
    of boundary regions into one."""
    boundary = tuple(f"b{i}" for i in range(draw(st.integers(min_value=2, max_value=4))))
    internal = tuple(f"i{i}" for i in range(draw(st.integers(min_value=0, max_value=2))))
    region = st.sampled_from(boundary + internal)
    cons = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from((ConstraintKind.CROSSING, ConstraintKind.VERTEX)))
        arity = 4 if kind is ConstraintKind.CROSSING else 3
        cons.append(Constraint(kind, tuple(draw(region) for _ in range(arity))))
    order = draw(st.permutations(boundary))
    merged = draw(st.integers(min_value=0, max_value=min(2, len(boundary) - 1)))
    return boundary, MoveFragment(internal, cons, [(order[0], r) for r in order[1:merged + 1]])


class TestKernelTallies:
    """From a pair's second check each side is tallied by a kernel that yields its
    boundary values, over an algebra whose reads with one open slot have one value at
    most; it tallies what the search does.  Over any other, every check walks the search."""

    @given(alg=arbitrary_algebras() | st.sampled_from(census_algebras()[:40]),
           case=merged_fragments())
    @settings(max_examples=200, deadline=None)
    def test_kernel_tallies_match_the_search_and_the_oracle(self, alg, case):
        boundary, frag = case
        schedule, ends = _compile_fragment(boundary, frag)
        walked = Counter(_solutions(alg, schedule, ends))
        kernel = coloring._kernel(schedule, ends)
        assert kernel is not None  # 6 regions nest 6 loops at most
        if coloring._single_valued(alg):
            assert Counter(kernel(alg)) == walked
        for values in itertools.product(range(1, alg.n + 1), repeat=len(boundary)):
            assert walked[values] == oracle_extensions(alg, frag, dict(zip(boundary, values)))

    @pytest.mark.parametrize("name", SEVERAL_VALUED)
    def test_a_table_with_a_read_of_several_values_is_walked_by_the_search_at_every_check(
        self, monkeypatch, name
    ):
        alg, walks = SEVERAL_VALUED[name], search_walks(monkeypatch)
        for pair in builtin_move_pairs():
            pair = dataclasses.replace(pair)  # a pair never checked
            want = oracle_check(alg, pair)
            assert [check_move_invariance(alg, pair) for _ in range(3)] == [want] * 3
            assert "kernels" not in vars(pair._compiled)
        assert len(walks) == 16 * 3 * 2  # each side of each check

    def test_the_third_check_over_a_census_algebra_walks_no_search(self, monkeypatch):
        for alg in (alg for alg in census_algebras() if alg.n < 4):
            for pair in builtin_move_pairs():
                pair = dataclasses.replace(pair)
                reports = [check_move_invariance(alg, pair) for _ in range(2)]
                with monkeypatch.context() as patch:
                    walks = search_walks(patch)
                    reports.append(check_move_invariance(alg, pair))
                assert reports == [oracle_check(alg, pair)] * 3 and walks == []

    def test_a_checked_pair_pickles_its_fields_alone(self, full_algebra):
        # its kernels are exec-made functions, which pickle cannot send to another process
        pair = dataclasses.replace(pairs_by_id()["R3a"])
        assert all(check_move_invariance(full_algebra, pair).passed for _ in range(3))
        assert "_compiled" in vars(pair) and "kernels" in vars(pair._compiled)
        copy = pickle.loads(pickle.dumps(pair))
        assert copy == pair and hash(copy) == hash(pair)
        assert vars(copy).keys() == {f.name for f in dataclasses.fields(LocalMovePair)}
        assert [check_move_invariance(full_algebra, copy) for _ in range(3)] == [
            check_move_invariance(full_algebra, pair)] * 3
