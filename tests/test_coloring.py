import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tribrackets import (
    BruteForceCapError,
    Constraint,
    ConstraintKind,
    Diagram,
    DiagramKind,
    HandlebodyModeError,
    PartialProduct,
    ShapeError,
    Tribracket,
    TribracketAlgebra,
    alexander_tribracket,
    builtin_move_pairs,
    count_colorings,
    count_colorings_bruteforce,
    enumerate_colorings,
    load_bundled_algebra,
)
from tribrackets.coloring import _plan, _satisfies, _solutions, _system
from tests.conftest import arbitrary_algebras, census_algebras, k2_cases


class TestBundledCounts:
    def test_theta_and_handcuff_full_product(self, full_algebra, diagrams):
        assert count_colorings(full_algebra, diagrams["theta"]) == 9
        assert count_colorings(full_algebra, diagrams["handcuff"]) == 3

    def test_theta_and_handcuff_diagonal_product(self, diag_algebra, diagrams):
        assert count_colorings(diag_algebra, diagrams["theta"]) == 3
        assert count_colorings(diag_algebra, diagrams["handcuff"]) == 3

    def test_handlebody_pair(self, diag_algebra, diagrams):
        assert count_colorings(diag_algebra, diagrams["hopf_handlebody"]) == 27
        assert count_colorings(diag_algebra, diagrams["genus2_link"]) == 3

    def test_k_pair(self, cyc_algebra, diagrams):
        assert count_colorings(cyc_algebra, diagrams["k1"]) == 3
        assert count_colorings(cyc_algebra, diagrams["k2"]) == 0

    def test_z4_pair(self, z4_algebra, diagrams):
        assert count_colorings(z4_algebra, diagrams["z4_left"]) == 8
        assert count_colorings(z4_algebra, diagrams["z4_right"]) == 4

    def test_single_region_free_diagram(self, full_algebra, z4_algebra):
        d = Diagram("dot", DiagramKind.SPATIAL_GRAPH, ("r",), ())
        assert count_colorings(full_algebra, d) == 3
        assert count_colorings(z4_algebra, d) == 4


class TestEnumerate:
    def test_handcuff_diagonal_gives_constant_colorings(self, diag_algebra, diagrams):
        got = enumerate_colorings(diag_algebra, diagrams["handcuff"])
        assert got == [{"o": v, "p": v, "q": v} for v in (1, 2, 3)]

    def test_unsatisfiable_diagram_is_empty(self, cyc_algebra, diagrams):
        assert enumerate_colorings(cyc_algebra, diagrams["k2"]) == []

    def test_theta_full_product_has_two_free_regions(self, full_algebra, diagrams):
        got = enumerate_colorings(full_algebra, diagrams["theta"])
        assert len(got) == 9
        assert {(c["o"], c["q"]) for c in got} == {
            (o, q) for o in (1, 2, 3) for q in (1, 2, 3)
        }

    def test_order_is_deterministic_and_sorted(self, full_algebra, diagrams):
        first = enumerate_colorings(full_algebra, diagrams["theta"])
        second = enumerate_colorings(full_algebra, diagrams["theta"])
        assert first == second
        keys = [tuple(c[r] for r in diagrams["theta"].regions) for c in first]
        assert keys == sorted(keys)

    def test_length_matches_count(self, full_algebra, cyc_algebra, diagrams):
        for alg in (full_algebra, cyc_algebra):
            for d in diagrams.values():
                if d.kind is DiagramKind.HANDLEBODY_LINK:
                    continue
                assert len(enumerate_colorings(alg, d)) == count_colorings(alg, d)


class TestOracle:
    def test_solver_matches_brute_force_everywhere(
        self, full_algebra, diag_algebra, cyc_algebra, z4_algebra, diagrams
    ):
        for alg in (full_algebra, diag_algebra, cyc_algebra, z4_algebra):
            for d in diagrams.values():
                if d.kind is DiagramKind.HANDLEBODY_LINK and not alg.idempotent:
                    with pytest.raises(HandlebodyModeError):
                        count_colorings(alg, d)
                    with pytest.raises(HandlebodyModeError):
                        count_colorings_bruteforce(alg, d)
                    continue
                assert count_colorings(alg, d) == count_colorings_bruteforce(alg, d)

    def test_solver_matches_brute_force_on_every_census_algebra(self, diagrams):
        # every compatible algebra of orders 1-4 against every bundled diagram
        # that the handlebody gate lets through
        algebras = census_algebras()
        checked = 0
        for alg in algebras:
            for d in diagrams.values():
                if d.kind is DiagramKind.SPATIAL_GRAPH or alg.idempotent:
                    assert count_colorings(alg, d) == count_colorings_bruteforce(alg, d)
                    checked += 1
        assert (len(algebras), checked) == (233, 1424)

    def test_brute_force_single_region(self, full_algebra):
        d = Diagram("dot", DiagramKind.SPATIAL_GRAPH, ("r",), ())
        assert count_colorings_bruteforce(full_algebra, d) == 3

    def test_hopf_direct_brute_force(self, diag_algebra, diagrams):
        assert count_colorings_bruteforce(diag_algebra, diagrams["hopf_handlebody"]) == 27

    def test_cap_refusal(self, full_algebra, diagrams):
        with pytest.raises(BruteForceCapError):
            count_colorings_bruteforce(full_algebra, diagrams["theta"], cap=10)

    def test_cap_refusal_writes_a_large_space_as_a_power(self, full_algebra):
        regions = [f"r{i}" for i in range(10_000)]
        cons = [Constraint(ConstraintKind.VERTEX, (r, r, r)) for r in regions]
        with pytest.raises(BruteForceCapError) as err:
            count_colorings_bruteforce(full_algebra, _diagram(regions, cons))
        assert str(err.value) == (
            "3^10000 assignments exceed the cap of 10000000; use count_colorings"
        )


class TestHandlebodyGating:
    def test_non_idempotent_algebra_refused(self, full_algebra, cyc_algebra, diagrams):
        for alg in (full_algebra, cyc_algebra):
            with pytest.raises(HandlebodyModeError):
                count_colorings(alg, diagrams["hopf_handlebody"])
            with pytest.raises(HandlebodyModeError):
                count_colorings(alg, diagrams["genus2_link"])

    def test_idempotent_algebra_accepted(self, diag_algebra, diagrams):
        count_colorings(diag_algebra, diagrams["genus2_link"])


class TestMonotoneRestriction:
    def test_adding_a_constraint_never_increases_the_count(
        self, full_algebra, cyc_algebra, z4_algebra, diagrams
    ):
        for alg in (full_algebra, cyc_algebra, z4_algebra):
            for d in diagrams.values():
                if d.kind is DiagramKind.HANDLEBODY_LINK or not d.constraints:
                    continue
                base = count_colorings(alg, d)
                for i in range(len(d.constraints)):
                    thinner = Diagram(
                        d.name,
                        d.kind,
                        d.regions,
                        d.constraints[:i] + d.constraints[i + 1:],
                    )
                    assert count_colorings(alg, thinner) >= base


class TestConstantColorings:
    def test_count_at_least_n_for_diagonal_fixing_tensors(self, diag_algebra, diagrams):
        # the bundled tensor fixes every (a, a, a), so constants always color
        for d in diagrams.values():
            assert count_colorings(diag_algebra, d) >= 3

    def test_linear_family_with_fixed_diagonal(self, diagrams):
        # whenever x - x*y + y is 1 mod n the tensor fixes (a, a, a), and the
        # diagonal product then makes every constant assignment a coloring
        import math

        for n in range(2, 6):
            units = [u for u in range(1, n + 1) if math.gcd(u, n) == 1]
            for x in units:
                for y in units:
                    if (x - x * y + y) % n != 1 % n:
                        continue
                    alg = TribracketAlgebra(
                        alexander_tribracket(n, x, y), PartialProduct.diagonal(n)
                    )
                    for name in ("theta", "handcuff", "k1", "genus2_link"):
                        got = enumerate_colorings(alg, diagrams[name])
                        assert count_colorings(alg, diagrams[name]) >= n
                        for v in range(1, n + 1):
                            constant = {r: v for r in diagrams[name].regions}
                            assert constant in got


@st.composite
def random_diagrams(draw, max_regions=4, max_constraints=3):
    k = draw(st.integers(min_value=1, max_value=max_regions))
    regions = tuple(f"r{i}" for i in range(k))
    cons = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_constraints))):
        if draw(st.booleans()):
            refs = tuple(draw(st.sampled_from(regions)) for _ in range(4))
            cons.append(Constraint(ConstraintKind.CROSSING, refs))
        else:
            refs = tuple(draw(st.sampled_from(regions)) for _ in range(3))
            cons.append(Constraint(ConstraintKind.VERTEX, refs))
    return Diagram("rand", DiagramKind.SPATIAL_GRAPH, regions, tuple(cons))


class TestSolverDifferential:
    @given(dia=random_diagrams())
    @settings(max_examples=120, deadline=None)
    def test_solver_matches_brute_force_on_random_diagrams(
        self, full_algebra, diag_algebra, cyc_algebra, z4_algebra, dia
    ):
        for alg in (full_algebra, diag_algebra, cyc_algebra, z4_algebra):
            assert count_colorings(alg, dia) == count_colorings_bruteforce(alg, dia)


def _diagram(regions, constraints):
    return Diagram("x", DiagramKind.SPATIAL_GRAPH, tuple(regions), tuple(constraints))


class TestExactOnAnyInput:
    """The solver is exact on tables that fail their axioms, and on any size."""

    @given(alg=arbitrary_algebras(), dia=random_diagrams(max_regions=5, max_constraints=4))
    @settings(max_examples=300, deadline=None)
    def test_solver_matches_brute_force_on_arbitrary_tables(self, alg, dia):
        assert count_colorings(alg, dia) == count_colorings_bruteforce(alg, dia)
        listed = enumerate_colorings(alg, dia)
        assert len(listed) == count_colorings(alg, dia)
        assert all(
            all(_satisfies(alg, con, c) for con in dia.constraints) for c in listed
        )

    def test_non_cancellative_product_is_not_forced(self):
        # 1*1 = 1*2 = 1: with l and m colored, r has two preimages, not one
        alg = TribracketAlgebra(
            alexander_tribracket(2, 1, 1), PartialProduct(2, ((1, 1), (None, None)))
        )
        dia = _diagram(("l", "m", "r"), (Constraint(ConstraintKind.VERTEX, ("l", "m", "r")),))
        assert count_colorings_bruteforce(alg, dia) == 2
        assert count_colorings(alg, dia) == 2

    def test_non_bijective_tensor_counts_instead_of_failing(self):
        constant = Tribracket(2, (((1, 1), (1, 1)), ((1, 1), (1, 1))))
        alg = TribracketAlgebra(constant, PartialProduct.diagonal(2))
        # d comes first, so a slot other than the result is left to solve
        dia = _diagram(
            ("d", "a", "b", "c"), (Constraint(ConstraintKind.CROSSING, ("a", "b", "c", "d")),)
        )
        assert count_colorings(alg, dia) == count_colorings_bruteforce(alg, dia) == 8

    def test_out_of_range_entry_is_a_shape_error(self):
        dia = _diagram(
            ("a", "b", "c", "d"), (Constraint(ConstraintKind.CROSSING, ("a", "b", "c", "d")),)
        )
        with pytest.raises(ShapeError):
            bad = Tribracket(2, (((1, 2), (2, 1)), ((2, 1), (0, 2))))
            alg = TribracketAlgebra(bad, PartialProduct.diagonal(2))
            count_colorings(alg, dia)

    def test_an_operation_no_constraint_uses_keeps_its_table_unbuilt(self):
        crossing = Constraint(ConstraintKind.CROSSING, ("a", "b", "c", "d"))
        vertex = Constraint(ConstraintKind.VERTEX, ("a", "b", "c"))
        for con, used, unused in ((crossing, "tribracket", "product"),
                                  (vertex, "product", "tribracket")):
            alg = TribracketAlgebra(alexander_tribracket(3, 1, 1), PartialProduct.diagonal(3))
            count_colorings(alg, _diagram(("a", "b", "c", "d"), (con,)))
            assert "keyed_table" in vars(getattr(alg, used))
            assert "keyed_table" not in vars(getattr(alg, unused))

    def test_many_free_regions_need_no_recursion(self):
        alg = TribracketAlgebra(alexander_tribracket(1, 1, 1), PartialProduct.diagonal(1))
        assert count_colorings(alg, _diagram((f"r{i}" for i in range(1200)), ())) == 1

    def test_joint_listing_of_many_free_regions_needs_no_recursion(self):
        # the listing still searches all 1200 regions at once
        alg = TribracketAlgebra(alexander_tribracket(1, 1, 1), PartialProduct.diagonal(1))
        regions = tuple(f"r{i}" for i in range(1200))
        assert enumerate_colorings(alg, _diagram(regions, ())) == [dict.fromkeys(regions, 1)]

    def test_joint_listing_of_twenty_thousand_free_regions(self):
        # the branching order is planned once, not rescanned per branch node
        alg = TribracketAlgebra(alexander_tribracket(1, 1, 1), PartialProduct.diagonal(1))
        regions = tuple(f"r{i}" for i in range(20_000))
        assert enumerate_colorings(alg, _diagram(regions, ())) == [dict.fromkeys(regions, 1)]

    def test_long_shuffled_crossing_chain(self):
        alg = TribracketAlgebra(alexander_tribracket(3, 1, 1), PartialProduct.diagonal(3))
        assert count_colorings(alg, _shuffled_chain(1200)) == 27

    def test_twenty_thousand_region_shuffled_crossing_chain(self):
        alg = TribracketAlgebra(alexander_tribracket(3, 1, 1), PartialProduct.diagonal(3))
        assert count_colorings(alg, _shuffled_chain(20_000)) == 27

    @pytest.mark.parametrize("seed", [0, 1])
    def test_theta_with_eight_thousand_random_kinks(self, diagrams, seed):
        # a kink (w, e, e, l) forces its last uncolored region, l or e, so the
        # count stays theta's 9; with seed 0 the plan branches on six regions, not two
        alg = load_bundled_algebra("z3_full")
        assert count_colorings(alg, _kinked(diagrams["theta"], 8000, seed)) == 9


def _shuffled_chain(size):
    """A crossing chain of size regions, with regions and constraints shuffled.

    Each new region is the bracket of three earlier ones, so the three seed
    regions determine the rest: 3^3 colorings over alexander(3, 1, 1).
    """
    rng = random.Random(3)
    regions, cons = ["r0", "r1", "r2"], []
    while len(regions) < size:
        refs = tuple(rng.choice(regions) for _ in range(3)) + (f"r{len(regions)}",)
        cons.append(Constraint(ConstraintKind.CROSSING, refs))
        regions.append(refs[-1])
    rng.shuffle(regions)
    rng.shuffle(cons)
    return _diagram(regions, cons)


def _kinked(dia, size, seed):
    """dia with size kinks (w, e, e, l) added: w, then e, drawn from the
    regions so far, and l a new region."""
    rng = random.Random(seed)
    regions, cons = list(dia.regions), list(dia.constraints)
    for i in range(size):
        w = rng.choice(regions)
        e = rng.choice(regions)
        cons.append(Constraint(ConstraintKind.CROSSING, (w, e, e, f"k{i}")))
        regions.append(f"k{i}")
    return _diagram(regions, cons)


def _rename(dia, prefix):
    return Diagram(
        dia.name,
        dia.kind,
        tuple(prefix + r for r in dia.regions),
        tuple(Constraint(c.kind, tuple(prefix + r for r in c.refs)) for c in dia.constraints),
    )


def _union(parts, free=(), kind=DiagramKind.SPATIAL_GRAPH):
    """The parts renamed apart, then the regions no constraint touches."""
    parts = [_rename(d, f"c{j}x") for j, d in enumerate(parts)]
    return Diagram(
        "union",
        kind,
        tuple(r for d in parts for r in d.regions) + tuple(free),
        tuple(c for d in parts for c in d.constraints),
    )


def _vertex():
    return _diagram(("l", "m", "r"), (Constraint(ConstraintKind.VERTEX, ("l", "m", "r")),))


@st.composite
def disjoint_unions(draw):
    """2-3 random components and 0-2 free regions, shuffled together."""
    parts = draw(st.lists(random_diagrams(max_regions=3), min_size=2, max_size=3))
    free = [f"f{i}" for i in range(draw(st.integers(min_value=0, max_value=2)))]
    union = _union(parts, free)
    regions = draw(st.permutations(union.regions))
    constraints = draw(st.permutations(union.constraints))
    return parts, len(free), _diagram(regions, constraints)


class TestDisjointUnions:
    """Counts factor over the connected components of the constraint graph."""

    @given(alg=arbitrary_algebras(), case=disjoint_unions())
    @settings(max_examples=150, deadline=None)
    def test_union_count_is_the_product_of_its_parts(self, alg, case):
        parts, free, union = case
        count = count_colorings(alg, union)
        assert count == count_colorings_bruteforce(alg, union)
        assert len(enumerate_colorings(alg, union)) == count
        product = alg.n ** free
        for part in parts:
            product *= count_colorings(alg, part)
        assert count == product

    def test_forty_disjoint_vertices(self, full_algebra):
        # l and r are free and fix m = l*r: 9 colorings per vertex
        assert count_colorings(full_algebra, _union([_vertex()] * 40)) == 9**40

    def test_bad_entry_refused_without_constraints(self):
        with pytest.raises(ShapeError):
            bad = Tribracket(2, (((1, 2), (2, 1)), ((2, 1), (0, 2))))
            alg = TribracketAlgebra(bad, PartialProduct.diagonal(2))
            count_colorings(alg, _diagram(("a", "b"), ()))

    def test_bad_entry_refused_after_a_component_counting_zero(self):
        # the empty product colors no vertex, so the first component counts 0
        crossing = _diagram(
            ("a", "b", "c", "d"), (Constraint(ConstraintKind.CROSSING, ("a", "b", "c", "d")),)
        )
        with pytest.raises(ShapeError):
            bad = Tribracket(2, (((1, 2), (2, 1)), ((2, 1), (3, 2))))
            alg = TribracketAlgebra(bad, PartialProduct.empty(2))
            count_colorings(alg, _union([_vertex(), crossing]))

    def test_handlebody_union_needs_an_idempotent_product(
        self, full_algebra, diag_algebra, diagrams
    ):
        hopf = diagrams["hopf_handlebody"]
        union = _union([hopf, hopf], kind=DiagramKind.HANDLEBODY_LINK)
        with pytest.raises(HandlebodyModeError):
            count_colorings(full_algebra, union)
        assert count_colorings(diag_algebra, union) == 27 * 27


@st.composite
def region_permutation(draw):
    perm = draw(st.permutations(["o", "p", "q"]))
    return dict(zip(["o", "p", "q"], perm))


class TestRelabeling:
    @given(mapping=region_permutation())
    @settings(max_examples=20, deadline=None)
    def test_renaming_regions_preserves_counts(self, full_algebra, diagrams, mapping):
        for name in ("theta", "handcuff"):
            d = diagrams[name]
            renamed = Diagram(
                d.name,
                d.kind,
                tuple(mapping[r] for r in d.regions),
                tuple(
                    Constraint(c.kind, tuple(mapping[r] for r in c.refs))
                    for c in d.constraints
                ),
            )
            assert count_colorings(full_algebra, renamed) == count_colorings(
                full_algebra, d
            )


class TestK2Obstruction:
    def test_reproduces_the_three_mismatches(self, cyc_algebra):
        assert k2_cases(cyc_algebra) == [
            ((1, 2, 3), 3, 1),
            ((2, 3, 1), 1, 2),
            ((3, 1, 2), 2, 3),
        ]

    def test_z3_diag_and_z3_full_list_their_defined_cells(self, diag_algebra, full_algebra):
        # k2 counts 3 colorings over each, so 3 cases are satisfied
        cases = k2_cases(diag_algebra)
        assert [triple for triple, _, _ in cases] == [(1, 1, 1), (2, 2, 2), (3, 3, 3)]
        assert all(value == required for _, value, required in cases)
        cases = k2_cases(full_algebra)
        assert [triple for triple, _, _ in cases] == [
            (a, b, full_algebra.product.mul(a, b)) for a in (1, 2, 3) for b in (1, 2, 3)
        ]
        assert sum(value == required for _, value, required in cases) == 3

    def test_satisfied_cases_count_the_colorings_of_k2(self, diagrams):
        # the identity the demo's clasp row reads: failing cases = cells - count
        orders = []
        for alg in census_algebras():
            satisfied = sum(value == required for _, value, required in k2_cases(alg))
            assert satisfied == count_colorings(alg, diagrams["k2"])
            orders.append(alg.n)
        assert orders.count(3) == 19 and sorted(set(orders)) == [1, 2, 3, 4]

    @given(alg=arbitrary_algebras(sizes=(1, 2, 3, 4)))
    @settings(max_examples=200, deadline=None)
    def test_satisfied_cases_count_k2_on_arbitrary_tables(self, alg, diagrams):
        # the identity needs no axiom: any order, any tensor, any partial product
        satisfied = sum(value == required for _, value, required in k2_cases(alg))
        assert satisfied == count_colorings(alg, diagrams["k2"])


def _yields(alg, dia):
    """Every raw yield of the search on dia, in yield order."""
    regions, system = _system(dia)
    return [tuple(val) for val in _solutions(alg, regions, system)]


def _fragment_yields(alg, frag, boundary):
    """Every raw yield of the search on a move fragment, as ``moves._tally`` sets it up."""
    merged = {r2: r1 for r1, r2 in frag.merges}
    names = [r for r in (*boundary, *frag.internal) if r not in merged]
    index = {r: i for i, r in enumerate(names)}
    for r2, r1 in merged.items():
        index[r2] = index[r1]
    system = [(c.kind, tuple(index[r] for r in c.refs)) for c in frag.constraints]
    return [tuple(val) for val in _solutions(alg, len(names), system)]


def _mixed_algebra():
    """An order-3 algebra with unique, missing and several preimages in every operation."""
    rng = random.Random(10)
    cube = [[[rng.randint(1, 2) for _ in range(3)] for _ in range(3)] for _ in range(3)]
    square = [[rng.choice((None, 1, 1, 2, 3)) for _ in range(3)] for _ in range(3)]
    return TribracketAlgebra(Tribracket(3, cube), PartialProduct(3, square))


class TestPlan:
    """The schedule ``_plan`` gives, one deciding rule at a time.

    A schedule lists each region in branching order with the constraint that
    forces it (None for a branch) and the constraints it closes, that is,
    whose last region it is.
    """

    @staticmethod
    def _planned(regions, refs_of):
        """The plan order, then the forcing constraint of each forced region,
        then the position at which each constraint closes."""
        schedule = _plan(regions, refs_of)
        order = [r for r, _, _ in schedule]
        forcers = {r: f for r, f, _ in schedule if f is not None}
        closes = {i: p for p, (_, _, shut) in enumerate(schedule) for i in shut}
        return order, forcers, closes

    def test_each_score_decides_in_turn_and_forced_regions_follow(self):
        # crossings of distinct regions: 5 touches three, 0 touches two
        refs_of = [(5, 1, 6, 10), (5, 4, 2, 7), (5, 8, 9, 3), (0, 11, 12, 13), (0, 14, 15, 16)]
        # 5 touches the most; 1 has a colored slot, which beats touching two
        # (0); 6 leaves one slot open, which beats a lower index (2); that
        # slot's region 10 follows at once, before 2
        plan = [5, 1, 6, 10, 2, 4, 7, 3, 8, 9, 0, 11, 12, 13, 14, 15, 16]
        # each crossing forces its last region, and closes there
        forcers = {10: 0, 7: 1, 9: 2, 13: 3, 16: 4}
        closes = {0: 3, 1: 6, 2: 9, 3: 13, 4: 16}
        assert self._planned(17, refs_of) == (plan, forcers, closes)

    def test_a_repeated_region_counts_once(self):
        # with 0 colored, 2 and 1 tie on every score, so the lower index 1
        # branches; that leaves 2 the kink's last region, though it fills two slots
        assert self._planned(3, [(0, 2, 2, 1)]) == ([0, 1, 2], {2: 0}, {0: 2})

    def test_random_kinks_force_their_repeated_region(self, diagrams):
        # theta plus 2,000 kinks (w, e, e, l): a kink forces e once w and l are
        # colored, so two regions branch, as in theta alone
        regions, cons = _system(_kinked(diagrams["theta"], 2000, 0))
        assert sum(f is None for _, f, _ in _plan(regions, [refs for _, refs in cons])) == 2

    def test_a_constraint_closes_where_it_forces_nothing(self):
        # theta: 0 and 1 branch, then the first vertex forces 2, closing both
        assert _plan(3, [(0, 2, 1), (0, 2, 1)]) == [
            (0, None, []), (1, None, []), (2, 0, [0, 1])
        ]
        # once 0 is colored, 1 is the last region, though it fills two slots
        assert _plan(2, [(1, 0, 0, 1)]) == [(0, None, []), (1, 0, [0])]


def _search_runs(diagrams):
    """The raw yield sequences of every ``TestSearchOrder`` run, labelled."""
    algebras = {name: load_bundled_algebra(name)
                for name in ("z3_full", "z3_diag", "z3_cyc", "z4_half")}
    runs = []
    for dia in diagrams.values():
        for name, alg in algebras.items():
            if dia.kind is DiagramKind.SPATIAL_GRAPH or name == "z3_diag":
                runs.append((dia.name, name, _yields(alg, dia)))
    for pair in builtin_move_pairs():
        for name, alg in algebras.items():
            for side, frag in (("before", pair.before), ("after", pair.after)):
                runs.append((pair.move_id, side, name,
                             _fragment_yields(alg, frag, pair.boundary)))
    kink = _diagram(
        ("w", "e", "l"), (Constraint(ConstraintKind.CROSSING, ("w", "e", "e", "l")),)
    )
    for name, alg in algebras.items():
        runs.append(("kink", name, _yields(alg, kink)))
    chain = _diagram(
        [f"r{i}" for i in range(12)],
        [Constraint(ConstraintKind.CROSSING, tuple(f"r{i + j}" for j in range(4)))
         for i in range(9)] + [Constraint(ConstraintKind.VERTEX, ("r0", "r11", "r5"))],
    )
    one = TribracketAlgebra(alexander_tribracket(1, 1, 1), PartialProduct.diagonal(1))
    runs.append(("chain", "n=1", _yields(one, chain)))
    mixed = _mixed_algebra()
    for dia in diagrams.values():
        runs.append((dia.name, "mixed", _yields(mixed, dia)))
    runs.append(("kink", "mixed", _yields(mixed, kink)))
    # two hubs: once h is colored, the search prefers a, b, c, d to x
    hubs = _diagram(
        "h x a b c d e f g k".split(),
        [Constraint(ConstraintKind.VERTEX, refs) for refs in
         (("h", "a", "b"), ("h", "c", "d"), ("x", "e", "f"), ("x", "g", "k"))],
    )
    runs.append(("hubs", "z3_full", _yields(algebras["z3_full"], hubs)))
    assert sum(len(run[-1]) for run in runs) > 1000
    return runs


class TestSearchOrder:
    """The yields of ``_solutions``, pinned by two digests.

    ``DIGEST`` pins the raw yield sequences.  It was taken before the search
    moved from per-slot tables to one keyed table per operation; the search
    tree and the yield order must not change with the table layout.
    ``SORTED_DIGEST`` pins each run's yields as a sorted list, so it holds for
    any branching order: it was taken before the search planned its
    branching order once per call.
    """

    DIGEST = "a28872d04bf3b248122cc34e1bac7b8be4ef074fb8ae498fecc2f264a6f5c756"
    SORTED_DIGEST = "bd7b275ba1f20ae4374b17b4c94a1654247f02c715f872574a38dcee44a7f960"

    def test_yield_sequences_match_the_pinned_digest(self, diagrams):
        digest = hashlib.sha256(repr(_search_runs(diagrams)).encode()).hexdigest()
        assert digest == self.DIGEST

    def test_sorted_yields_match_the_pinned_digest(self, diagrams):
        runs = [(*run[:-1], sorted(run[-1])) for run in _search_runs(diagrams)]
        digest = hashlib.sha256(repr(runs).encode()).hexdigest()
        assert digest == self.SORTED_DIGEST
