import dataclasses
import functools
import gc
import hashlib
import itertools
import random
import re
import weakref
from pathlib import Path
from unittest import mock

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
    check_move_invariance,
    count_colorings,
    count_colorings_bruteforce,
    enumerate_colorings,
    load_bundled_algebra,
    parse_algebra,
    parse_diagram,
    serialize_diagram,
    verify_algebra,
)
from tribrackets import coloring
from tribrackets.coloring import _compile, _plan, _solutions, _system
from tribrackets.moves import _compile_fragment
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

    def test_cap_refusal(self, full_algebra):
        # 3^15 = 14,348,907 assignments, just over the cap of 10^7
        regions = [f"r{i}" for i in range(15)]
        with pytest.raises(BruteForceCapError) as err:
            count_colorings_bruteforce(full_algebra, _diagram(regions, []))
        assert str(err.value) == (
            "14348907 assignments exceed the cap of 10000000; use count_colorings"
        )

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


def _holds(alg, con, env):
    """Whether the coloring env satisfies con, read by name from bracket and mul."""
    if con.kind is ConstraintKind.CROSSING:
        a, b, c, d = (env[r] for r in con.refs)
        return alg.tribracket.bracket(a, b, c) == d
    left, middle, right = (env[r] for r in con.refs)
    return alg.product.mul(left, right) == middle


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
            all(_holds(alg, con, c) for con in dia.constraints) for c in listed
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
        # the peel finds that the three seeds force the rest
        alg = TribracketAlgebra(alexander_tribracket(3, 1, 1), PartialProduct.diagonal(3))
        count, walked = _walks(alg, _shuffled_chain(20_000))
        assert (count, [*map(_branches, walked)]) == (27, [3])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_theta_with_eight_thousand_random_kinks(self, diagrams, seed):
        # a kink (w, e, e, l) forces its last uncolored region, l or e, so the
        # count stays theta's 9; with seed 0 the plan branches on six regions, and
        # the peel finds that two force the rest
        alg = load_bundled_algebra("z3_full")
        count, walked = _walks(alg, _kinked(diagrams["theta"], 8000, seed))
        assert (count, [*map(_branches, walked)]) == (9, [2])


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

    @given(case=disjoint_unions())
    @settings(max_examples=150, deadline=None)
    def test_each_part_of_the_plan_is_the_plan_of_that_part_alone(self, case):
        # so counting a union walks each component in the order it would be walked alone
        parts, _, union = case

        def named_plan(dia):
            regions, system, index = _system(dia.regions, dia.constraints)
            name, con = dict(zip(index.values(), index)), dia.constraints
            return [
                (name[r], f is not None and con[f], [con[i] for i in closes])
                for r, f, closes in _plan(regions, [refs for _, refs in system])
            ]

        whole = named_plan(union)
        for j in range(len(parts)):
            mine = re.compile(f"c{j}x").match
            alone = _diagram(
                filter(mine, union.regions), [c for c in union.constraints if mine(c.refs[0])]
            )
            assert named_plan(alone) == [step for step in whole if mine(step[0])]

    def test_one_call_plans_every_region_at_once(self, monkeypatch, full_algebra, diagrams):
        calls = []
        plan = coloring._plan
        monkeypatch.setattr(coloring, "_plan", lambda *args: calls.append(args) or plan(*args))
        union = _union([diagrams["theta"], diagrams["handcuff"], _vertex()], free=("f",))
        assert count_colorings(full_algebra, union) == 9 * 3 * 9 * 3
        assert [(regions, len(cons)) for regions, cons in calls] == [
            (len(union.regions), len(union.constraints))
        ]

    def test_a_factor_zero_ends_the_search(self, monkeypatch, cyc_algebra, diagrams):
        # k2 is connected and counts 0, so only the first of three copies is walked
        walks = []
        solutions = coloring._solutions
        monkeypatch.setattr(
            coloring, "_solutions", lambda *args: walks.append(args) or solutions(*args)
        )
        k2 = diagrams["k2"]
        assert count_colorings(cyc_algebra, _union([k2, k2, k2], free=("f",))) == 0
        assert len(walks) == 1

    def test_handlebody_union_needs_an_idempotent_product(
        self, full_algebra, diag_algebra, diagrams
    ):
        hopf = diagrams["hopf_handlebody"]
        union = _union([hopf, hopf], kind=DiagramKind.HANDLEBODY_LINK)
        with pytest.raises(HandlebodyModeError):
            count_colorings(full_algebra, union)
        assert count_colorings(diag_algebra, union) == 27 * 27


class TestWrongArgumentTypes:
    """Each entry point refuses an algebra, diagram or move pair of the wrong type."""

    ENTRY_POINTS = [
        count_colorings, enumerate_colorings, count_colorings_bruteforce, check_move_invariance
    ]

    @pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize(
        "bad", [None, alexander_tribracket(3, 1, 1), "theta"], ids=["none", "tribracket", "string"]
    )
    def test_a_wrong_type_is_refused_with_a_shape_error(self, entry, bad, full_algebra, diagrams):
        if entry is check_move_invariance:
            other, what = builtin_move_pairs()[0], "move pair must be a LocalMovePair"
        else:
            other, what = diagrams["theta"], "diagram must be a Diagram"
        got = f", got {re.escape(repr(bad))}$"
        with pytest.raises(ShapeError, match=f"^the algebra must be a TribracketAlgebra{got}"):
            entry(bad, other)
        with pytest.raises(ShapeError, match=f"^the {what}{got}"):
            entry(full_algebra, bad)


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

    def test_relabelling_the_values_preserves_every_count(self, diagrams):
        # every relabelling at orders 1-3, two seeded ones per order-4 algebra
        rng = random.Random(19)
        checked = moved = 0
        for alg in census_algebras():
            n = alg.n
            perms = (itertools.permutations(range(1, n + 1)) if n <= 3
                     else [rng.sample(range(1, n + 1), n) for _ in range(2)])
            counts = {name: count_colorings(alg, d) for name, d in diagrams.items()
                      if d.kind is DiagramKind.SPATIAL_GRAPH or alg.idempotent}
            for perm in perms:
                image = _relabelled(alg, perm)
                assert {name: count_colorings(image, diagrams[name]) for name in counts} == counts
                checked += len(counts)
                moved += image != alg
        assert (checked, moved) == (3298, 367)


def _relabelled(alg, perm):
    """alg carried along the bijection v -> perm[v - 1] of its values."""
    back = [perm.index(v) for v in range(1, alg.n + 1)]  # each value's preimage, from 0
    relabel = {None: None, **{v: perm[v - 1] for v in range(1, alg.n + 1)}}
    cube = [[[relabel[alg.tribracket.table[a][b][c]] for c in back] for b in back] for a in back]
    square = [[relabel[alg.product.table[a][b]] for b in back] for a in back]
    return TribracketAlgebra(Tribracket(alg.n, cube), PartialProduct(alg.n, square))


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


def corpus_closed_forms(alg):
    """Each bundled diagram's count over a census algebra, read off its tables.

    Only the handlebody pair reads the tensor, and only over idempotent algebras."""
    r = range(1, alg.n + 1)
    mul, br = alg.product.mul, alg.tribracket.bracket
    cells = sum(mul(a, b) is not None for a in r for b in r)
    squares = sum(mul(a, a) is not None for a in r)
    forms = {"theta": cells, "k1": cells, "z4_left": cells,
             "handcuff": squares, "z4_right": squares,
             "k2": sum(mul(a, b) == a for a in r for b in r)}
    if alg.idempotent:
        forms["hopf_handlebody"] = sum(
            br(a, br(a, b, c), c) == b for a in r for b in r for c in r)
        forms["genus2_link"] = sum(br(br(a, a, b), a, b) == a for a in r for b in r)
    return forms


class TestCorpusReadsTheProductTable:
    """The bundled spatial graphs count product cells; they read the tensor only
    through the axioms, so on verified algebras they measure the product table."""

    def test_closed_forms_on_every_census_algebra(self, diagrams):
        idempotent = 0
        for alg in census_algebras():
            forms = corpus_closed_forms(alg)
            assert {name: count_colorings(alg, diagrams[name]) for name in forms} == forms
            idempotent += alg.idempotent
        assert (len(census_algebras()), idempotent) == (233, 13)

    @given(alg=arbitrary_algebras(sizes=(1, 2, 3)))
    @settings(max_examples=200, deadline=None)
    def test_r4_compat_makes_theta_and_k1_agree_on_arbitrary_tables(self, alg, diagrams):
        # set [a, a*b, b] = a*b at each defined cell; every other entry stays arbitrary
        cube = [[list(row) for row in mat] for mat in alg.tribracket.table]
        for (a, b, c), _, _ in k2_cases(alg):
            cube[a - 1][c - 1][b - 1] = c
        alg = TribracketAlgebra(Tribracket(alg.n, cube), alg.product)
        assert "r4-compat" not in {v.axiom for v in verify_algebra(alg).violations}
        # k1 reads a*b = c, d = [a, c, b] and [a, d, b] = c; r4-compat gives d = c
        assert count_colorings(alg, diagrams["theta"]) == count_colorings(alg, diagrams["k1"])


def _yields(alg, dia):
    """Every raw yield of the search on dia, in yield order."""
    regions, system, _ = _system(dia.regions, dia.constraints)
    return [tuple(val) for val in _solutions(alg, _compile(regions, system))]


def _fragment_yields(alg, frag, boundary):
    """Every raw yield of the search on a move fragment, as ``moves._tally`` walks it."""
    schedule, _ = _compile_fragment(boundary, frag)
    return [tuple(val) for val in _solutions(alg, schedule)]


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
        kinked = _kinked(diagrams["theta"], 2000, 0)
        regions, cons, _ = _system(kinked.regions, kinked.constraints)
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


def _random_part(rng, prefix):
    """A connected system of 3-5 regions and 2-4 crossings or vertices; regions may repeat."""
    regions = [f"{prefix}r{i}" for i in range(rng.randint(3, 5))]
    while True:
        cons = []
        for _ in range(rng.randint(2, 4)):
            kind = rng.choice((ConstraintKind.CROSSING, ConstraintKind.VERTEX))
            arity = 4 if kind is ConstraintKind.CROSSING else 3
            cons.append(Constraint(kind, tuple(rng.choice(regions) for _ in range(arity))))
        seen = set(cons[0].refs)
        for _ in cons:  # enough passes to reach every connected constraint
            for con in cons:
                if seen & set(con.refs):
                    seen |= set(con.refs)
        if seen == set(regions):
            return regions, cons


def _grown_chain(rng, size=10):
    """size regions grown from 2-3 free ones, each forced by a constraint on the regions
    grown just before it, then one crossing closing on 4 consecutive regions."""
    names = [f"g{i}" for i in range(rng.randint(2, 3))]
    cons = []
    while len(names) < size:
        new = f"g{len(names)}"
        if rng.random() < 0.3:
            refs = names[-2:]
            refs.insert(rng.randrange(3), new)
            cons.append(Constraint(ConstraintKind.VERTEX, tuple(refs)))
        else:
            refs = names[-3:]
            while len(refs) < 3:
                refs.append(rng.choice(names))
            rng.shuffle(refs)
            refs.insert(rng.randrange(4), new)
            cons.append(Constraint(ConstraintKind.CROSSING, tuple(refs)))
        names.append(new)
    start = rng.randrange(len(names) - 3)
    window = names[start:start + 4]
    rng.shuffle(window)
    cons.append(Constraint(ConstraintKind.CROSSING, tuple(window)))
    return names, cons


class TestCompileDigest:
    """``_compile`` on seeded random systems, pinned by one digest of their schedules.

    Two shapes: unions of 2-3 connected parts with crossings, vertices and
    repeated regions, and 10-region grown chains, each with its regions and
    constraints shuffled.  The digest was taken before the planner was reworked
    to take fewer passes; the schedules must not change with it.
    """

    DIGEST = "e84731b09f6b0c0c67d42fba28873d4eaf988cbfc931ea9aa6d78b2e02723d3e"

    @staticmethod
    def _schedules():
        rng = random.Random("compile-digest")
        systems = []
        for _ in range(300):
            names, cons = [], []
            for j in range(rng.randint(2, 3)):
                part = _random_part(rng, f"c{j}")
                names += part[0]
                cons += part[1]
            systems.append((names, cons))
            systems.append(_grown_chain(rng))
        schedules = []
        for names, cons in systems:
            rng.shuffle(names)
            rng.shuffle(cons)
            regions, system, _ = _system(names, cons)
            schedules.append(_compile(regions, system))
        return schedules

    def test_schedules_match_the_pinned_digest(self):
        digest = hashlib.sha256(repr(self._schedules()).encode()).hexdigest()
        assert digest == self.DIGEST


def _walks(alg, dia):
    """count_colorings(alg, dia), and the parts of the schedule it walked."""
    with mock.patch.object(coloring, "_solutions", wraps=coloring._solutions) as spy:
        count = count_colorings(alg, dia)
    return count, [call.args[1] for call in spy.call_args_list]


def _branches(part):
    return sum(not f for _, f, _ in part)


def _forcing_closure(colored, sets):
    """colored and every region forced from it: a set of regions with one uncolored forces it."""
    colored, grown = set(colored), True
    while grown:
        grown = False
        for s in sets:
            if len(left := s - colored) == 1:
                colored |= left
                grown = True
    return colored


def _minimum_forcing_set(regions, sets):
    """The size of a smallest set of regions whose forcing closure is all of regions."""
    for k in range(1, len(regions) + 1):
        if any(_forcing_closure(chosen, sets) == regions
               for chosen in itertools.combinations(sorted(regions), k)):
            return k


def _linear(n):
    return TribracketAlgebra(alexander_tribracket(n, 1, 1), PartialProduct.diagonal(n))


@functools.cache
def _replanned_chains():
    """Seeded 6-region grown chains, shuffled, that count_colorings re-plans at n = 4."""
    rng, found = random.Random("replanned"), []
    for _ in range(100):
        names, cons = _grown_chain(rng, 6)
        rng.shuffle(names)
        rng.shuffle(cons)
        dia = _diagram(names, cons)
        walked = _walks(_linear(4), dia)[1]
        if sum(map(_branches, walked)) < _planned_branches(dia, walked):
            found.append(dia)
    return found[:8]


def _planned_branches(dia, walked):
    """The number of regions of the walked parts that dia's plan branches on."""
    regions, system, _ = _system(dia.regions, dia.constraints)
    mine = {r for part in walked for r, _, _ in part}
    return _branches([step for step in _compile(regions, system) if step[0] in mine])


def _seeded_systems(count):
    """Seeded unions of 2-3 random connected parts and 10-region grown chains, shuffled."""
    rng, systems = random.Random("replan"), []
    for _ in range(count):
        parts = [_random_part(rng, f"c{j}") for j in range(rng.randint(2, 3))]
        systems.append(([r for p in parts for r in p[0]], [c for p in parts for c in p[1]]))
        systems.append(_grown_chain(rng))
    for names, cons in systems:
        rng.shuffle(names)
        rng.shuffle(cons)
    return systems


class TestReplan:
    """count_colorings re-plans a part on the regions a peel keeps when they are fewer
    than the plan branches on."""

    @given(alg=arbitrary_algebras(sizes=(4,)), chain=st.integers(min_value=0, max_value=7))
    @settings(max_examples=100, deadline=None)
    def test_replanned_counts_match_brute_force_on_arbitrary_tables(self, alg, chain):
        dia = _replanned_chains()[chain]
        assert count_colorings(alg, dia) == count_colorings_bruteforce(alg, dia)

    def test_the_walk_branches_on_a_forcing_set_no_larger_than_the_plans(self):
        # on every seeded part it is also a smallest forcing set
        parts = fewer = 0
        for names, cons in _seeded_systems(40):
            dia = _diagram(names, cons)
            regions, system, _ = _system(names, cons)
            planned = _compile(regions, system)
            walks = []
            for n in range(2, 12):
                count, walked = _walks(_linear(n), dia)
                assert count >= n  # every constant coloring counts
                walks.append(walked)
            assert all(walked == walks[0] for walked in walks)  # one plan whatever n
            for part in walks[0]:
                mine = {r for r, _, _ in part}
                b = _branches([step for step in planned if step[0] in mine])
                sets = {frozenset(refs) & mine for _, refs in system} - {frozenset()}
                sets = [s for s in sets if len(s) > 1]
                branches = {r for r, f, _ in part if not f}
                assert _forcing_closure(branches, sets) == mine
                assert len(branches) == _minimum_forcing_set(mine, sets) <= b
                parts += 1
                fewer += len(branches) < b
        assert (parts, fewer) == (138, 20)

    def test_a_unions_replanned_part_is_that_component_replanned_alone(self, diagrams):
        chains = _replanned_chains()
        alg = _linear(4)
        for j in range(0, len(chains), 2):
            union = _union([chains[j], diagrams["theta"], chains[j + 1]], free=("f",))

            def named(dia):
                _, walked = _walks(alg, dia)
                _, _, index = _system(dia.regions, dia.constraints)
                name = dict(zip(index.values(), index))

                def read(x):
                    return x and (x[0], *map(name.get, x[1:5]), *x[5:])

                return {
                    name[part[0][0]][:3]: [(name[r], read(f), [*map(read, shut)])
                                           for r, f, shut in part]
                    for part in walked
                }

            whole = named(union)
            walked = _walks(alg, union)[1]
            assert sum(map(_branches, walked)) < _planned_branches(union, walked)
            assert len(whole) == 3
            for prefix, part in whole.items():
                mine = re.compile(prefix).match
                alone = _diagram(
                    filter(mine, union.regions), [c for c in union.constraints if mine(c.refs[0])]
                )
                assert named(alone) == {prefix: part}

    def test_allowing_the_plans_own_branch_regions_keeps_the_plan(self):
        for names, cons in _seeded_systems(100):
            regions, system, _ = _system(names, cons)
            refs = [refs for _, refs in system]
            plan = _plan(regions, refs)
            assert _plan(regions, refs, [r for r, f, _ in plan if f is None]) == plan


def _rank(rows, p):
    """The rank over GF(p) of integer rows, by Gaussian elimination."""
    rows, rank = [[v % p for v in row] for row in rows], 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][col], -1, p)
        rows[rank] = [v * inverse % p for v in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                rows[i] = [(v - row[col] * w) % p for v, w in zip(row, rows[rank])]
        rank += 1
    return rank


class TestCommittedChains:
    """tests/data/chain_counts.txt holds the counts of two grown chains over alexander(p, 1, 1),
    p prime: [a,b,c] = a - b + c, and each constraint is linear over GF(p), so a count is
    p^(regions - rank).  A vertex (l, m, r) reads l + r = 2m under the midpoint product and
    l = r = m under the diagonal one."""

    def test_counts_are_the_affine_closed_form_and_the_plans_are_replanned(self):
        data = Path(__file__).parent / "data"
        text = (data / "chain_counts.txt").read_text(encoding="utf-8").split("\n")
        pairs = [(line.split()[1:], int(count)) for line, count in zip(text[::2], text[1::2])]
        assert [names for names, _ in pairs] == [
            ["alexander_7_1_1_mid", "chain_7_mid"], ["alexander_11_1_1_diag", "chain_11_diag"]
        ]
        for (algebra, diagram), count in pairs:
            tensor, product = parse_algebra((data / f"{algebra}.alg").read_text(encoding="utf-8"))
            dia = parse_diagram((data / f"{diagram}.dia").read_text(encoding="utf-8"))
            p = tensor.n
            assert tensor == alexander_tribracket(p, 1, 1)
            column = {r: i for i, r in enumerate(dia.regions)}
            rows = []
            for con in dia.constraints:
                if con.kind is ConstraintKind.CROSSING:
                    terms = [zip(con.refs, (1, -1, 1, -1))]
                elif product == PartialProduct.diagonal(p):
                    l, m, r = con.refs
                    terms = [((l, 1), (r, -1)), ((m, 1), (l, -1))]
                else:
                    assert all(product.mul(a, b) % p == (a + b) * pow(2, -1, p) % p
                               for a in range(1, p + 1) for b in range(1, p + 1))
                    l, m, r = con.refs
                    terms = [((l, 1), (r, 1), (m, -2))]
                for term in terms:
                    row = [0] * len(column)
                    for region, coefficient in term:
                        row[column[region]] += coefficient
                    rows.append(row)
            assert count == p ** (len(dia.regions) - _rank(rows, p))
            alg = TribracketAlgebra(tensor, product)
            regions, system, _ = _system(dia.regions, dia.constraints)
            walked = _walks(alg, dia)
            assert walked[0] == count
            assert sum(map(_branches, walked[1])) < _branches(_compile(regions, system))


def _fresh(dia):
    """A new, never counted Diagram equal to dia."""
    return parse_diagram(serialize_diagram(dia))


def _leaves(obj):
    """Every object reachable from obj through lists and tuples, containers included."""
    yield obj
    if isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _leaves(item)


class TestPlanKept:
    """count_colorings plans a diagram once, whatever n, and keeps the plan on it; the
    argument checks, and the tables, stay per call."""

    @pytest.mark.parametrize("replanned", [False, True], ids=["theta", "replanned_chain"])
    def test_a_diagram_is_planned_once_whatever_n(self, monkeypatch, diagrams, replanned):
        dia = _fresh(_replanned_chains()[0] if replanned else diagrams["theta"])
        calls = []
        plan = coloring._plan
        monkeypatch.setattr(coloring, "_plan", lambda *args: calls.append(args) or plan(*args))
        planned, kept = [], []
        empty = TribracketAlgebra(alexander_tribracket(4, 1, 1), PartialProduct.empty(4))
        for alg in (_linear(4), empty, _linear(3), _mixed_algebra(), _linear(2)):
            assert count_colorings(alg, dia) == count_colorings_bruteforce(alg, dia)
            planned.append(len(calls))
            kept.append(vars(dia)["_count_plan"])
        # the chain is planned twice, the second time on fewer branch regions
        assert planned == [2 if replanned else 1] * 5
        assert all(plan is kept[0] for plan in kept)

    def test_the_kept_plan_is_invisible_and_holds_no_table(self, diagrams):
        text = serialize_diagram(diagrams["hopf_handlebody"])
        dia, fresh = parse_diagram(text), parse_diagram(text)
        alg = TribracketAlgebra(alexander_tribracket(3, 1, 1), PartialProduct.diagonal(3))
        refs = [weakref.ref(x) for x in (alg, alg.tribracket, alg.product)]
        assert count_colorings(alg, dia) == count_colorings_bruteforce(alg, dia)
        assert "_count_plan" in vars(dia) and "_count_plan" not in vars(fresh)
        assert (dia, hash(dia), repr(dia)) == (fresh, hash(fresh), repr(fresh))
        assert dataclasses.fields(dia) == dataclasses.fields(fresh)
        assert [getattr(dia, f.name) for f in dataclasses.fields(dia)] == [
            getattr(fresh, f.name) for f in dataclasses.fields(fresh)
        ]
        tables = (alg.tribracket.keyed_table, alg.product.keyed_table)
        for x in _leaves(dia._count_plan):
            assert isinstance(x, (list, tuple, int, ConstraintKind)), x
            assert all(x is not t for t in tables)
        del alg, tables, x
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]
        assert "_count_plan" in vars(dia)

    def test_a_list_changed_after_the_count_leaves_the_diagram_as_checked(self, full_algebra):
        # a diagram once held the caller's list: appending this crossing after
        # the first count left the kept plan reading 9 where both oracles read 3
        vertex = Constraint(ConstraintKind.VERTEX, ("o", "p", "q"))
        constraints = [vertex]
        dia = Diagram("d", DiagramKind.SPATIAL_GRAPH, ["o", "p", "q"], constraints)
        assert count_colorings(full_algebra, dia) == 9
        constraints.append(Constraint(ConstraintKind.CROSSING, ["o", "p", "q", "q"]))
        assert dia.constraints == (vertex,) and dia.regions == ("o", "p", "q")
        assert count_colorings(full_algebra, dia) == 9
        grown = Diagram("d", DiagramKind.SPATIAL_GRAPH, ["o", "p", "q"], constraints)
        for d, count in ((dia, 9), (grown, 3)):
            assert count_colorings(full_algebra, d) == count
            assert count_colorings_bruteforce(full_algebra, d) == count
            assert len(enumerate_colorings(full_algebra, d)) == count

    def test_the_argument_checks_stay_per_call(self, full_algebra, diag_algebra, diagrams):
        hopf = _fresh(diagrams["hopf_handlebody"])
        assert count_colorings(diag_algebra, hopf) == count_colorings_bruteforce(
            diag_algebra, hopf
        )
        with pytest.raises(HandlebodyModeError):  # n = 3, as the kept plan's
            count_colorings(full_algebra, hopf)
        for bad in (full_algebra.tribracket, None, "z3_diag"):
            with pytest.raises(ShapeError):
                count_colorings(bad, hopf)
        assert "_count_plan" in vars(hopf)

    @given(n=st.sampled_from((2, 3, 4)), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_diagram_over_two_arbitrary_tables_of_one_size(self, n, data):
        dia = data.draw(random_diagrams(max_regions=5, max_constraints=4))
        for _ in range(2):
            alg = data.draw(arbitrary_algebras(sizes=(n,)))
            assert count_colorings(alg, dia) == count_colorings_bruteforce(alg, dia)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_diagram_over_arbitrary_tables_of_other_sizes(self, data):
        dia = data.draw(random_diagrams(max_regions=5, max_constraints=4))
        first = data.draw(arbitrary_algebras(sizes=(2, 3, 4)))
        assert count_colorings(first, dia) == count_colorings_bruteforce(first, dia)
        sizes = tuple(k for k in (2, 3, 4) if k != first.n)
        for alg in data.draw(st.lists(arbitrary_algebras(sizes=sizes), min_size=1, max_size=3)):
            assert count_colorings(alg, dia) == count_colorings_bruteforce(alg, dia)
