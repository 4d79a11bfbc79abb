import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from tribrackets import (
    ConstraintKind,
    MoveCheckReport,
    PartialProduct,
    Tribracket,
    TribracketAlgebra,
    builtin_move_pairs,
    check_move_invariance,
    enumerate_products,
    verify_algebra,
    verify_tribracket,
)
from tribrackets.moves import _tally
from tests.conftest import CYC_PRODUCT, FULL_PRODUCT, Z3_TENSOR, arbitrary_algebras


def extensions(alg, frag, env):
    """Extensions of env (keys in boundary order) to the fragment's internal regions."""
    return _tally(alg, tuple(env), frag)[tuple(env.values())]


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
        # over all verified products of the bundled tensor, the IH pair holds
        # for every boundary coloring iff multiplication happens on equal
        # operands only (with aa = a where defined)
        pair = pairs_by_id()["IH"]
        for alg in all_verified_z3_algebras():
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
