"""Acceptance gate: every bundled quantitative claim, checked exactly.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
even on success).  All comparisons are exact integer equality; the only
tolerances are the stated wall-clock envelopes.
"""
import math
import time

import pytest

from tribrackets import (
    BracketSlot,
    DiagramKind,
    PartialProduct,
    Tribracket,
    TribracketAlgebra,
    alexander_tribracket,
    builtin_move_pairs,
    check_move_invariance,
    count_colorings,
    count_colorings_bruteforce,
    enumerate_products,
    recheck_violation,
    tribracket_solve,
    verify_algebra,
    verify_tribracket,
)
from tribrackets.cli import main as cli_main
from tests.conftest import (
    CYC_PRODUCT,
    DIAG_PRODUCT,
    FULL_PRODUCT,
    Z3_TENSOR,
    Z4_PRODUCT,
    Z4_TENSOR,
    k2_cases,
)

EIGHT_PRODUCT_TABLES = {
    ((1, 3, 2), (3, 2, 1), (2, 1, 3)),
    ((1, 3, None), (None, 2, 1), (2, None, 3)),
    ((1, None, 2), (3, 2, None), (None, 1, 3)),
    ((None, 3, 2), (3, None, 1), (2, 1, None)),
    ((1, None, None), (None, 2, None), (None, None, 3)),
    ((None, 3, None), (None, None, 1), (2, None, None)),
    ((None, None, 2), (3, None, None), (None, 1, None)),
    ((None, None, None), (None, None, None), (None, None, None)),
}


def report(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {criterion}"


def timed(budget: float):
    start = time.monotonic()

    def check() -> bool:
        return time.monotonic() - start < budget

    return check


class TestCriterion1ReferenceValues:
    def test_tensor_axioms_and_spot_values(self):
        within = timed(1.0)
        ok = (
            verify_tribracket(Z3_TENSOR).passed
            and Z3_TENSOR.bracket(1, 2, 3) == 2
            and Z3_TENSOR.bracket(2, 3, 1) == 3
        )
        report("1a tensor axioms and spot values", ok and within())

    def test_exactly_eight_products(self):
        within = timed(1.0)
        got = enumerate_products(Z3_TENSOR)
        ok = len(got) == 8 and {p.table for p in got} == EIGHT_PRODUCT_TABLES
        report("1b the eight compatible products", ok and within())

    @pytest.mark.parametrize(
        "diagram,product,expected",
        [
            ("theta", FULL_PRODUCT, 9),
            ("handcuff", FULL_PRODUCT, 3),
            ("theta", DIAG_PRODUCT, 3),
            ("handcuff", DIAG_PRODUCT, 3),
            ("hopf_handlebody", DIAG_PRODUCT, 27),
            ("genus2_link", DIAG_PRODUCT, 3),
            ("k1", CYC_PRODUCT, 3),
            ("k2", CYC_PRODUCT, 0),
        ],
        ids=[
            "theta-full-9",
            "handcuff-full-3",
            "theta-diag-3",
            "handcuff-diag-3",
            "hopf-27",
            "genus2-3",
            "k1-3",
            "k2-0",
        ],
    )
    def test_z3_counting_values(self, diagrams, diagram, product, expected):
        within = timed(1.0)
        alg = TribracketAlgebra(Z3_TENSOR, product)
        got = count_colorings(alg, diagrams[diagram])
        report(f"1c {diagram} = {expected}", got == expected and within())

    @pytest.mark.parametrize(
        "diagram,expected", [("z4_left", 8), ("z4_right", 4)]
    )
    def test_z4_counting_values(self, diagrams, diagram, expected):
        within = timed(1.0)
        alg = TribracketAlgebra(Z4_TENSOR, Z4_PRODUCT)
        got = count_colorings(alg, diagrams[diagram])
        report(f"1c {diagram} = {expected}", got == expected and within())

    def test_k2_obstruction_triples(self):
        within = timed(1.0)
        cases = k2_cases(TribracketAlgebra(Z3_TENSOR, CYC_PRODUCT))
        ok = [(value, required) for _, value, required in cases] == [(3, 1), (1, 2), (2, 3)]
        report("1d k2 obstruction values", ok and within())


class TestCriterion2OracleEquivalence:
    def test_solver_equals_brute_force_on_the_whole_corpus(self, diagrams):
        within = timed(10.0)
        algebras = [
            TribracketAlgebra(Z3_TENSOR, FULL_PRODUCT),
            TribracketAlgebra(Z3_TENSOR, DIAG_PRODUCT),
            TribracketAlgebra(Z3_TENSOR, CYC_PRODUCT),
            TribracketAlgebra(Z4_TENSOR, Z4_PRODUCT),
        ]
        ok = True
        for alg in algebras:
            for dia in diagrams.values():
                if dia.kind is DiagramKind.HANDLEBODY_LINK and not alg.idempotent:
                    continue
                if count_colorings(alg, dia) != count_colorings_bruteforce(alg, dia):
                    ok = False
        report("2 solver/brute-force agreement", ok and within())


class TestCriterion3AxiomSuite:
    def test_linear_family_up_to_12(self):
        ok = True
        for n in range(1, 13):
            units = [x for x in range(1, n + 1) if math.gcd(x, n) == 1]
            for x in units:
                for y in units:
                    if not verify_tribracket(alexander_tribracket(n, x, y)).passed:
                        ok = False
        report("3a linear tensors verify for n <= 12", ok)

    def test_slot_solving_roundtrips_up_to_5(self):
        ok = True
        for n in range(1, 6):
            units = [x for x in range(1, n + 1) if math.gcd(x, n) == 1]
            for x in units:
                for y in units:
                    t = alexander_tribracket(n, x, y)
                    for a in range(1, n + 1):
                        for b in range(1, n + 1):
                            for c in range(1, n + 1):
                                d = t.bracket(a, b, c)
                                ok = ok and tribracket_solve(t, BracketSlot.A, (b, c, d)) == a
                                ok = ok and tribracket_solve(t, BracketSlot.B, (a, c, d)) == b
                                ok = ok and tribracket_solve(t, BracketSlot.C, (a, b, d)) == c
                                ok = ok and tribracket_solve(t, BracketSlot.RESULT, (a, b, c)) == d
        report("3b slot solving round-trips for n <= 5", ok)

    def test_reports_self_certify_on_mutations(self):
        ok = True
        # every single-entry mutation of the bundled tensor is caught with a
        # witness that reproduces when re-evaluated
        for a in range(1, 4):
            for b in range(1, 4):
                for c in range(1, 4):
                    old = Z3_TENSOR.bracket(a, b, c)
                    new = old % 3 + 1
                    table = [[list(r) for r in m] for m in Z3_TENSOR.table]
                    table[a - 1][b - 1][c - 1] = new
                    t = Tribracket(3, tuple(tuple(tuple(r) for r in m) for m in table))
                    rep = verify_tribracket(t)
                    if rep.passed:
                        ok = False
                        continue
                    ok = ok and all(recheck_violation(v, t) for v in rep.violations)
        report("3c tensor mutations detected with live witnesses", ok)

    def test_product_mutations_detected(self):
        ok = True
        for a in range(1, 4):
            for b in range(1, 4):
                table = [list(r) for r in FULL_PRODUCT.table]
                table[a - 1][b - 1] = table[a - 1][b - 1] % 3 + 1
                p = PartialProduct(3, tuple(tuple(r) for r in table))
                rep = verify_algebra(TribracketAlgebra(Z3_TENSOR, p))
                if rep.passed:
                    ok = False
                    continue
                ok = ok and all(
                    recheck_violation(v, Z3_TENSOR, p) for v in rep.violations
                )
        report("3d product mutations detected with live witnesses", ok)


class TestCriterion4MoveSuite:
    def test_every_verified_bundled_algebra_passes_non_ih_moves(self):
        ok = True
        algebras = [
            TribracketAlgebra(Z3_TENSOR, FULL_PRODUCT),
            TribracketAlgebra(Z3_TENSOR, DIAG_PRODUCT),
            TribracketAlgebra(Z3_TENSOR, CYC_PRODUCT),
            TribracketAlgebra(Z4_TENSOR, Z4_PRODUCT),
        ]
        for alg in algebras:
            ok = ok and verify_algebra(alg).passed
            for pair in builtin_move_pairs():
                if pair.requires_idempotent:
                    continue
                ok = ok and check_move_invariance(alg, pair).passed
        report("4a all non-IH moves pass for verified algebras", ok)

    def test_ih_behaviour(self):
        ih = next(p for p in builtin_move_pairs() if p.move_id == "IH")
        diag = check_move_invariance(TribracketAlgebra(Z3_TENSOR, DIAG_PRODUCT), ih)
        full = check_move_invariance(TribracketAlgebra(Z3_TENSOR, FULL_PRODUCT), ih)
        ok = diag.passed and not full.passed and full.witness is not None
        if ok:
            env, before, after = full.witness
            ok = before != after and set(env) == set(ih.boundary)
        report("4b IH separates idempotent from non-idempotent", ok)

    def test_vertex_compat_mutation_fails_r4(self):
        table = [list(r) for r in FULL_PRODUCT.table]
        table[0][0], table[0][1] = table[0][1], table[0][0]
        broken = TribracketAlgebra(Z3_TENSOR, PartialProduct(3, tuple(map(tuple, table))))
        r4 = next(p for p in builtin_move_pairs() if p.move_id == "R4.1")
        rep = check_move_invariance(broken, r4)
        report("4c r4-compat mutation fails R4.1 with witness",
               not rep.passed and rep.witness is not None)


class TestCriterion5Determinism:
    def test_demo_runs_are_byte_identical(self, capsys):
        assert cli_main(["demo"]) == 0
        first = capsys.readouterr().out
        assert cli_main(["demo"]) == 0
        second = capsys.readouterr().out
        ok = first == second and "FAIL" not in first
        report("5 demo output is byte-stable", ok)
