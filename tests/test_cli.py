import os
import subprocess
import sys
from pathlib import Path

import pytest

import tribrackets
from tribrackets import (
    Constraint,
    ConstraintKind,
    Diagram,
    DiagramKind,
    builtin_move_pairs,
    serialize_algebra,
    serialize_diagram,
)
from tribrackets.cli import _build_parser, main
from tests.conftest import DIAG_PRODUCT, FULL_PRODUCT, Z3_TENSOR


@pytest.fixture
def z3_full_path(tmp_path):
    path = tmp_path / "z3_full.alg"
    path.write_text(serialize_algebra(Z3_TENSOR, FULL_PRODUCT))
    return str(path)


@pytest.fixture
def z3_diag_path(tmp_path):
    path = tmp_path / "z3_diag.alg"
    path.write_text(serialize_algebra(Z3_TENSOR, DIAG_PRODUCT))
    return str(path)


@pytest.fixture
def theta_path(tmp_path, diagrams):
    path = tmp_path / "theta.dia"
    path.write_text(serialize_diagram(diagrams["theta"]))
    return str(path)


class TestVerify:
    def test_pass(self, capsys, z3_full_path):
        assert main(["verify", z3_full_path]) == 0
        assert capsys.readouterr().out == "PASS\n"

    def test_axiom_failure_exits_1(self, capsys, tmp_path):
        bad = serialize_algebra(Z3_TENSOR, FULL_PRODUCT).replace(
            "1 3 2 / 3 2 1 / 2 1 3", "1 1 2 / 3 2 1 / 2 1 3"
        )
        path = tmp_path / "bad.alg"
        path.write_text(bad)
        assert main(["verify", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL") and "cancellation" in out

    def test_malformed_file_exits_2(self, tmp_path):
        path = tmp_path / "junk.alg"
        path.write_text("n = 3\nnot a block\n")
        assert main(["verify", str(path)]) == 2

    def test_missing_file_exits_2(self):
        assert main(["verify", "/nonexistent/file.alg"]) == 2

    def test_tribracket_only_file(self, capsys, tmp_path):
        path = tmp_path / "bare.alg"
        path.write_text(serialize_algebra(Z3_TENSOR))
        assert main(["verify", str(path)]) == 0
        assert capsys.readouterr().out == "PASS\n"


class TestCount:
    def test_prints_one_integer(self, capsys, z3_full_path, theta_path):
        assert main(["count", z3_full_path, theta_path]) == 0
        assert capsys.readouterr().out == "9\n"

    def test_oracle_agreement(self, capsys, z3_full_path, theta_path):
        assert main(["count", z3_full_path, theta_path, "--oracle"]) == 0
        assert capsys.readouterr().out == "9\n"

    def test_enumerate_listing(self, capsys, z3_full_path, theta_path):
        assert main(["count", z3_full_path, theta_path, "--enumerate"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 10 and lines[-1] == "9"
        assert lines[0] == "o=1 p=1 q=1"

    def test_handlebody_gating_exits_2(self, tmp_path, z3_full_path, diagrams):
        path = tmp_path / "hopf.dia"
        path.write_text(serialize_diagram(diagrams["hopf_handlebody"]))
        assert main(["count", z3_full_path, str(path)]) == 2

    def test_product_required(self, tmp_path, theta_path):
        bare = tmp_path / "bare.alg"
        bare.write_text(serialize_algebra(Z3_TENSOR))
        assert main(["count", str(bare), theta_path]) == 2

    def test_oracle_on_a_disjoint_union(self, capsys, tmp_path, z3_full_path):
        # three vertices, 9 colorings each, and one region no constraint touches
        cons = tuple(
            Constraint(ConstraintKind.VERTEX, (f"l{i}", f"m{i}", f"r{i}")) for i in range(3)
        )
        regions = tuple(r for c in cons for r in c.refs) + ("free",)
        path = tmp_path / "union.dia"
        path.write_text(
            serialize_diagram(Diagram("union", DiagramKind.SPATIAL_GRAPH, regions, cons))
        )
        assert main(["count", z3_full_path, str(path), "--oracle"]) == 0
        assert capsys.readouterr().out == f"{9**3 * 3}\n"


class TestEnumerationVerbs:
    def test_enumerate_tribrackets_stream(self, capsys):
        assert main(["enumerate-tribrackets", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("tribracket:") == 2
        assert out.strip().endswith("# 2 tribrackets on 2 elements")

    @pytest.mark.parametrize("flag", ["--max-candidates", "--timeout"])
    def test_zero_budget_is_a_usage_error(self, capsys, flag):
        assert main(["enumerate-tribrackets", "3", flag, "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be positive" in captured.err

    def test_enumerate_products_stream(self, capsys, z3_full_path):
        assert main(["enumerate-products", z3_full_path]) == 0
        out = capsys.readouterr().out
        assert out.count("product:") == 8
        assert out.strip().endswith("# 8 products")

    def test_idempotent_filter(self, capsys, z3_full_path):
        assert main(["enumerate-products", z3_full_path, "--idempotent"]) == 0
        out = capsys.readouterr().out
        assert out.count("product:") == 1


class TestCheckMoves:
    def test_all_moves_pass_for_full_product(self, capsys, z3_full_path):
        assert main(["check-moves", z3_full_path]) == 0
        out = capsys.readouterr().out
        assert "R3a  PASS" in out and "IH" not in out

    def test_ih_failure_sets_exit_code(self, capsys, z3_full_path):
        assert main(["check-moves", z3_full_path, "--include-ih"]) == 1
        assert "IH  FAIL" in capsys.readouterr().out

    def test_ih_passes_for_idempotent(self, capsys, z3_diag_path):
        assert main(["check-moves", z3_diag_path, "--include-ih", "--moves", "IH"]) == 0
        assert capsys.readouterr().out == "IH  PASS\n"

    def test_move_filter(self, capsys, z3_full_path):
        assert main(["check-moves", z3_full_path, "--moves", "R4.1,R5.7"]) == 0
        assert capsys.readouterr().out == "R4.1  PASS\nR5.7  PASS\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--moves", "R9,r1a"], "unknown move ids: R9, r1a\n"),
            (["--moves", "R1a,", "--include-ih"], "unknown move ids: \n"),
            (["--moves", "IH"], "IH needs --include-ih\n"),
            (["--moves", "R1a,IH"], "IH needs --include-ih\n"),
        ],
    )
    def test_a_filter_naming_a_move_it_would_skip_is_refused(
        self, capsys, z3_full_path, flags, message
    ):
        assert main(["check-moves", z3_full_path, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message


class TestDemo:
    def test_demo_passes(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        for needle in (
            "theta colorings (z3_full)",
            "hopf_handlebody colorings (z3_diag)",
            "k2 colorings (z3_cyc)",
            "z4_left colorings (z4_half)",
            "compatible products of the z3 tensor",
            "all 17 checks passed",
        ):
            assert needle in out
        assert "FAIL" not in out

    def test_demo_is_byte_stable(self, capsys):
        assert main(["demo"]) == 0
        first = capsys.readouterr().out
        assert main(["demo"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_demo_matches_the_committed_output(self, capsys):
        golden = Path(__file__).parent / "data" / "demo.txt"
        assert main(["demo"]) == 0
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


class TestUsage:
    def test_unknown_verb_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag_exits_2(self, capsys, z3_full_path):
        assert main(["verify", z3_full_path, "--frob"]) == 2

    def test_no_verb_exits_2(self, capsys):
        assert main([]) == 2


def run_alone(argv):
    """Exit code and stdout of one command-line call in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(Path(tribrackets.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "tribrackets", *argv], capture_output=True, text=True, env=env
    )
    return done.returncode, done.stdout


class TestNoStateBetweenCalls:
    """One process reuses the parser and the move catalogue across main() calls."""

    def run_in_sequence(self, capsys, calls):
        results = []
        for argv in calls:
            code = main(argv)
            results.append((code, capsys.readouterr().out))
        return results

    def test_the_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_each_call_equals_the_same_call_run_alone(
        self, capsys, z3_full_path, theta_path
    ):
        calls = [
            ["check-moves", z3_full_path, "--moves", "R1a", "--include-ih"],
            ["check-moves", z3_full_path],
            ["enumerate-products", z3_full_path, "--idempotent"],
            ["enumerate-products", z3_full_path],
            ["count", z3_full_path, theta_path, "--oracle", "--enumerate"],
            ["count", z3_full_path, theta_path, "--oracle"],
            ["count", z3_full_path, theta_path],
        ]
        assert self.run_in_sequence(capsys, calls) == [run_alone(argv) for argv in calls]

    def test_a_usage_error_changes_no_later_call(self, capsys, z3_full_path, theta_path):
        calls = [
            ["check-moves", z3_full_path, "--moves", "R2a", "--include-ih"],
            ["count", z3_full_path, theta_path, "--oracle", "--enumerate"],
            ["enumerate-products", z3_full_path, "--idempotent"],
        ]
        first = self.run_in_sequence(capsys, calls)
        usage_errors = [
            ["check-moves", z3_full_path, "--frob"],
            ["count", z3_full_path],
            ["enumerate-tribrackets", "three"],
        ]
        for bad in usage_errors:
            assert main(bad) == 2
            assert capsys.readouterr().out == ""
            assert self.run_in_sequence(capsys, calls) == first

    def test_mutating_the_move_list_changes_no_later_check(self, capsys, z3_full_path):
        argv = ["check-moves", z3_full_path, "--include-ih"]
        before = self.run_in_sequence(capsys, [argv])
        pairs = builtin_move_pairs()
        expected = list(pairs)
        pairs.reverse()
        del pairs[3:]
        assert builtin_move_pairs() == expected
        assert self.run_in_sequence(capsys, [argv]) == before
