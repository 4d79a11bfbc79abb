import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tribrackets
from tribrackets import (
    Constraint,
    ConstraintKind,
    Diagram,
    DiagramKind,
    PartialProduct,
    Tribracket,
    alexander_tribracket,
    builtin_move_pairs,
    parse_algebra,
    serialize_algebra,
    serialize_diagram,
)
from tribrackets.cli import _build_parser, _read, main
from tests.conftest import CYC_PRODUCT, DIAG_PRODUCT, FULL_PRODUCT, Z3_TENSOR


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

    def test_a_file_that_is_not_utf8_exits_2_with_its_path(self, capsys, tmp_path):
        path = tmp_path / "latin1.alg"
        path.write_bytes(serialize_algebra(Z3_TENSOR).encode() + "# caf\xe9\n".encode("latin-1"))
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"{path}: ")

    def test_tribracket_only_file(self, capsys, tmp_path):
        path = tmp_path / "bare.alg"
        path.write_text(serialize_algebra(Z3_TENSOR))
        assert main(["verify", str(path)]) == 0
        assert capsys.readouterr().out == "PASS\n"

    def test_bundled_verify_reports_match_the_committed_output(self, capsys):
        # the CI step that pipes the console script into diff reads the same file
        algebras = Path(tribrackets.__file__).parent / "data" / "algebras"
        golden = Path(__file__).parent / "data" / "verify_reports.txt"
        for name in ("z3_bare", "z3_cyc", "z3_diag", "z3_full", "z4_half"):
            print(f"# {name}.alg")
            assert main(["verify", str(algebras / f"{name}.alg")]) == 0
        assert main(["enumerate-products", str(algebras / "z3_full.alg")]) == 0
        # every slot of this isotope is bijective, so only coherence fails
        print("# alexander_3_1_1_swapped.alg")
        assert main(["verify", str(golden.parent / "alexander_3_1_1_swapped.alg")]) == 1
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_product_census_reports_match_the_committed_output(self, capsys):
        # pins the product census on two tensors whose first rows mostly fail r5-compat-1;
        # the verify-reports CI step diffs the console script against the same file
        data = Path(__file__).parent / "data"
        for name in ("alexander_11_1_4", "alexander_9_1_4"):
            print(f"# {name}.alg")
            assert main(["enumerate-products", str(data / f"{name}.alg")]) == 0
        golden = data / "product_reports.txt"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


DEMO_PAIRS = [
    ("z3_full", "theta"), ("z3_full", "handcuff"), ("z3_diag", "theta"), ("z3_diag", "handcuff"),
    ("z3_diag", "hopf_handlebody"), ("z3_diag", "genus2_link"), ("z3_cyc", "k1"), ("z3_cyc", "k2"),
    ("z4_half", "z4_left"), ("z4_half", "z4_right"),
]

# grown chains whose counts re-plan on fewer branch regions (see tests/test_coloring.py)
CHAIN_PAIRS = [("alexander_7_1_1_mid", "chain_7_mid"), ("alexander_11_1_1_diag", "chain_11_diag")]


class TestCount:
    def test_bundled_count_reports_match_the_committed_output(self, capsys):
        # the CI step that pipes the console script into diff reads the same file
        data = Path(tribrackets.__file__).parent / "data"
        golden = Path(__file__).parent / "data" / "count_reports.txt"
        for algebra, diagram in DEMO_PAIRS:
            print(f"# {algebra} {diagram}")
            alg, dia = data / "algebras" / f"{algebra}.alg", data / "diagrams" / f"{diagram}.dia"
            assert main(["count", "--enumerate", "--oracle", str(alg), str(dia)]) == 0
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_grown_chain_counts_match_the_committed_counts(self, capsys):
        # the count-reports CI step diffs the console script against the same file
        data = Path(__file__).parent / "data"
        for algebra, diagram in CHAIN_PAIRS:
            print(f"# {algebra} {diagram}")
            assert main(["count", str(data / f"{algebra}.alg"), str(data / f"{diagram}.dia")]) == 0
        assert capsys.readouterr().out == (data / "chain_counts.txt").read_text(encoding="utf-8")

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

    def test_enumerate_counts_its_listing_in_one_search(
        self, capsys, monkeypatch, z3_full_path, theta_path
    ):
        def solver(*_):
            raise AssertionError("--enumerate ran a second search to count")

        monkeypatch.setattr(tribrackets.cli, "count_colorings", solver)
        assert main(["count", z3_full_path, theta_path, "--enumerate", "--oracle"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 10 and lines[-1] == "9"

    def test_oracle_checks_the_listing_length(
        self, capsys, monkeypatch, z3_full_path, theta_path
    ):
        monkeypatch.setattr(tribrackets.cli, "enumerate_colorings", lambda alg, dia: [{}] * 8)
        assert main(["count", z3_full_path, theta_path, "--enumerate", "--oracle"]) == 1
        assert capsys.readouterr().out == "oracle mismatch: solver 8, brute force 9\n"

    def test_handlebody_gating_exits_2(self, capsys, tmp_path, z3_full_path, diagrams):
        path = tmp_path / "hopf.dia"
        path.write_text(serialize_diagram(diagrams["hopf_handlebody"]))
        assert main(["count", z3_full_path, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "diagram 'hopf_handlebody' is a handlebody-link; the algebra must be idempotent\n"
        )

    def test_oracle_over_its_cap_is_refused(self, capsys, tmp_path, z3_full_path):
        # five vertices, 15 regions: 3^15 = 14,348,907 assignments
        cons = tuple(
            Constraint(ConstraintKind.VERTEX, (f"l{i}", f"m{i}", f"r{i}")) for i in range(5)
        )
        regions = tuple(r for c in cons for r in c.refs)
        path = tmp_path / "five.dia"
        path.write_text(
            serialize_diagram(Diagram("five", DiagramKind.SPATIAL_GRAPH, regions, cons))
        )
        assert main(["count", z3_full_path, str(path), "--oracle"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "14348907 assignments exceed the cap of 10000000; use count_colorings\n"
        )

    def test_oracle_refuses_a_large_diagram_before_the_solver(
        self, capsys, monkeypatch, tmp_path, z3_full_path
    ):
        # a 10,000-region crossing chain: 3^10000 has 4772 digits
        regions = tuple(f"r{i}" for i in range(10_000))
        cons = tuple(
            Constraint(ConstraintKind.CROSSING, regions[i:i + 4]) for i in range(len(regions) - 3)
        )
        path = tmp_path / "chain.dia"
        path.write_text(
            serialize_diagram(Diagram("chain", DiagramKind.SPATIAL_GRAPH, regions, cons))
        )

        def solver(*_):
            raise AssertionError("the solver ran before the oracle refused")

        monkeypatch.setattr(tribrackets.cli, "count_colorings", solver)
        assert main(["count", z3_full_path, str(path), "--oracle"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "3^10000 assignments exceed the cap of 10000000; use count_colorings\n"
        )

    def test_malformed_diagram_file_exits_2_with_its_path(
        self, capsys, tmp_path, z3_full_path
    ):
        path = tmp_path / "bad.dia"
        path.write_text("name = t\nkind = spatial-graph\nregions: a b\nvertex: a b\n")
        assert main(["count", z3_full_path, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}: line 4: vertex constraint needs 3 regions, got 2\n"

    def test_oracle_mismatch_exits_1(self, capsys, monkeypatch, z3_full_path, theta_path):
        monkeypatch.setattr(tribrackets.cli, "count_colorings", lambda alg, dia: 10)
        assert main(["count", z3_full_path, theta_path, "--oracle"]) == 1
        assert capsys.readouterr().out == "oracle mismatch: solver 10, brute force 9\n"

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

    def test_census_reports_match_the_committed_output(self, capsys):
        # the CI step that pipes the console script into diff reads the same file
        golden = Path(__file__).parent / "data" / "census_reports.txt"
        assert main(["enumerate-tribrackets", "4"]) == 0
        assert main(["enumerate-tribrackets", "5", "--max-candidates", "40"]) == 0
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_a_capped_census_prints_its_prefix_and_says_it_is_partial(self, capsys):
        assert main(["enumerate-tribrackets", "3"]) == 0
        blocks = capsys.readouterr().out.split("\n\n")
        assert main(["enumerate-tribrackets", "3", "--max-candidates", "2"]) == 0
        out = capsys.readouterr().out
        assert out == "\n\n".join(blocks[:2]) + (
            "\n\n# 2 tribrackets on 3 elements (partial: budget exhausted)\n"
        )

    def test_a_timeout_also_bounds_the_set_up(self, capsys):
        start = time.monotonic()
        assert main(["enumerate-tribrackets", "30", "--timeout", "0.05"]) == 0
        assert time.monotonic() - start < 1.0
        assert capsys.readouterr().out == (
            "# 0 tribrackets on 30 elements (partial: budget exhausted)\n"
        )

    def test_an_order_too_large_for_a_census_is_a_usage_error_without_a_traceback(self):
        # once exit 1 with an OverflowError traceback
        env = dict(os.environ, PYTHONPATH=str(Path(tribrackets.__file__).parents[1]))
        argv = ["enumerate-tribrackets", str(10**20), "--timeout", "0.05"]
        done = subprocess.run(
            [sys.executable, "-m", "tribrackets", *argv], capture_output=True, text=True, env=env
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            f"carrier size {10**20} is too large for a census: n^4 exceeds {sys.maxsize}\n"
        )

    @pytest.mark.parametrize("flag", ["--max-candidates", "--timeout"])
    def test_zero_budget_is_a_usage_error(self, capsys, flag):
        assert main(["enumerate-tribrackets", "3", flag, "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be positive" in captured.err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_a_timeout_that_is_not_finite_is_a_usage_error(self, capsys, value):
        assert main(["enumerate-tribrackets", "3", "--timeout", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "timeout must be positive and finite" in captured.err

    def test_enumerate_products_refuses_a_tensor_failing_its_axioms(self, capsys, tmp_path):
        path = tmp_path / "bad.alg"
        path.write_text(serialize_algebra(Tribracket(2, (((1, 1), (1, 1)), ((1, 1), (1, 1))))))
        assert main(["enumerate-products", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}: tensor fails its axioms\n"

    @pytest.mark.parametrize("flag", [[], ["--idempotent"]])
    def test_enumerate_products_verifies_the_tensor_once(self, monkeypatch, z3_full_path, flag):
        calls = []

        def counting(t):
            calls.append(t)
            return tribrackets.algebra.verify_tribracket(t)

        monkeypatch.setattr(tribrackets.cli, "verify_tribracket", counting)
        monkeypatch.setattr(tribrackets.enumeration, "verify_tribracket", counting)
        assert main(["enumerate-products", z3_full_path, *flag]) == 0
        assert calls == [Z3_TENSOR]

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
            (["--moves", "R1a,", "--include-ih"], "unknown move ids: ''\n"),
            (["--moves", "IH"], "IH needs --include-ih\n"),
            (["--moves", "R1a,IH"], "IH needs --include-ih\n"),
            # an empty id is shown as '': it once printed "unknown move ids: ", naming nothing
            (["--moves", ""], "unknown move ids: ''\n"),
            (["--moves", ",R1a"], "unknown move ids: ''\n"),
            (["--moves", "R9,,r1a"], "unknown move ids: R9, '', r1a\n"),
        ],
    )
    def test_a_filter_naming_a_move_it_would_skip_is_refused(
        self, capsys, z3_full_path, flags, message
    ):
        assert main(["check-moves", z3_full_path, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message

    def test_bundled_reports_match_the_committed_output(self, capsys):
        # the CI step that pipes the console script into diff reads the same file
        algebras = Path(tribrackets.__file__).parent / "data" / "algebras"
        golden = Path(__file__).parent / "data" / "move_reports.txt"
        codes = [
            main(["check-moves", "--include-ih", str(algebras / f"{name}.alg")])
            for name in ("z3_full", "z3_diag", "z3_cyc", "z4_half")
        ]
        assert codes == [1, 0, 1, 1]  # IH fails unless the product is the diagonal
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


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

    def test_a_failing_row_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(tribrackets.cli, "enumerate_idempotent_products", lambda t: [])
        assert main(["demo"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.endswith("FAIL")] == [
            "idempotent products of the z3 tensor  expected   1  got   0  FAIL"
        ]
        assert lines[-1] == "1 of 17 checks failed"


class TestUsage:
    def test_unknown_verb_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag_exits_2(self, capsys, z3_full_path):
        assert main(["verify", z3_full_path, "--frob"]) == 2

    def test_no_verb_exits_2(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["verify", "a.alg", "--frob"],
            ["verify", "a.alg", "b.alg"],
            ["count", "a.alg"],
            ["enumerate-tribrackets", "three"],
            ["check-moves", "a.alg", "--moves"],
            ["check-moves", "--moves=R1a"],
            ["-h"],
            ["check-moves", "-h"],
        ],
    )
    def test_main_prints_and_exits_as_the_parser_does(self, capsys, argv):
        # against the parser in this process, since argparse's wording varies by version
        code = main(argv)
        printed = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(argv)
        assert (code, printed) == (exc.value.code, capsys.readouterr())


# each verb's positionals (None) and options, and the values and tokens drawn with them:
# every verb, option and positional of the parser, and tokens that argparse reads in ways
# the reader leaves to it (help, an abbreviation, --opt=value, "--", a negative number)
ARGUMENTS = {
    "verify": [None],
    "enumerate-tribrackets": [None, "--max-candidates", "--timeout"],
    "enumerate-products": [None, "--idempotent"],
    "count": [None, None, "--enumerate", "--oracle"],
    "check-moves": [None, "--moves", "--include-ih"],
    "demo": [],
}
STORE_OPTIONS = ["--max-candidates", "--timeout", "--moves"]
VALUES = ["z3.alg", "theta.dia", "3", "0.5", "R1a,IH", "", "three", "inf"]
TOKENS = sorted({a for args in ARGUMENTS.values() for a in args if a}) + VALUES + [
    "-h", "--inc", "--moves=R1a", "--", "-1", "frobnicate",
]


@st.composite
def command_lines(draw):
    """A verb and some of its arguments in any order, each store option followed by a
    value, with up to two tokens of any kind put among them."""
    verb = draw(st.sampled_from([*ARGUMENTS, "frobnicate", "-h"]))
    arguments = draw(st.permutations(ARGUMENTS.get(verb, [])))
    pieces = [
        [draw(st.sampled_from(VALUES))] if a is None
        else [a, draw(st.sampled_from(VALUES))] if a in STORE_OPTIONS else [a]
        for a in arguments[: draw(st.integers(0, len(arguments)))]
    ]
    extra = draw(st.lists(st.sampled_from(TOKENS), max_size=2))
    pieces.insert(draw(st.integers(0, len(pieces))), extra)
    return [verb, *(token for piece in pieces for token in piece)]


class TestPlainCommandLines:
    """main reads a plain command line against the parser's actions (_read) and leaves
    every other to argparse."""

    @given(argv=command_lines())
    @settings(max_examples=1000, deadline=None)
    def test_a_command_line_the_reader_accepts_parses_as_argparse_parses_it(self, argv):
        args = _read(_build_parser(), argv)
        if args is not None:
            assert args == _build_parser().parse_args(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "a.alg"],
            ["enumerate-tribrackets", "4", "--max-candidates", "40", "--timeout", "inf"],
            ["enumerate-products", "--idempotent", "a.alg"],
            ["count", "a.alg", "--oracle", "b.dia", "--enumerate"],
            ["check-moves", "a.alg", "--moves", "R1a", "--include-ih"],
            ["check-moves", "a.alg", "--moves", "", "--moves", "R2a"],
            ["demo"],
        ],
    )
    def test_every_verb_has_command_lines_the_reader_accepts(self, argv):
        args = _read(_build_parser(), argv)
        assert args is not None and args == _build_parser().parse_args(argv)

    @staticmethod
    def toy_parser():
        """A parser with what the command line's lacks: choices, two options of one dest,
        a string default and defaults set on both levels."""
        parser = argparse.ArgumentParser(prog="toy")
        parser.set_defaults(level="top")
        sub = parser.add_subparsers(dest="verb", required=True)
        go = sub.add_parser("go")
        go.add_argument("size", type=int, choices=[1, 2])
        go.add_argument("--loud", dest="volume", action="store_const", const=2, default=1)
        go.add_argument("--quiet", dest="volume", action="store_false", default=0)
        go.set_defaults(level="go")
        sub.add_parser("named").add_argument("--name", type=str.upper, default="x")
        return parser

    @pytest.mark.parametrize(
        "argv, plain",
        [
            (["go", "1"], True),
            (["go", "--loud", "2"], True),
            (["go", "2", "--quiet"], True),
            (["go", "3"], False),  # not a choice
            (["named", "--name", "y"], True),
            (["named"], False),  # argparse passes the default "x" through type
        ],
    )
    def test_the_reader_follows_the_parser_it_is_given(self, argv, plain):
        parser = self.toy_parser()
        args = _read(parser, argv)
        assert (args is not None) == plain
        if plain:
            assert args == parser.parse_args(argv)


def run_alone(argv):
    """Exit code and stdout of one command-line call in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(Path(tribrackets.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "tribrackets", *argv], capture_output=True, text=True, env=env
    )
    return done.returncode, done.stdout


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_a_closed_stdout_is_an_io_error_without_a_traceback(self, z3_full_path, unbuffered):
        # unbuffered, the first print fails; buffered, the flush at the end does
        env = dict(os.environ, PYTHONPATH=str(Path(tribrackets.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "tribrackets", "check-moves", z3_full_path],
                stdout=write, stderr=subprocess.PIPE, text=True, env=env,
            )
        finally:
            os.close(write)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr and "BrokenPipeError" not in done.stderr


class TestNoStateBetweenCalls:
    """One process reuses the parser, the move catalogue and each parsed algebra file
    across main() calls."""

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


class TestSharedParses:
    """In-process calls share each parsed algebra file by its text, within a byte budget."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """The texts parsed through ``cli.parse_algebra``, starting from an empty cache."""
        cli = tribrackets.cli
        monkeypatch.setattr(cli, "_parsed", {})
        monkeypatch.setattr(cli, "_held", 0)
        texts = []

        def spy(text):
            texts.append(text)
            return parse_algebra(text)

        monkeypatch.setattr(cli, "parse_algebra", spy)
        return texts

    @staticmethod
    def estimate(text, n=3):
        pair = parse_algebra(text)
        cells, tuples = (n + 1) ** 4 + (n + 1) ** 3 + n**3 + 2 * n * n + 2 * n, n * n + 2 * n + 4
        size = 8 * cells + 40 * tuples + sys.getsizeof({text: pair}) - sys.getsizeof({})
        size += sum(map(sys.getsizeof, (text, pair, *pair, *map(vars, filter(None, pair)))))
        return size + sys.getsizeof((pair, size)) + sys.getsizeof(size)

    def write(self, tmp_path, name, product):
        path = tmp_path / f"{name}.alg"
        path.write_text(serialize_algebra(Z3_TENSOR, product))
        return str(path)

    def test_two_calls_on_the_same_text_parse_once(self, capsys, parses, tmp_path):
        # two paths, one text: the key is the content, not the path
        first, second = (self.write(tmp_path, name, FULL_PRODUCT) for name in ("a", "b"))
        assert main(["check-moves", first, "--moves", "R3a"]) == 0
        assert main(["verify", second]) == 0
        assert capsys.readouterr().out == "R3a  PASS\nPASS\n"
        assert len(parses) == 1
        tribracket, _ = tribrackets.cli._parse_shared(parses[0])
        assert len(parses) == 1
        assert "keyed_table" in vars(tribracket)  # the check's keyed table stays with the parse

    def test_a_rewritten_file_is_parsed_again_and_its_new_table_used(
        self, capsys, parses, tmp_path, theta_path
    ):
        path = self.write(tmp_path, "alg", FULL_PRODUCT)
        assert main(["count", path, theta_path]) == 0
        self.write(tmp_path, "alg", DIAG_PRODUCT)
        assert main(["count", path, theta_path]) == 0
        assert capsys.readouterr().out == "9\n3\n"  # theta counts the defined cells a*b
        assert len(parses) == 2 and parses[0] != parses[1]

    def test_a_refused_file_is_refused_again(self, capsys, parses, tmp_path):
        path = tmp_path / "bad.alg"
        path.write_text("n = 3\ntribracket:\n1 2 3\n")
        refusals = []
        for _ in range(2):
            assert main(["verify", str(path)]) == 2
            refusals.append(capsys.readouterr().err)
        assert refusals[0] == refusals[1] and refusals[0].startswith(f"{path}: line 3: ")
        assert len(parses) == 2
        assert tribrackets.cli._parsed == {} and tribrackets.cli._held == 0

    def test_the_least_recently_used_entry_is_evicted_first(
        self, capsys, monkeypatch, parses, tmp_path
    ):
        full, diag, cyc = (self.write(tmp_path, name, product) for name, product in
                           (("full", FULL_PRODUCT), ("diag", DIAG_PRODUCT), ("cyc", CYC_PRODUCT)))
        texts = [Path(p).read_text() for p in (full, diag, cyc)]
        sizes = [self.estimate(t) for t in texts]
        # room for full and cyc, not for all three
        monkeypatch.setattr(tribrackets.cli, "_CACHE_BYTES", sum(sizes) - 1)
        for path in (full, diag, full, cyc):  # diag is now the least recently used
            main(["verify", path])
        assert list(tribrackets.cli._parsed) == [texts[0], texts[2]]
        assert tribrackets.cli._held == sizes[0] + sizes[2]
        main(["verify", full])
        main(["verify", diag])  # parsed again, evicting cyc
        assert list(tribrackets.cli._parsed) == [texts[0], texts[1]]
        assert parses == [texts[0], texts[1], texts[2], texts[1]]
        assert capsys.readouterr().out == "PASS\n" * 6

    def test_an_entry_over_the_whole_budget_is_not_kept(
        self, capsys, monkeypatch, parses, z3_full_path
    ):
        text = Path(z3_full_path).read_text()
        monkeypatch.setattr(tribrackets.cli, "_CACHE_BYTES", self.estimate(text) - 1)
        for _ in range(2):
            assert main(["verify", z3_full_path]) == 0
        assert parses == [text, text]
        assert tribrackets.cli._parsed == {} and tribrackets.cli._held == 0
        monkeypatch.setattr(tribrackets.cli, "_CACHE_BYTES", self.estimate(text))
        assert main(["verify", z3_full_path]) == 0
        assert list(tribrackets.cli._parsed) == [text]

    # the bytes a kept parse holds, measured in a fresh process: in a process that ran other
    # tests first, the objects' dicts differ, and an order-3 parse read 4,444 to 4,772 bytes
    HELD = """
import gc, sys, tracemalloc
from tribrackets import cli
tracemalloc.start()
gc.collect()  # empties the free lists, so that each new tuple is a traced block
assert cli.main(["count", *sys.argv[1:]]) == 0
((text, ((tribracket, product), estimate)),) = cli._parsed.items()
assert "keyed_table" in vars(tribracket) and "keyed_table" in vars(product)
del text, tribracket, product
gc.collect()  # frees what the count dropped
kept = tracemalloc.get_traced_memory()[0]
cli._parsed.clear()  # the text, the entry's key
gc.collect()  # and the parse's tuples, which went to the free lists
print(estimate, kept - tracemalloc.get_traced_memory()[0])
"""

    @pytest.mark.parametrize("n", [3, 12, 40])
    def test_the_estimate_is_what_a_kept_parse_holds(self, tmp_path, diagrams, n):
        # _CACHE_BYTES bounds all a process keeps per algebra only if the estimate does
        alg = tmp_path / "alg.alg"
        alg.write_text(serialize_algebra(alexander_tribracket(n, 1, 1), PartialProduct.diagonal(n)))
        dia = tmp_path / "genus2.dia"
        dia.write_text(serialize_diagram(diagrams["genus2_link"]))
        env = dict(os.environ, PYTHONPATH=str(Path(tribrackets.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", self.HELD, str(alg), str(dia)],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        estimate, held = map(int, done.stdout.split("\n")[-2].split())
        assert abs(estimate / held - 1) < 0.05, (estimate, held)

    def test_bundled_move_reports_cold_then_warm(self, capsys, parses):
        # the CI step on the built package runs the same four files twice in one process
        algebras = Path(tribrackets.__file__).parent / "data" / "algebras"
        golden = (Path(__file__).parent / "data" / "move_reports.txt").read_text(encoding="utf-8")
        for _ in range(2):
            codes = [
                main(["check-moves", "--include-ih", str(algebras / f"{name}.alg")])
                for name in ("z3_full", "z3_diag", "z3_cyc", "z4_half")
            ]
            assert codes == [1, 0, 1, 1]
            assert capsys.readouterr().out == golden
        assert len(parses) == 4
