import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tribrackets import (
    Constraint,
    ConstraintKind,
    Diagram,
    DiagramKind,
    DiagramParseError,
    ShapeError,
    builtin_diagrams,
    load_bundled_diagram,
    parse_diagram,
    serialize_diagram,
)

BUNDLED_NAMES = [
    "theta",
    "handcuff",
    "hopf_handlebody",
    "genus2_link",
    "k1",
    "k2",
    "z4_left",
    "z4_right",
]


class TestParse:
    def test_bundled_theta_shape(self):
        d = load_bundled_diagram("theta")
        assert len(d.regions) == 3
        kinds = [c.kind for c in d.constraints]
        assert kinds.count(ConstraintKind.VERTEX) == 2
        assert kinds.count(ConstraintKind.CROSSING) == 0
        assert d.kind is DiagramKind.SPATIAL_GRAPH

    def test_undeclared_region_named_in_error(self):
        text = "name = t\nkind = spatial-graph\nregions: a b\nvertex: a z b\n"
        with pytest.raises(DiagramParseError) as err:
            parse_diagram(text)
        assert "'z'" in str(err.value)

    def test_vertex_arity_error(self):
        text = "name = t\nkind = spatial-graph\nregions: a b\nvertex: a b\n"
        with pytest.raises(DiagramParseError, match="3 regions"):
            parse_diagram(text)

    def test_crossing_arity_error(self):
        text = "name = t\nkind = spatial-graph\nregions: a b c\ncrossing: a b c\n"
        with pytest.raises(DiagramParseError, match="4 regions"):
            parse_diagram(text)

    def test_duplicate_region_declaration(self):
        text = "name = t\nkind = spatial-graph\nregions: a b a\n"
        with pytest.raises(DiagramParseError, match="duplicate region"):
            parse_diagram(text)

    def test_unknown_kind(self):
        text = "name = t\nkind = widget\nregions: a\n"
        with pytest.raises(DiagramParseError, match="unknown kind"):
            parse_diagram(text)

    def test_missing_header_lines(self):
        with pytest.raises(DiagramParseError, match="missing name"):
            parse_diagram("kind = spatial-graph\nregions: a\n")
        with pytest.raises(DiagramParseError, match="missing kind"):
            parse_diagram("name = t\nregions: a\n")
        with pytest.raises(DiagramParseError, match="missing regions"):
            parse_diagram("name = t\nkind = spatial-graph\n")

    def test_error_carries_line_number(self):
        text = "name = t\nkind = spatial-graph\nregions: a b\nvertex: a b\n"
        with pytest.raises(DiagramParseError) as err:
            parse_diagram(text)
        assert err.value.line == 4

    @pytest.mark.parametrize(
        "body, message",
        [
            ("regions: a b\nvertex: a b\n", "line 4: vertex constraint needs 3 regions, got 2"),
            ("crossing: a b c d e\n", "line 3: crossing constraint needs 4 regions, got 5"),
            ("crossing: a b c d\n", "line 3: constraint before regions line"),
            ("regions: a b\ncrossing: a b c a\n", "line 4: undeclared region 'c'"),
        ],
    )
    def test_constraint_errors_keep_message_and_line(self, body, message):
        with pytest.raises(DiagramParseError) as err:
            parse_diagram("name = t\nkind = spatial-graph\n" + body)
        assert str(err.value) == message
        assert err.value.line == int(message.split(":")[0].split()[1])

    @pytest.mark.parametrize(
        "body, message",
        [
            ("name = u\nregions: a\n", "line 3: duplicate name line"),
            ("kind = spatial-graph\nregions: a\n", "line 3: duplicate kind line"),
            ("regions: a\nregions: b\n", "line 4: duplicate regions line"),
            ("regions:\n", "line 3: empty region list"),
            ("regions: a\nedge: a a\n", "line 4: unrecognized line 'edge: a a'"),
            ("regions: a\nvertex: a a a\nname = u\n", "line 5: duplicate name line"),
        ],
        ids=["name", "kind", "regions", "empty-regions", "unrecognized", "name-after-constraint"],
    )
    def test_line_errors_keep_message_and_line(self, body, message):
        with pytest.raises(DiagramParseError) as err:
            parse_diagram("name = t\nkind = spatial-graph\n" + body)
        assert str(err.value) == message
        assert err.value.line == int(message.split(":")[0].split()[1])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("name = a-b\nkind = spatial-graph\nregions: a\n", "line 1: bad diagram name 'a-b'"),
            ("name = t\nkind = spatial-graph\nregions: a b-c\n", "line 3: bad region name 'b-c'"),
            (
                "name = x\nkind = spatial-graph\nregions: a a\n",
                "line 3: duplicate region declaration 'a'",
            ),
        ],
        ids=["name", "region", "duplicate-region"],
    )
    def test_bad_names_are_refused_on_their_line(self, text, message):
        with pytest.raises(DiagramParseError) as err:
            parse_diagram(text)
        assert str(err.value) == message
        assert err.value.line == int(message.split(":")[0].split()[1])

    @pytest.mark.parametrize(
        "regions, constraints, message",
        [
            ((), (), "a diagram needs at least one region"),
            (("a", "b-c"), (), "bad region name 'b-c'"),
            (("a", "b", "a"), (), "duplicate region declaration 'a'"),
            (
                ("a",),
                (Constraint(ConstraintKind.VERTEX, ("a", "b", "a")),),
                "undeclared region 'b'",
            ),
            ((1,), (), "bad region name 1"),
            (("a", None), (), "bad region name None"),
            # once a bare TypeError: unhashable type: 'list'
            (
                ("a",),
                (Constraint(ConstraintKind.VERTEX, ("a", ["x"], "a")),),
                "bad region name ['x']",
            ),
        ],
        ids=["no-regions", "bad-region", "duplicate-region", "undeclared-region", "int-region",
             "none-region", "unhashable-reference"],
    )
    def test_direct_construction_is_checked(self, regions, constraints, message):
        with pytest.raises(DiagramParseError) as err:
            Diagram("t", DiagramKind.SPATIAL_GRAPH, regions, constraints)
        assert str(err.value) == message
        assert err.value.line is None

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                # a string kind used to skip the handlebody gate: z3_full counted it 9
                lambda: Diagram("h", "handlebody-link", ("a", "b", "c"),
                                (Constraint(ConstraintKind.VERTEX, ("a", "b", "c")),)),
                "the diagram kind must be a DiagramKind, got 'handlebody-link'",
            ),
            (
                lambda: Constraint("crossing", ("a", "b", "c", "d")),
                "the constraint kind must be a ConstraintKind, got 'crossing'",
            ),
            (
                lambda: Diagram("t", DiagramKind.SPATIAL_GRAPH, ("a", "b", "c"),
                                (("vertex", ("a", "b", "c")),)),
                "the constraint must be a Constraint, got ('vertex', ('a', 'b', 'c'))",
            ),
            (lambda: parse_diagram(b"name = x"), "the text must be a str, got b'name = x'"),
            (lambda: parse_diagram(b""), "the text must be a str, got b''"),
            (lambda: parse_diagram(None), "the text must be a str, got None"),
            (lambda: serialize_diagram(None), "the diagram must be a Diagram, got None"),
        ],
        ids=["diagram-kind", "constraint-kind", "constraint", "parse-bytes", "parse-empty-bytes",
             "parse-none", "serialize-none"],
    )
    def test_parts_of_the_wrong_type_are_refused(self, build, message):
        with pytest.raises(ShapeError) as err:
            build()
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "build, message",
        [
            # once a diagram of the regions 'a' and 'b'
            (lambda: Diagram("d", DiagramKind.SPATIAL_GRAPH, "ab", ()),
             "the region list must be a sequence, not str: 'ab'"),
            # once "a diagram needs at least one region", for each of the next three
            (lambda: Diagram("d", DiagramKind.SPATIAL_GRAPH, None, ()),
             "the region list must be a sequence, not NoneType: None"),
            (lambda: Diagram("d", DiagramKind.SPATIAL_GRAPH, 0, ()),
             "the region list must be a sequence, not int: 0"),
            (lambda: Diagram("d", DiagramKind.SPATIAL_GRAPH, "", ()),
             "the region list must be a sequence, not str: ''"),
            # once TypeError: 'NoneType' object is not iterable
            (lambda: Diagram("d", DiagramKind.SPATIAL_GRAPH, ("a",), None),
             "the constraint list must be a sequence, not NoneType: None"),
            # once TypeError: object of type 'NoneType' has no len()
            (lambda: Constraint(ConstraintKind.VERTEX, None),
             "the constraint's region list must be a sequence, not NoneType: None"),
            # once a crossing of the regions 'a', 'b', 'c' and 'd'
            (lambda: Constraint(ConstraintKind.CROSSING, "abcd"),
             "the constraint's region list must be a sequence, not str: 'abcd'"),
        ],
        ids=["regions-str", "regions-none", "regions-int", "regions-empty-str", "constraints-none",
             "refs-none", "refs-str"],
    )
    def test_a_str_or_non_sequence_for_a_list_is_refused(self, build, message):
        with pytest.raises(ShapeError) as err:
            build()
        assert str(err.value) == message

    @pytest.mark.parametrize("name", [5, None, b"t"], ids=["int", "none", "bytes"])
    def test_a_name_that_is_not_a_str_is_a_bad_name(self, name):
        with pytest.raises(DiagramParseError) as err:
            Diagram(name, DiagramKind.SPATIAL_GRAPH, ("a",), ())
        assert str(err.value) == f"bad diagram name {name!r}"

    def test_a_long_chain_parses_in_linear_time(self):
        # each crossing reads the next four regions of a 60,000-region chain
        k = 60_000
        text = "name = chain\nkind = spatial-graph\nregions: " + " ".join(
            f"r{i}" for i in range(k)
        ) + "\n" + "".join(f"crossing: r{i} r{i+1} r{i+2} r{i+3}\n" for i in range(k - 3))
        start = time.perf_counter()
        d = parse_diagram(text)
        assert time.perf_counter() - start < 10.0
        assert len(d.regions) == k and len(d.constraints) == k - 3

    def test_comments_and_blanks_ignored(self):
        text = (
            "# a diagram\n\nname = t\nkind = handlebody-link  # comment\n"
            "regions: a b c d\ncrossing: a b c d  # the clasp\n"
        )
        d = parse_diagram(text)
        assert d.kind is DiagramKind.HANDLEBODY_LINK
        assert len(d.constraints) == 1


class TestStoredTuples:
    """A diagram and its constraints keep tuples, whatever sequences they are given."""

    def test_lists_are_stored_as_tuples(self):
        crossing = Constraint(ConstraintKind.CROSSING, ["a", "b", "b", "a"])
        dia = Diagram("d", DiagramKind.SPATIAL_GRAPH, ["a", "b"], [crossing])
        assert type(crossing.refs) is tuple and crossing.refs == ("a", "b", "b", "a")
        assert (dia.regions, dia.constraints) == (("a", "b"), (crossing,))
        # once unhashable, and unequal to its own parse
        parsed = parse_diagram(serialize_diagram(dia))
        assert (parsed, hash(parsed)) == (dia, hash(dia))

    def test_a_tuple_is_kept_as_given(self):
        refs, regions = ("a", "b", "a"), ("a", "b")
        vertex = Constraint(ConstraintKind.VERTEX, refs)
        constraints = (vertex,)
        dia = Diagram("d", DiagramKind.SPATIAL_GRAPH, regions, constraints)
        assert vertex.refs is refs and dia.regions is regions and dia.constraints is constraints


class TestBundled:
    def test_every_bundled_diagram_parses(self):
        names = [d.name for d in builtin_diagrams()]
        assert names == BUNDLED_NAMES

    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    def test_roundtrip(self, name):
        d = load_bundled_diagram(name)
        assert parse_diagram(serialize_diagram(d)) == d

    def test_handlebody_kinds(self):
        kinds = {d.name: d.kind for d in builtin_diagrams()}
        assert kinds["hopf_handlebody"] is DiagramKind.HANDLEBODY_LINK
        assert kinds["genus2_link"] is DiagramKind.HANDLEBODY_LINK
        assert kinds["theta"] is DiagramKind.SPATIAL_GRAPH

    def test_genus2_carries_the_clasp_equations(self):
        d = load_bundled_diagram("genus2_link")
        crossings = [c.refs for c in d.constraints if c.kind is ConstraintKind.CROSSING]
        assert ("a", "a", "b", "c") in crossings

    def test_k2_carries_the_closing_crossing(self):
        d = load_bundled_diagram("k2")
        crossings = [c.refs for c in d.constraints if c.kind is ConstraintKind.CROSSING]
        assert ("a", "d", "b", "a") in crossings


@st.composite
def diagrams(draw):
    k = draw(st.integers(min_value=1, max_value=5))
    regions = tuple(f"r{i}" for i in range(k))
    name = draw(st.sampled_from(["d0", "loop2", "sample"]))
    kind = draw(st.sampled_from(list(DiagramKind)))
    cons = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        ckind = draw(st.sampled_from(list(ConstraintKind)))
        arity = 4 if ckind is ConstraintKind.CROSSING else 3
        refs = tuple(draw(st.sampled_from(regions)) for _ in range(arity))
        cons.append(Constraint(ckind, refs))
    return Diagram(name, kind, regions, tuple(cons))


class TestRoundtripProperty:
    @given(diagrams())
    @settings(max_examples=80, deadline=None)
    def test_parse_inverts_serialize(self, d):
        assert parse_diagram(serialize_diagram(d)) == d

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_header_lines_parse_in_any_order_and_spacing(self, data):
        d = data.draw(diagrams())
        blank = st.sampled_from(["", " ", "  ", "\t"])

        def line(key, sign, words):
            pad = [data.draw(blank) for _ in range(4)]
            gap = data.draw(st.sampled_from([" ", "  ", " \t "]))
            text = f"{pad[0]}{key}{pad[1]}{sign}{pad[2]}{gap.join(words)}{pad[3]}"
            return text + data.draw(st.sampled_from(["", "# note", "  # a comment"]))

        body = [line("regions", ":", d.regions)]
        body += [line(c.kind.value, ":", c.refs) for c in d.constraints]
        # the name and kind lines go anywhere; the regions line stays before the constraints
        for key, value in (("name", d.name), ("kind", d.kind.value)):
            body.insert(data.draw(st.integers(0, len(body))), line(key, "=", [value]))
        lines = []
        for text in body:
            lines += data.draw(st.lists(st.sampled_from(["", "  ", "# comment"]), max_size=2))
            lines.append(text)
        assert parse_diagram("\n".join(lines) + "\n") == d
