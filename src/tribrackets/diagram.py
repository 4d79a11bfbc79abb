"""Region-constraint encodings of trivalent spatial-graph diagrams.

A diagram is stored as the constraint system its planar picture induces on
region colors: a crossing line ``crossing: a b c d`` demands bracket(a,b,c)=d
and a vertex line ``vertex: l m r`` demands l*r = m (the middle region between
the doubled strands is the product of the outer two).  Orientation and
over/under data are resolved when a picture is transcribed into this format,
not by the solver.

The bundled corpus covers an unknotted theta curve, a handcuff graph, a chain
of two genus-1 handlebodies, a genus-2/genus-1 handlebody pair, k1/k2 and
z4_left/z4_right.  It measures the product table: on a verified algebra,
theta, k1 and z4_left count the defined cells a*b, handcuff and z4_right the
defined a*a, and k2 the cells a*b = a; only the handlebody pair reads the tensor.
"""
from __future__ import annotations

import functools
import itertools
import re
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from .algebra import (_bundled, _content, _fields_only, _keep_tuples, _LineError, _require,
                      _require_sequence)

_NAME_RE = re.compile(r"[A-Za-z0-9_]+")
_LINE_RE = re.compile(r"(name|kind)\s*=\s*(\S+)|(regions|crossing|vertex)\s*:\s*(.*)")


class DiagramParseError(_LineError):
    """A refused diagram file or diagram."""


class ConstraintKind(Enum):
    CROSSING = "crossing"
    VERTEX = "vertex"


class DiagramKind(Enum):
    SPATIAL_GRAPH = "spatial-graph"
    HANDLEBODY_LINK = "handlebody-link"


_ARITY = {ConstraintKind.CROSSING: 4, ConstraintKind.VERTEX: 3}


@dataclass(frozen=True)
class Constraint:
    kind: ConstraintKind
    refs: tuple[str, ...]

    def __post_init__(self):
        _require(self.kind, ConstraintKind, "constraint kind")
        _require_sequence(self.refs, "constraint's region list")
        want = _ARITY[self.kind]
        if len(self.refs) != want:
            raise DiagramParseError(
                f"{self.kind.value} constraint needs {want} regions, got {len(self.refs)}"
            )
        _keep_tuples(self, "refs")


@dataclass(frozen=True)
class Diagram:
    name: str
    kind: DiagramKind
    regions: tuple[str, ...]
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        _check_name(self.name)
        _require(self.kind, DiagramKind, "diagram kind")
        if not _check_regions(self.regions, constraints=self.constraints):
            raise DiagramParseError("a diagram needs at least one region")
        _keep_tuples(self, "regions", "constraints")

    __getstate__ = _fields_only

    @functools.cached_property
    def _count_plan(self) -> tuple:
        """The coloring counter's plan, its region count and a ``coloring._Kept`` of its
        parts, made on the first count; not a field, no table."""
        from .coloring import _count_plan  # coloring imports this module
        return _count_plan(self)


def _check_name(name: str) -> None:
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise DiagramParseError(f"bad diagram name {name!r}")


def _check_regions(regions: tuple, internal=(), constraints=(), merges=()) -> set[str]:
    """The set of ``regions`` and ``internal`` regions (a move side's boundary and its
    own) of a constraint system.  Refuses a region, constraint or merge list that is not
    a sequence (a str included) and a constraint that is not a Constraint with a
    ShapeError; a merge that is not a pair, a region merged twice or merged into a merged
    region, and a region that is not a str of letters and digits, or is repeated, or is
    named by a constraint or a merge but not declared, with a DiagramParseError."""
    for value, what in ((regions, "region"), (internal, "region"), (constraints, "constraint"),
                        (merges, "merge")):
        _require_sequence(value, f"{what} list")
    for con in constraints:
        _require(con, Constraint, "constraint")
    for m in merges:
        if isinstance(m, str) or not isinstance(m, Sequence) or len(m) != 2:
            raise DiagramParseError(f"merge {m!r} is not a pair of regions")
    seen = set()
    for r in itertools.chain(regions, internal):
        if not (isinstance(r, str) and r.isalnum()):
            raise DiagramParseError(f"bad region name {r!r}")
        if r in seen:
            raise DiagramParseError(f"duplicate region declaration {r!r}")
        seen.add(r)
    _check_declared(itertools.chain(*(con.refs for con in constraints), *merges), seen)
    merged = [r2 for _, r2 in merges]
    for r1, r2 in merges:
        if r1 in merged or merged.count(r2) > 1:
            raise DiagramParseError(f"merge ({r1!r}, {r2!r}) chains or repeats a merge")
    return seen


def _check_declared(refs, declared: set[str]) -> None:
    for r in refs:
        if not isinstance(r, str):  # before the set lookup, which an unhashable r would fail
            raise DiagramParseError(f"bad region name {r!r}")
        if r not in declared:
            raise DiagramParseError(f"undeclared region {r!r}")


def parse_diagram(text: str) -> Diagram:
    """Parse the plain-text diagram format; '#' starts a comment."""
    header = {}  # the value of the name, kind and regions lines, by Diagram field
    constraints: list[Constraint] = []
    for lineno, line in _content(text):
        try:
            m = _LINE_RE.fullmatch(line)
            if m is None:
                raise DiagramParseError(f"unrecognized line {line!r}")
            key, value = m.group(1, 2) if m[1] else m.group(3, 4)
            if key in ("crossing", "vertex"):
                con = Constraint(ConstraintKind(key), tuple(value.split()))
                if "regions" not in header:
                    raise DiagramParseError("constraint before regions line")
                _check_declared(con.refs, declared)
                constraints.append(con)
                continue
            if key in header:
                raise DiagramParseError(f"duplicate {key} line")
            if key == "name":
                _check_name(value)
            elif key == "kind":
                try:
                    value = DiagramKind(value)
                except ValueError:
                    kinds = "spatial-graph or handlebody-link"
                    raise DiagramParseError(f"unknown kind {value!r} (expected {kinds})") from None
            else:
                value = tuple(value.split())
                if not value:
                    raise DiagramParseError("empty region list")
                declared = _check_regions(value)
            header[key] = value
        except DiagramParseError as exc:  # a refusal while reading a line names the line
            raise DiagramParseError(exc.args[0], lineno) from None
    for key in ("name", "kind", "regions"):
        if key not in header:
            raise DiagramParseError(f"missing {key} line")
    return Diagram(**header, constraints=tuple(constraints))


def serialize_diagram(d: Diagram) -> str:
    """Inverse of parse_diagram."""
    _require(d, Diagram, "diagram")
    lines = [
        f"name = {d.name}",
        f"kind = {d.kind.value}",
        "regions: " + " ".join(d.regions),
    ]
    for con in d.constraints:
        lines.append(f"{con.kind.value}: " + " ".join(con.refs))
    return "\n".join(lines) + "\n"


_BUNDLED = (
    "theta",
    "handcuff",
    "hopf_handlebody",
    "genus2_link",
    "k1",
    "k2",
    "z4_left",
    "z4_right",
)


def load_bundled_diagram(name: str) -> Diagram:
    return parse_diagram(_bundled(f"data/diagrams/{name}.dia"))


def builtin_diagrams() -> list[Diagram]:
    """The bundled diagram corpus, parsed from the package data files."""
    return [load_bundled_diagram(name) for name in _BUNDLED]
