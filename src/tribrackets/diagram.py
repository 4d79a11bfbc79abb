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

import re
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from importlib import resources

from .algebra import _content, _LineError, _require

_NAME_RE = re.compile(r"[A-Za-z0-9_]+")


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
        want = _ARITY[self.kind]
        if len(self.refs) != want:
            raise DiagramParseError(
                f"{self.kind.value} constraint needs {want} regions, got {len(self.refs)}"
            )


@dataclass(frozen=True)
class Diagram:
    name: str
    kind: DiagramKind
    regions: tuple[str, ...]
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        _check_name(self.name)
        _require(self.kind, DiagramKind, "diagram kind")
        for con in self.constraints:
            _require(con, Constraint, "constraint")
        if not self.regions:
            raise DiagramParseError("a diagram needs at least one region")
        _check_regions(self.regions, (r for con in self.constraints for r in con.refs))


def _check_name(name: str) -> None:
    if not _NAME_RE.fullmatch(name):
        raise DiagramParseError(f"bad diagram name {name!r}")


def _check_regions(regions: tuple[str, ...], named: Iterable[str] = ()) -> set[str]:
    """The set of ``regions``; a bad or repeated name, or a ``named`` region
    not among them, is refused."""
    seen = set()
    for r in regions:
        if not r.isalnum():
            raise DiagramParseError(f"bad region name {r!r}")
        if r in seen:
            raise DiagramParseError(f"duplicate region declaration {r!r}")
        seen.add(r)
    for r in named:
        if r not in seen:
            raise DiagramParseError(f"undeclared region {r!r}")
    return seen


def parse_diagram(text: str) -> Diagram:
    """Parse the plain-text diagram format; '#' starts a comment."""
    name = None
    kind = None
    regions: tuple[str, ...] | None = None
    constraints: list[Constraint] = []
    for lineno, line in _content(text):
        try:
            if m := re.fullmatch(r"name\s*=\s*(\S+)", line):
                if name is not None:
                    raise DiagramParseError("duplicate name line")
                name = m.group(1)
                _check_name(name)
            elif m := re.fullmatch(r"kind\s*=\s*(\S+)", line):
                if kind is not None:
                    raise DiagramParseError("duplicate kind line")
                try:
                    kind = DiagramKind(m.group(1))
                except ValueError:
                    raise DiagramParseError(
                        f"unknown kind {m.group(1)!r} (expected spatial-graph or handlebody-link)"
                    ) from None
            elif m := re.fullmatch(r"regions\s*:\s*(.*)", line):
                if regions is not None:
                    raise DiagramParseError("duplicate regions line")
                regions = tuple(m.group(1).split())
                if not regions:
                    raise DiagramParseError("empty region list")
                declared = _check_regions(regions)
            elif m := re.fullmatch(r"(crossing|vertex)\s*:\s*(.*)", line):
                con = Constraint(ConstraintKind(m.group(1)), tuple(m.group(2).split()))
                if regions is None:
                    raise DiagramParseError("constraint before regions line")
                for r in con.refs:
                    if r not in declared:
                        raise DiagramParseError(f"undeclared region {r!r}")
                constraints.append(con)
            else:
                raise DiagramParseError(f"unrecognized line {line!r}")
        except DiagramParseError as exc:  # a refusal while reading a line names the line
            raise DiagramParseError(exc.args[0], lineno) from None
    if name is None:
        raise DiagramParseError("missing name line")
    if kind is None:
        raise DiagramParseError("missing kind line")
    if regions is None:
        raise DiagramParseError("missing regions line")
    return Diagram(name, kind, regions, tuple(constraints))


def serialize_diagram(d: Diagram) -> str:
    """Inverse of parse_diagram."""
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
    text = (
        resources.files("tribrackets")
        .joinpath(f"data/diagrams/{name}.dia")
        .read_text(encoding="utf-8")
    )
    return parse_diagram(text)


def builtin_diagrams() -> list[Diagram]:
    """The bundled diagram corpus, parsed from the package data files."""
    return [load_bundled_diagram(name) for name in _BUNDLED]
