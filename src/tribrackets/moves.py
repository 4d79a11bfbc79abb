"""Executable invariance checks for the generating diagram moves.

Each move ships as a pair of local constraint systems over a shared set of
boundary regions.  A check solves each fragment once over its boundary and
internal regions with the coloring search, tallies fragment colorings per
boundary coloring (the number of extensions to the internal regions), and
compares the two tallies.  On any tensor and partial product, R3a fails
exactly when coherence-1 or coherence-2 does, R2a/R2b when slot-b or slot-c
bijectivity does, R2c/R2d when slot-a or slot-c bijectivity does, and R1b/R1d
when some l -> [l, x, x] is not a bijection, a narrower failure than that of
slot-a bijectivity; R4.1 fails exactly when r4-compat does, and
R5.7/R5.10/R5.13/R5.16 exactly when r5-compat-1/2/3/4 do; R4.10 passes exactly
when, for every defined a*b = p, [a, m, b] = p holds at m = p alone, which is
r4-compat when slot b is bijective.  The kinks R1a/R1c color their loop region
by the bracket's value, so they pass over any tensor and product, Latin or
not.  The IH pair passes for every boundary coloring exactly when the product
is defined only on equal operands with aa = a.

A fragment may also merge two boundary regions (the strand-free side of a
poke move joins its two gap regions into one band); it is solved as the
region it merges into, so boundary colorings that disagree on merged regions
admit no extension on that side.
"""
from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from .algebra import TribracketAlgebra, _keep_tuples, _require
from .coloring import _compile, _solutions, _system
from .diagram import Constraint, ConstraintKind, _check_regions

_C = ConstraintKind.CROSSING
_V = ConstraintKind.VERTEX


@dataclass(frozen=True)
class MoveFragment:
    internal: tuple[str, ...]
    constraints: tuple[Constraint, ...]
    merges: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class LocalMovePair:
    move_id: str
    boundary: tuple[str, ...]
    before: MoveFragment
    after: MoveFragment
    requires_idempotent: bool = False

    def __post_init__(self):
        """Refuse a side that is not a MoveFragment, or what _check_regions refuses;
        then keep tuples, each merge pair included."""
        for frag in (self.before, self.after):
            _require(frag, MoveFragment, "move fragment")
            _check_regions(self.boundary, frag.internal, frag.constraints, frag.merges)
        _keep_tuples(self, "boundary")
        for side in ("before", "after"):
            frag = getattr(self, side)
            kept = _frag(frag.internal, frag.constraints, map(tuple, frag.merges))
            if kept != frag:
                object.__setattr__(self, side, kept)

    @functools.cached_property
    def _compiled(self) -> tuple[tuple[list, list[int]], ...]:
        """Per side, its search schedule and boundary indices; built on the first check."""
        return tuple(_compile_fragment(self.boundary, frag) for frag in (self.before, self.after))


@dataclass(frozen=True)
class MoveCheckReport:
    move_id: str
    passed: bool
    witness: tuple[dict[str, int], int, int] | None = None

    def summary(self) -> str:
        if self.passed:
            return f"{self.move_id}  PASS"
        env, before, after = self.witness
        colors = " ".join(f"{k}={v}" for k, v in sorted(env.items()))
        return f"{self.move_id}  FAIL at {colors}: {before} extensions vs {after}"


def _x(a: str, b: str, c: str, d: str) -> Constraint:
    return Constraint(_C, (a, b, c, d))


def _v(left: str, middle: str, right: str) -> Constraint:
    return Constraint(_V, (left, middle, right))


def _frag(internal=(), constraints=(), merges=()) -> MoveFragment:
    return MoveFragment(tuple(internal), tuple(constraints), tuple(merges))


def builtin_move_pairs() -> list[LocalMovePair]:
    """One pair per generating move, plus the oriented kink/poke variants.

    Each call returns a new list of the same frozen pairs, in the same order;
    the pairs are built on the first call.
    """
    return list(_move_pairs())


@functools.cache
def _move_pairs() -> tuple[LocalMovePair, ...]:
    pairs = []

    # kinks: the loop region sits opposite the doubled outer region
    for move_id, con in (
        ("R1a", _x("w", "e", "e", "l")),
        ("R1b", _x("l", "e", "e", "w")),
        ("R1c", _x("e", "w", "w", "l")),
        ("R1d", _x("l", "w", "w", "e")),
    ):
        pairs.append(LocalMovePair(move_id, ("w", "e"), _frag(("l",), (con,)), _frag()))

    # pokes: two crossings sharing the bigon p; removing them merges the gaps
    for move_id, c1, c2 in (
        ("R2a", _x("w", "p", "s", "e"), _x("w", "p", "n", "e")),
        ("R2b", _x("w", "s", "p", "e"), _x("w", "n", "p", "e")),
        ("R2c", _x("s", "w", "p", "e"), _x("n", "w", "p", "e")),
        ("R2d", _x("p", "w", "s", "e"), _x("p", "w", "n", "e")),
    ):
        pairs.append(
            LocalMovePair(
                move_id,
                ("w", "e", "s", "n"),
                before=_frag(("p",), (c1, c2)),
                after=_frag(merges=(("s", "n"),)),
            )
        )

    # third classical move: one internal region on each side, three crossings
    pairs.append(
        LocalMovePair(
            "R3a",
            ("a", "b", "c", "d", "x", "y"),
            before=_frag(
                ("t",),
                (_x("b", "c", "d", "t"), _x("a", "b", "t", "x"), _x("x", "t", "d", "y")),
            ),
            after=_frag(
                ("u",),
                (_x("a", "b", "c", "u"), _x("u", "c", "d", "y"), _x("a", "u", "y", "x")),
            ),
        )
    )

    # vertex twists: crossing the prongs above the vertex
    for move_id, con in (("R4.1", _x("a", "t", "b", "m")), ("R4.10", _x("a", "m", "b", "t"))):
        pairs.append(
            LocalMovePair(
                move_id,
                ("a", "b", "m"),
                before=_frag(constraints=(_v("a", "m", "b"),)),
                after=_frag(("t",), (_v("a", "t", "b"), con)),
            )
        )

    # vertex slides past a strand, one variant per r5 family
    for move_id, before, after in (
        ("R5.7", _frag(("q",), (_x("a", "b", "c", "q"), _v("a", "p", "q"))),
         _frag(("r",), (_v("b", "r", "c"), _x("a", "b", "r", "p")))),
        ("R5.10", _frag(("q",), (_x("a", "b", "c", "q"), _v("q", "p", "c"))),
         _frag(("r",), (_v("a", "r", "b"), _x("r", "b", "c", "p")))),
        ("R5.13", _frag(("r",), (_v("b", "r", "c"), _x("a", "b", "c", "p"))),
         _frag(("r", "s"),
               (_v("b", "r", "c"), _x("a", "b", "r", "s"), _x("s", "r", "c", "p")))),
        ("R5.16", _frag(("r",), (_v("a", "r", "b"), _x("a", "b", "c", "p"))),
         _frag(("r", "s"),
               (_v("a", "r", "b"), _x("r", "b", "c", "s"), _x("a", "r", "s", "p")))),
    ):
        pairs.append(LocalMovePair(move_id, ("a", "b", "c", "p"), before, after))

    # the H-to-I move on the edge joining two vertices
    pairs.append(
        LocalMovePair(
            "IH",
            ("w", "n", "e", "s"),
            before=_frag(constraints=(_v("w", "n", "s"), _v("s", "n", "e"))),
            after=_frag(constraints=(_v("w", "s", "e"), _v("w", "n", "e"))),
            requires_idempotent=True,
        )
    )
    return tuple(pairs)


def _compile_fragment(boundary: tuple[str, ...], frag: MoveFragment) -> tuple[list, list[int]]:
    """The fragment's search schedule and the index of each boundary region."""
    regions, system, index = _system((*boundary, *frag.internal), frag.constraints, frag.merges)
    return _compile(regions, system), [index[r] for r in boundary]


def _tally(alg: TribracketAlgebra, schedule: list, ends: list[int]) -> Counter[tuple[int, ...]]:
    """The number of fragment colorings restricting to each boundary coloring."""
    # itemgetter needs an index, and returns a tuple only for two or more
    end_values = itemgetter(*ends) if len(ends) > 1 else lambda val: tuple(val[i] for i in ends)
    return Counter(map(end_values, _solutions(alg, schedule)))


def check_move_invariance(alg: TribracketAlgebra, pair: LocalMovePair) -> MoveCheckReport:
    """Compare extension counts of both fragments over every boundary coloring.

    Returns PASS when the counts agree everywhere, otherwise the first failing
    boundary coloring (lexicographic order) with both counts.
    """
    _require(alg, TribracketAlgebra, "algebra")
    _require(pair, LocalMovePair, "move pair")
    before, after = (_tally(alg, *side) for side in pair._compiled)
    if before.items() == after.items():  # counted tallies hold positive counts only
        return MoveCheckReport(pair.move_id, True)
    differ = [k for k in before.keys() | after.keys() if before[k] != after[k]]
    first = min(differ)
    return MoveCheckReport(
        pair.move_id, False, (dict(zip(pair.boundary, first)), before[first], after[first])
    )
