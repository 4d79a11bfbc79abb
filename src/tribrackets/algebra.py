"""Finite tribrackets and their compatible partial products.

Elements of a size-n carrier are plain integers 1..n.  A tribracket is an
n x n x n operation tensor; the value of bracket(a, b, c) is found in matrix
a, row b, column c.  A partial product is an n x n table whose cells may be
undefined (stored as None).  Both constructors check the carrier size, the
shape and every entry, raising ShapeError for a size that is not a positive
int or an entry outside 1..n (a bool is not an int here), so nothing later
checks entries again; they check a table as a whole, and search a table that
fails for its first bad entry.  parse_algebra reads the tokens '1'..'n' through
one map, and any other token cell by cell.  Each keyed table is built on first
use from the forward table alone (see :func:`_keyed_table`), once per object.

Each axiom is written once, as an entry of one ordered table: its name, the
number of leading witness coordinates it ranges over, its witness length,
whether it reads the product, and a generator of its failures.
verify_tribracket and verify_algebra run the tensor and the product entries
over 1..n into an :class:`AxiomReport`, in table order and lexicographic
witness order, so reports are byte-stable; recheck_violation runs one entry
over a witness's own coordinates, so reports are self-certifying.

Both verifiers first decide pass or fail on whole lines.  verify_tribracket
reads the tensor's verdict, decided once and kept on the object
(Tribracket.axioms_hold): every line of slots a and c holds n distinct values
(with coherence-1 they imply slot b), and each coherence law is an equality of
composed lines (see _tensor_axioms_hold).  Over a tensor whose verdict passes,
verify_algebra scans r4-compat over the defined cells and checks r5-compat-1/2
as equalities of lines composed with product rows or columns; on a tribracket
these imply the other product axioms (see _product_axioms_hold).  Only a table
that fails runs the axiom table, so the witnesses still come from it.  Both
censuses force or filter tables by their own rules and hand each complete or
kept table to these verifiers.
"""
from __future__ import annotations

import itertools
import math
import operator
import re
from collections.abc import Sequence
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from importlib import resources
from typing import Callable, Iterator, Optional


class ShapeError(ValueError):
    """Structural defect (dimensions, sizes, entry range), not an axiom failure."""


def _require(value, kind: type, what: str) -> None:
    """Refuse an argument that is not a ``kind`` with a ShapeError naming it."""
    if not isinstance(value, kind):
        raise ShapeError(f"the {what} must be a {kind.__name__}, got {value!r}")


def _require_sequence(value, what: str) -> None:
    """Refuse a str, or anything but a sequence, where a sequence belongs."""
    if isinstance(value, str) or not isinstance(value, Sequence):
        raise ShapeError(f"the {what} must be a sequence, not {type(value).__name__}: {value!r}")


def _keep_tuples(obj, *fields: str) -> None:
    """Store each named sequence field of a checked frozen ``obj`` as a tuple, so that
    it hashes, equals its parse and cannot change under a kept result; a tuple stays."""
    for field in fields:
        value = getattr(obj, field)
        if type(value) is not tuple:
            object.__setattr__(obj, field, tuple(value))


def _fields_only(obj) -> dict:
    """A dataclass's pickled state: its fields alone, so what it caches outside them
    (a compiled kernel cannot be pickled) is rebuilt on use."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


class _LineError(ValueError):
    """A refused text file; ``line`` is the 1-based number of the refused line, if any."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class AlgebraParseError(_LineError):
    """A refused algebra file."""


class BracketSlot(Enum):
    A = "a"
    B = "b"
    C = "c"
    RESULT = "result"


class ProductSlot(Enum):
    LEFT = "left"
    RIGHT = "right"
    RESULT = "result"


@dataclass(frozen=True)
class Violation:
    """One axiom failure: the witness inputs plus both evaluated sides.

    ``lhs``/``rhs`` are None when the corresponding side is an undefined
    product.  For bijectivity and cancellation failures the two sides are the
    equal values produced by the two witness inputs that should have differed.
    """

    axiom: str
    witness: tuple[int, ...]
    lhs: Optional[int]
    rhs: Optional[int]

    def __post_init__(self):
        if type(self.witness) is not tuple:  # the verifiers' own witnesses pass at once
            _require_sequence(self.witness, "witness")
            _keep_tuples(self, "witness")


@dataclass(frozen=True)
class AxiomReport:
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.passed:
            return "PASS"
        lines = [f"FAIL ({len(self.violations)} violations)"]
        for v in self.violations:
            lines.append(
                f"  {v.axiom} at {v.witness}: {_fmt(v.lhs)} vs {_fmt(v.rhs)}"
            )
        return "\n".join(lines)


def _fmt(value: Optional[int]) -> str:
    return "undefined" if value is None else str(value)


def _check_size(n) -> None:
    if type(n) is bool or not isinstance(n, int):
        raise ShapeError(f"carrier size must be an int, got {n!r}")
    if n < 1:
        raise ShapeError(f"carrier size must be positive, got {n}")


def _check_entries(flat: list, n: int, arity: int, what: str) -> None:
    """Refuse the first entry of a flat arity-``arity`` table that is not an int
    in 1..n (a bool is not one); a product's (arity 2) None, an undefined cell,
    passes.  A table of plain ints in range passes on its set of entry types and
    its least and greatest value, with no loop over the entries."""
    undefined = arity == 2
    if set(map(type, flat)) <= ({int, type(None)} if undefined else {int}):
        values = set(flat) - {None}
        if not values or 1 <= min(values) and max(values) <= n:
            return
    for i, v in enumerate(flat):
        if not (undefined and v is None) and (
            type(v) is bool or not isinstance(v, int) or not 1 <= v <= n
        ):
            cell = ",".join(str(i // n**k % n + 1) for k in reversed(range(arity)))
            raise ShapeError(f"{what} ({cell}) = {v!r} is not in 1..{n}")


@dataclass(frozen=True)
class Tribracket:
    """An n x n x n operation tensor with entries in 1..n."""

    n: int
    table: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        _check_size(self.n)
        try:
            tab = tuple(tuple(map(tuple, mat)) for mat in self.table)
        except TypeError:
            raise ShapeError("table must be nested n x n x n sequences") from None
        # every matrix and every row has n entries
        if len(tab) != self.n or set(map(len, itertools.chain(tab, *tab))) != {self.n}:
            raise ShapeError(f"table is not {self.n}x{self.n}x{self.n}")
        _check_entries([*itertools.chain(*itertools.chain(*tab))], self.n, 3, "entry")
        object.__setattr__(self, "table", tab)

    def bracket(self, a: int, b: int, c: int) -> int:
        """Look up matrix a, row b, column c."""
        return self.table[a - 1][b - 1][c - 1]

    @cached_property
    def keyed_table(self) -> tuple[int, ...]:
        """The keyed table of the slots (a, b, c, d) of bracket(a, b, c) = d.

        See :func:`_keyed_table`; it has (n+1)**4 entries, 28,561 at n = 12.
        """
        return _keyed_table([*itertools.chain(*itertools.chain(*self.table))], self.n, 3)

    @cached_property
    def axioms_hold(self) -> bool:
        """Whether the table passes the tensor axioms, decided once (see verify_tribracket)."""
        return _tensor_axioms_hold(self)


@dataclass(frozen=True)
class PartialProduct:
    """An n x n partial multiplication table; None marks undefined cells."""

    n: int
    table: tuple[tuple[Optional[int], ...], ...]

    def __post_init__(self):
        _check_size(self.n)
        try:
            tab = tuple(map(tuple, self.table))
        except TypeError:
            raise ShapeError("table must be nested n x n sequences") from None
        if len(tab) != self.n or any(len(row) != self.n for row in tab):
            raise ShapeError(f"table is not {self.n}x{self.n}")
        _check_entries([*itertools.chain(*tab)], self.n, 2, "product entry")
        object.__setattr__(self, "table", tab)

    @classmethod
    def empty(cls, n: int) -> "PartialProduct":
        return cls(n, tuple((None,) * n for _ in range(n)))

    @classmethod
    def diagonal(cls, n: int) -> "PartialProduct":
        return cls(
            n,
            tuple(
                tuple(a if a == b else None for b in range(1, n + 1))
                for a in range(1, n + 1)
            ),
        )

    def mul(self, a: int, b: int) -> Optional[int]:
        return self.table[a - 1][b - 1]

    @cached_property
    def keyed_table(self) -> tuple[int, ...]:
        """The keyed table of the slots (a, b, c) of a*b = c.

        See :func:`_keyed_table`; it has (n+1)**3 entries, and a key whose
        a*b is undefined has no value in slot c.
        """
        return _keyed_table(tuple(v or 0 for row in self.table for v in row), self.n, 2)

    @cached_property
    def cancellative(self) -> bool:
        """Whether no row or column repeats a defined value: any two of a, b, a*b fix the third."""
        lines = (*self.table, *zip(*self.table))
        return all(len(d := [v for v in line if v]) == len({*d}) for line in lines)


@dataclass(frozen=True)
class TribracketAlgebra:
    """A tribracket together with a compatible partial product on the same set."""

    tribracket: Tribracket
    product: PartialProduct

    def __post_init__(self):
        _require(self.tribracket, Tribracket, "tensor")
        _require(self.product, PartialProduct, "product")
        if self.tribracket.n != self.product.n:
            raise ShapeError(
                f"size mismatch: tribracket on {self.tribracket.n} elements, "
                f"product on {self.product.n}"
            )

    @property
    def n(self) -> int:
        return self.tribracket.n

    @cached_property
    def idempotent(self) -> bool:
        """True iff the product is defined exactly on the diagonal with aa = a.

        The handlebody gate: IH also holds over the empty product, vacuously,
        but the gate refuses it, since it asks for aa = a for every a."""
        return self.product == PartialProduct.diagonal(self.n)


# ---------------------------------------------------------------------------
# the axiom table
#
# Each generator reads 1-based tables padded at index 0: T[a][b][c] is
# bracket(a, b, c) and P[a][b] is a*b or None.  Given one range per leading
# witness coordinate, it yields (witness, lhs, rhs) for each failure in
# lexicographic witness order.

@dataclass(frozen=True)
class _Axiom:
    name: str
    ranges: int  # leading witness coordinates the generator ranges over
    width: int  # witness length
    reads_product: bool
    failures: Callable[..., Iterator[tuple]]


def _repeats(line: Callable[..., list]) -> Callable[..., Iterator[tuple]]:
    """The generator of an axiom that no value repeats along ``line(T, P, *fixed)``.

    A witness is the fixed coordinates, then the input that gave a value first
    and an input that gave it again; both sides are that value.  None never repeats.
    """

    def failures(T, P, *ranges):
        for fixed in itertools.product(*ranges):
            values = line(T, P, *fixed)
            if len(set(values)) == len(values):
                continue  # nothing repeats
            seen: dict[int, int] = {}
            found = []
            for z, v in enumerate(values, 1):
                if v in seen:
                    found.append((seen[v], z, v))
                elif v is not None:
                    seen[v] = z
            for first, repeat, v in sorted(found):
                yield (*fixed, first, repeat), v, v

    return failures


def _coherence_1(T, P, ra, rb, rc, rd):
    """[a, b, [b, c, d]] = [a, u, [u, c, d]] with u = [a, b, c]."""
    for a, b in itertools.product(ra, rb):
        row_ab = T[a][b]
        for c in rc:
            u = row_ab[c]
            row_bc, row_au, row_uc = T[b][c], T[a][u], T[u][c]
            for d in rd:
                lhs, rhs = row_ab[row_bc[d]], row_au[row_uc[d]]
                if lhs != rhs:
                    yield (a, b, c, d), lhs, rhs


def _coherence_2(T, P, ra, rb, rc, rd):
    """[u, c, d] = [[a, b, w], w, d] with u = [a, b, c] and w = [b, c, d]."""
    for a, b in itertools.product(ra, rb):
        row_ab = T[a][b]
        for c in rc:
            row_bc, row_uc = T[b][c], T[row_ab[c]][c]
            for d in rd:
                w = row_bc[d]
                lhs, rhs = row_uc[d], T[row_ab[w]][w][d]
                if lhs != rhs:
                    yield (a, b, c, d), lhs, rhs


def _r4_compat(T, P, ra, rb):
    """[a, a*b, b] = a*b wherever a*b is defined."""
    for a, b in itertools.product(ra, rb):
        ab = P[a][b]
        if ab is not None and T[a][ab][b] != ab:
            yield (a, b), T[a][ab][b], ab


def _r5_compat_1(T, P, ra, rb, rc):
    """a*[a, b, c] = [a, b, b*c], each side defined exactly when the other is."""
    for a, b in itertools.product(ra, rb):
        row_ab, pa, pb = T[a][b], P[a], P[b]
        for c in rc:
            bc = pb[c]
            lhs, rhs = pa[row_ab[c]], None if bc is None else row_ab[bc]
            if lhs != rhs:
                yield (a, b, c), lhs, rhs


def _r5_compat_2(T, P, ra, rb, rc):
    """[a, b, c]*c = [a*b, b, c], each side defined exactly when the other is."""
    for a, b in itertools.product(ra, rb):
        row_ab, ab = T[a][b], P[a][b]
        for c in rc:
            lhs, rhs = P[row_ab[c]][c], None if ab is None else T[ab][b][c]
            if lhs != rhs:
                yield (a, b, c), lhs, rhs


def _r5_compat_3(T, P, ra, rb, rc):
    """[a, b, c] = [[a, b, b*c], b*c, c] wherever b*c is defined."""
    for a, b in itertools.product(ra, rb):
        row_ab, pb = T[a][b], P[b]
        for c in rc:
            bc = pb[c]
            if bc is not None:
                rhs = T[row_ab[bc]][bc][c]
                if row_ab[c] != rhs:
                    yield (a, b, c), row_ab[c], rhs


def _r5_compat_4(T, P, ra, rb, rc):
    """[a, b, c] = [a, a*b, [a*b, b, c]] wherever a*b is defined."""
    for a, b in itertools.product(ra, rb):
        ab = P[a][b]
        if ab is not None:
            row_ab, row_a_ab, row_ab_b = T[a][b], T[a][ab], T[ab][b]
            for c in rc:
                rhs = row_a_ab[row_ab_b[c]]
                if row_ab[c] != rhs:
                    yield (a, b, c), row_ab[c], rhs


# report order: the tensor axioms, then the product axioms
_AXIOMS = (
    # bracket(a, b, c) takes each value once as a, b or c varies
    _Axiom("slot-a-bijection", 2, 4, False, _repeats(lambda T, P, b, c: [m[b][c] for m in T[1:]])),
    _Axiom("slot-b-bijection", 2, 4, False, _repeats(lambda T, P, a, c: [r[c] for r in T[a][1:]])),
    _Axiom("slot-c-bijection", 2, 4, False, _repeats(lambda T, P, a, b: T[a][b][1:])),
    _Axiom("coherence-1", 4, 4, False, _coherence_1),
    _Axiom("coherence-2", 4, 4, False, _coherence_2),
    # a*b takes each value at most once as b or a varies
    _Axiom("left-cancellation", 1, 3, True, _repeats(lambda T, P, a: P[a][1:])),
    _Axiom("right-cancellation", 1, 3, True, _repeats(lambda T, P, b: [r[b] for r in P[1:]])),
    _Axiom("r4-compat", 2, 2, True, _r4_compat),
    _Axiom("r5-compat-1", 3, 3, True, _r5_compat_1),
    _Axiom("r5-compat-2", 3, 3, True, _r5_compat_2),
    _Axiom("r5-compat-3", 3, 3, True, _r5_compat_3),
    _Axiom("r5-compat-4", 3, 3, True, _r5_compat_4),
)
_AXIOM_BY_NAME = {ax.name: ax for ax in _AXIOMS}


def _check_pair(t: Tribracket, p: Optional[PartialProduct]) -> None:
    """Refuse a ``t`` that is not a Tribracket or a ``p`` that is not None or a
    PartialProduct on its set, with a ShapeError."""
    if p is None:
        _require(t, Tribracket, "tensor")
    else:
        TribracketAlgebra(t, p)


def _padded(t: Tribracket, p: Optional[PartialProduct]) -> tuple:
    """The 1-based tables T and P the axiom generators read (P None without p)."""
    _check_pair(t, p)
    T = (None, *((None, *((None, *row) for row in mat)) for mat in t.table))
    P = None if p is None else (None, *((None, *row) for row in p.table))
    return T, P


def _report(t: Tribracket, p: Optional[PartialProduct]) -> AxiomReport:
    """The failures of the tensor axioms without ``p``, of the product axioms with it."""
    T, P = _padded(t, p)
    full = range(1, t.n + 1)
    return AxiomReport(tuple(
        Violation(ax.name, witness, lhs, rhs)
        for ax in _AXIOMS
        if ax.reads_product == (p is not None)
        for witness, lhs, rhs in ax.failures(T, P, *[full] * ax.ranges)
    ))


def _tensor_axioms_hold(t: Tribracket) -> bool:
    """Whether t passes slot bijectivity and both coherence laws, decided on whole lines.

    L(x, y) is the line d -> [x, y, d] and A(x, y) the line a -> [a, x, y].

    * Slot bijectivity says that no value repeats along a line of a slot; as
      the entries lie in 1..n, that is every line holding n distinct values.
      Only slots a and c are checked: with coherence-1 they imply slot b.  Say
      [a,b,c] = [a,b',c] = u, and take d with [b,c,d] = c (slot c).  Then
      coherence-1 at (a, b, c, d), [a,b,[b,c,d]] = [a,u,[u,c,d]], reads
      u = L(a,u)(L(u,c)(d)); as L(a,u)∘L(u,c) is a bijection (slot c), d is
      the one value it maps to u, fixed by (a, u, c) alone.  So the d taken
      for b' is the same: [b,c,d] = c = [b',c,d], and slot a gives b = b'.
    * Coherence-1 at (a, b, c, d) reads L(a,b)(L(b,c)(d)) = L(a,u)(L(u,c)(d))
      with u = [a,b,c], so it holds for every d exactly when
      L(a,b)∘L(b,c) = L(a,u)∘L(u,c).
    * Coherence-2 at (a, b, c, d) reads A(c,d)(A(b,c)(a)) = A(w,d)(A(b,w)(a))
      with w = [b,c,d], as [u,c,d] = A(c,d)(u) with u = A(b,c)(a) and
      [[a,b,w],w,d] = A(w,d)(A(b,w)(a)); so it holds for every a exactly when
      A(c,d)∘A(b,c) = A(w,d)∘A(b,w).

    With the first coordinate s fixed, both laws compare the composition at
    (x, y) with the one at ([s,x,y], y): L(s,x)∘L(x,y) for coherence-1 and
    A(x,y)∘A(s,x) for coherence-2.  Each composition is one itemgetter gather
    of n values, so the check makes 2n^3 gathers, and it holds the
    compositions of one s at a time, O(n^3) values.
    """
    n, tab = t.n, t.table
    cols = [[*zip(*rows)] for rows in zip(*tab)]  # cols[x][y] is A(x, y)
    lines = itertools.chain(itertools.chain(*tab), *cols)  # slots c and a
    if {*map(len, map(set, lines))} != {n}:
        return False
    # get_l[x][y](pad_l[s][x]) is L(s,x)∘L(x,y) and get_a[s][x](pad_a[x][y]) is A(x,y)∘A(s,x):
    # values run 1..n, so a gathered line is padded at index 0 (at n = 1 a gather
    # returns the value itself, on both sides alike)
    get_l = [[operator.itemgetter(*line) for line in mat] for mat in tab]
    get_a = [[operator.itemgetter(*line) for line in row] for row in cols]
    pad_l = [[*map((0,).__add__, mat)] for mat in tab]
    pad_a = [[*map((0,).__add__, row)] for row in cols]
    offsets = [y - n for y in range(n)] * n
    for s, mat in enumerate(tab):
        # the compositions of s at (x, y) sit at x*n + y; at[x*n + y] is the index of ([s,x,y], y)
        at = [*map(operator.add, map(n.__mul__, itertools.chain(*mat)), offsets)]
        comp = [g(line) for line, gs in zip(pad_l[s], get_l) for g in gs]
        if comp != [*map(comp.__getitem__, at)]:
            return False
        comp = [*itertools.chain.from_iterable(map(map, get_a[s], pad_a))]
        if comp != [*map(comp.__getitem__, at)]:
            return False
    return True


def verify_tribracket(t: Tribracket) -> AxiomReport:
    """Check slot bijectivity and both coherence identities, with witnesses.

    Pass or fail is decided on whole lines of the table (see
    :func:`_tensor_axioms_hold`); only a table that fails runs the tensor
    entries of the axiom table, which list its violations.  Violation order:
    slot-a, slot-b, slot-c bijectivity, then coherence-1, coherence-2, each
    family in lexicographic witness order.
    """
    _require(t, Tribracket, "tensor")
    return AxiomReport(()) if t.axioms_hold else _report(t, None)


def _product_axioms_hold(t: Tribracket, p: PartialProduct) -> bool:
    """Whether p passes the product axioms over a t passing the tensor axioms,
    decided on whole lines.  With L(a,b) the line c -> [a,b,c], A(b,c) the line
    a -> [a,b,c], and R(a), C(b) p's row b -> a*b and column a -> a*b, read as 0
    where undefined and sending 0 to 0, each side reads 0 exactly where it is undefined:

    * r4-compat is one scan over the defined cells;
    * r5-compat-1, R(a)(L(a,b)(c)) = L(a,b)(R(b)(c)), holds at every c exactly
      when R(a)∘L(a,b) = L(a,b)∘R(b);
    * r5-compat-2, C(c)(A(b,c)(a)) = A(b,c)(C(b)(a)), holds at every a exactly
      when C(c)∘A(b,c) = A(b,c)∘C(b).

    On a tribracket these three imply the other product axioms (m is a defined
    product, bij-a/c bijectivity in slot a or c):

    * Cancellation.  If a*b = a*b' = m, r4 gives [a,m,b] = m = [a,m,b'],
      and bij-c gives b = b'.  The right-hand case is the same with bij-a.
    * r5-compat-3.  Let m = b*c and u = [a,b,m].  By r4, [b,m,c] = m, so
      coherence-1 at (a,b,m,c) gives [a,u,[u,m,c]] = u.  By r5-compat-1,
      a*[a,b,c] = u, so r4 gives [a,u,[a,b,c]] = u.  Then bij-c gives
      [u,m,c] = [a,b,c].
    * r5-compat-4.  Let m = a*b and w = [m,b,c].  By r4, [a,m,b] = m, so
      coherence-2 at (a,m,b,c) gives [[a,m,w],w,c] = w.  By r5-compat-2,
      [a,b,c]*c = w, so r4 gives [[a,b,c],w,c] = w.  Then bij-a gives
      [a,m,w] = [a,b,c].
    """
    n, tab, rows = t.n, t.table, [tuple(v or 0 for v in row) for row in p.table]
    if not all(tab[a][m - 1][b] == m for a, row in enumerate(rows) for b, m in enumerate(row) if m):
        return False
    cols = [*zip(*[[*zip(*mats)] for mats in zip(*tab)])]  # cols[c][b] is A(b, c)
    # each law reads maps[s]∘mats[s][x] = mats[s][x]∘maps[x], one gather of n^2 values a side
    # for each s; mats[s][x] at maps[x] is index x*n + v - 1 of the flat lines, or the 0 after
    for mats, maps in ((tab, rows), (cols, [*zip(*rows)])):
        at = operator.itemgetter(*[x * n + v - 1 if v else n * n
                                   for x, m in enumerate(maps) for v in m])
        for mat, m in zip(mats, maps):
            flat = (*itertools.chain(*mat), 0)
            if operator.itemgetter(*flat[:-1])((0, *m)) != at(flat):
                return False
    return True


def verify_algebra(alg: TribracketAlgebra) -> AxiomReport:
    """Check cancellation and all bracket/product compatibility conditions.

    Violation order: left and right cancellation, r4-compat, then
    r5-compat-1..4.  r5-compat-1/2 pair each side's definedness with the
    other's: a violation whose lhs or rhs is None records a definedness
    mismatch.  Over a tribracket whose kept verdict passes, pass or fail is decided
    on whole lines (see :func:`_product_axioms_hold`) and only a failing product
    runs the axiom table, which lists its violations; over a failing one, the table decides.
    """
    _require(alg, TribracketAlgebra, "algebra")
    t, p = alg.tribracket, alg.product
    return AxiomReport(()) if t.axioms_hold and _product_axioms_hold(t, p) else _report(t, p)


def recheck_violation(v: Violation, t: Tribracket, p: Optional[PartialProduct] = None) -> bool:
    """Re-evaluate a violation witness; True iff the failure reproduces.

    Runs the axiom over the witness's own leading coordinates and looks for
    the witness with both reported sides among the failures.  Raises
    ValueError for an unknown axiom id, a product axiom without ``p``, or a
    witness of the wrong length or with a value outside 1..n, and ShapeError for
    a v that is not a Violation and tables that are not a Tribracket and a
    PartialProduct or differ in size.
    """
    _require(v, Violation, "violation")
    T, P = _padded(t, p)
    ax = _AXIOM_BY_NAME.get(v.axiom)
    if ax is None:
        raise ValueError(f"unknown axiom id {v.axiom!r}")
    if ax.reads_product and p is None:
        raise ValueError(f"{ax.name} needs the product table")
    if len(v.witness) != ax.width:
        raise ValueError(f"{ax.name} witness {v.witness} does not have {ax.width} values")
    if not all(type(x) is not bool and isinstance(x, int) and 1 <= x <= t.n for x in v.witness):
        raise ValueError(f"{ax.name} witness {v.witness} has a value outside 1..{t.n}")
    leading = [range(x, x + 1) for x in v.witness[: ax.ranges]]
    return (v.witness, v.lhs, v.rhs) in ax.failures(T, P, *leading)


def alexander_tribracket(n: int, x: int, y: int) -> Tribracket:
    """The linear tribracket a, b, c -> x*a - x*y*b + y*c over Z/n.

    x and y must be int units mod n; residue 0 is written as the label n.
    """
    _check_size(n)
    for name, m in (("x", x), ("y", y)):
        if type(m) is bool or not isinstance(m, int):
            raise ValueError(f"{name} must be an int, got {m!r}")
        if math.gcd(m, n) != 1:
            raise ValueError(f"{name} = {m} is not a unit mod {n}")
    span = range(1, n + 1)
    return Tribracket(n, tuple(
        tuple(tuple((x * a - x * y * b + y * c - 1) % n + 1 for c in span) for b in span)
        for a in span
    ))


def _keyed_table(fwd: tuple[int, ...], n: int, arity: int) -> tuple[int, ...]:
    """One table for every slot of an operation given as a flat table.

    ``fwd`` holds the result of inputs x, y, ... (values 1..n, 0 where
    undefined) at index (x-1)*n**(arity-1) + (y-1)*n**(arity-2) + ...  The
    keyed table is indexed by the base-(n+1) number whose digits are all
    arity + 1 slots in slot order, inputs first and the result last, each a
    value 1..n or 0 for an open slot.  Its entry is

    - w when only one slot is open and w is its only value;
    - -1 when the only open slot has no value, or when no slot is open and
      the values fail the operation (an undefined cell included);
    - 0 otherwise: several values, two or more open slots, or no open slot
      and values that hold.

    The table has (n+1)**(arity+1) entries, against (arity+1)*n**arity for
    one flat table per slot.  Each call starts from every key's default (-1
    with at most one open slot, 0 with more) and the key of each fwd index
    with the result open, then writes one pass over fwd for the closed and
    result-open keys and one per input slot; it keeps nothing between calls.
    """
    m = n + 1
    # rows[z] lists the defaults over the trailing digits when the leading
    # digits hold z open slots (2 standing for two or more); the last round
    # needs only rows[0], so the table makes it
    rows = ([-1], [-1], [0])
    for _ in range(arity):
        rows = (rows[1] + rows[0] * n, rows[2] + rows[1] * n, rows[2] * m)
    table = rows[1] + rows[0] * n
    strides = [m ** (arity - j) for j in range(arity)]
    keys = [0]
    for s in strides:
        keys = [k + v for k in keys for v in range(s, m * s, s)]
    for k, d in zip(keys, fwd):
        if d:
            table[k] = d
            table[k + d] = 0
    for j, s in enumerate(strides):  # slot j's value x at each fwd index
        xs = [x for x in range(1, m) for _ in range(n ** (arity - 1 - j))] * n**j
        for k, x, d in zip(keys, xs, fwd):
            if d:  # the key with this slot open and the result d
                k += d - x * s
                table[k] = x if table[k] < 0 else 0
    return tuple(table)


def _slot_read(table: tuple[int, ...], slot, known: tuple[int, ...], n: int) -> int:
    """The keyed-table entry of ``known`` with the named slot open."""
    if len(known) != len(type(slot)) - 1:
        raise ValueError(f"{known} does not give the {len(type(slot)) - 1} other slots")
    if not all(1 <= v <= n for v in known):
        raise ValueError(f"{known} has a value outside 1..{n}")
    g = list(type(slot)).index(slot)
    key = 0
    for v in (*known[:g], 0, *known[g:]):
        key = key * (n + 1) + v
    return table[key]


def tribracket_solve(t: Tribracket, slot: BracketSlot, known: tuple[int, int, int]) -> int:
    """Fill the named slot of bracket(a, b, c) = d from the other three.

    ``known`` lists the three given values in slot order (a, b, c, d) with the
    unknown omitted.  Raises LookupError when no value, or more than one,
    fills the slot; on a tensor passing verify_tribracket exactly one does.
    """
    e = _slot_read(t.keyed_table, slot, known, t.n)
    if e <= 0:
        raise LookupError(
            f"{'no' if e < 0 else 'several'} {slot.value} values fit {known} in bracket(a,b,c)=d"
        )
    return e


def product_solve(
    p: PartialProduct, slot: ProductSlot, known: tuple[int, int]
) -> Optional[int]:
    """Fill the named slot of a*b = c, or None if no table entry matches.

    RESULT takes (a, b); LEFT takes (b, c); RIGHT takes (a, c).  Raises
    LookupError when several values fill LEFT or RIGHT, which cancellation
    rules out.
    """
    e = _slot_read(p.keyed_table, slot, known, p.n)
    if e == 0:
        raise LookupError(f"several {slot.value} values fit {known} in a*b=c")
    return e if e > 0 else None


# ---------------------------------------------------------------------------
# plain-text algebra files
#
#   n = 3
#   tribracket:
#   1 2 3 / 3 1 2 / 2 3 1        <- matrix 1 (rows separated by /)
#   ...
#   product:                      <- optional block
#   1 3 2 / 3 2 1 / 2 1 3
#
# '#' starts a comment; '-' or '0' in the product block mean undefined.

def _content(text: str) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line of an algebra or diagram file, a str, its
    '#' comment and outer blanks cut; lines left empty are skipped."""
    _require(text, str, "text")
    cut = (line.split("#", 1)[0].strip() for line in text.splitlines())
    return ((lineno, line) for lineno, line in enumerate(cut, 1) if line)


def _parse_matrix(text: str, n: int, lineno: int, allow_undef: bool) -> list[list[Optional[int]]]:
    rows = text.split("/")
    if len(rows) != n:
        raise AlgebraParseError(f"expected {n} rows separated by '/', got {len(rows)}", lineno)
    tokens = {str(v): v for v in range(1, n + 1)}
    if allow_undef:
        tokens["-"] = tokens["0"] = None
    out: list[list[Optional[int]]] = []
    for r in rows:
        cells = r.split()
        if len(cells) != n:
            raise AlgebraParseError(f"expected {n} entries per row, got {len(cells)}", lineno)
        try:
            out.append(list(map(tokens.__getitem__, cells)))
        except KeyError:
            out.append([tokens[c] if c in tokens else _entry(c, n, lineno) for c in cells])
    return out


def _entry(cell: str, n: int, lineno: int) -> int:
    """The value of a cell that is not a canonical token, such as '01'."""
    if cell in ("-", "0"):  # not a token: this is a tribracket
        raise AlgebraParseError(f"undefined entry {cell!r} is not allowed in a tribracket", lineno)
    try:
        v = int(cell)
    except ValueError:
        raise AlgebraParseError(f"bad entry {cell!r}", lineno) from None
    if not 1 <= v <= n:
        raise AlgebraParseError(f"entry {v} out of range 1..{n}", lineno)
    return v


def parse_algebra(text: str) -> tuple[Tribracket, Optional[PartialProduct]]:
    """Parse an algebra file; returns the tensor and the product (None if absent)."""
    lines = _content(text)
    end = (len(text.splitlines()), None)  # an error at the end of the file names its last line

    ln, s = next(lines, end)
    if s is None:
        raise AlgebraParseError("empty algebra file")
    m = re.fullmatch(r"n\s*=\s*(\d+)", s)
    if not m:
        raise AlgebraParseError(f"expected 'n = <size>', got {s!r}", ln)
    try:
        n = int(m.group(1))
    except ValueError:  # more digits than int() converts
        raise AlgebraParseError("size has too many digits", ln) from None
    if n < 1:
        raise AlgebraParseError("size must be positive", ln)

    ln, s = next(lines, end)
    if s != "tribracket:":
        raise AlgebraParseError(f"expected 'tribracket:', got {s!r}", ln)
    mats = []
    for _ in range(n):
        ln, s = next(lines, end)
        if s is None:
            raise AlgebraParseError(f"expected {n} tribracket matrices", ln)
        mats.append(_parse_matrix(s, n, ln, allow_undef=False))
    tribracket = Tribracket(n, mats)

    ln, s = next(lines, end)
    if s is None:
        return tribracket, None
    if s != "product:":
        raise AlgebraParseError(f"expected 'product:' or end of file, got {s!r}", ln)
    ln, s = next(lines, end)
    if s is None:
        raise AlgebraParseError("missing product table", ln)
    product = PartialProduct(n, _parse_matrix(s, n, ln, allow_undef=True))
    ln, s = next(lines, end)
    if s is not None:
        raise AlgebraParseError(f"unexpected trailing content {s!r}", ln)
    return tribracket, product


def _bundled(path: str) -> str:
    """The text of a package data file, such as ``data/algebras/z3_full.alg``."""
    return resources.files("tribrackets").joinpath(path).read_text(encoding="utf-8")


def load_bundled_algebra(name: str) -> TribracketAlgebra:
    """One of the algebras shipped in the package data (it must have a product)."""
    return TribracketAlgebra(*parse_algebra(_bundled(f"data/algebras/{name}.alg")))


def serialize_algebra(t: Tribracket, p: Optional[PartialProduct] = None) -> str:
    """Inverse of parse_algebra (undefined cells rendered as '-'); a pair that
    parse_algebra could not have returned is refused with a ShapeError."""
    _check_pair(t, p)
    lines = [f"n = {t.n}", "tribracket:"]
    for mat in t.table:
        lines.append(" / ".join(" ".join(str(v) for v in row) for row in mat))
    if p is not None:
        lines.append("product:")
        lines.append(
            " / ".join(
                " ".join("-" if v is None else str(v) for v in row) for row in p.table
            )
        )
    return "\n".join(lines) + "\n"
