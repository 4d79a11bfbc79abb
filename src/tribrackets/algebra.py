"""Finite tribrackets and their compatible partial products.

Elements of a size-n carrier are plain integers 1..n.  A tribracket is an
n x n x n operation tensor; the value of bracket(a, b, c) is found in matrix
a, row b, column c.  A partial product is an n x n table whose cells may be
undefined (stored as None).  Both constructors check the carrier size, the
shape and every entry, raising ShapeError for a size that is not a positive
int or an entry outside 1..n, so nothing later checks entries again.

Every axiom checker returns an :class:`AxiomReport` whose violations carry a
witness tuple; re-evaluating the witness against the structure reproduces the
reported mismatch, so reports are self-certifying.  Checks run in a fixed
order (shape, slot bijectivity, coherence, cancellation, vertex/crossing
compatibility) and witnesses are emitted in lexicographic order, so reports
are byte-stable across runs.
"""
from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from importlib import resources
from typing import Optional


class ShapeError(ValueError):
    """Structural defect (dimensions, sizes, entry range), not an axiom failure."""


class AlgebraParseError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


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
    if not isinstance(n, int):
        raise ShapeError(f"carrier size must be an int, got {n!r}")
    if n < 1:
        raise ShapeError(f"carrier size must be positive, got {n}")


@dataclass(frozen=True)
class Tribracket:
    """An n x n x n operation tensor with entries in 1..n."""

    n: int
    table: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        _check_size(self.n)
        try:
            tab = tuple(tuple(tuple(row) for row in mat) for mat in self.table)
        except TypeError:
            raise ShapeError("table must be nested n x n x n sequences") from None
        if len(tab) != self.n or any(
            len(mat) != self.n or any(len(row) != self.n for row in mat)
            for mat in tab
        ):
            raise ShapeError(f"table is not {self.n}x{self.n}x{self.n}")
        for a, b, c in itertools.product(range(1, self.n + 1), repeat=3):
            v = tab[a - 1][b - 1][c - 1]
            if not isinstance(v, int) or not 1 <= v <= self.n:
                raise ShapeError(f"entry ({a},{b},{c}) = {v!r} is not in 1..{self.n}")
        object.__setattr__(self, "table", tab)

    def bracket(self, a: int, b: int, c: int) -> int:
        """Look up matrix a, row b, column c."""
        return self.table[a - 1][b - 1][c - 1]

    @cached_property
    def slot_tables(self) -> tuple[tuple[int, ...], ...]:
        """Flat tables for the slots (a, b, c, result) of bracket(a, b, c) = d.

        See :func:`_slot_tables`.
        """
        return _slot_tables(tuple(v for mat in self.table for row in mat for v in row), self.n, 3)


@dataclass(frozen=True)
class PartialProduct:
    """An n x n partial multiplication table; None marks undefined cells."""

    n: int
    table: tuple[tuple[Optional[int], ...], ...]

    def __post_init__(self):
        _check_size(self.n)
        try:
            tab = tuple(tuple(row) for row in self.table)
        except TypeError:
            raise ShapeError("table must be nested n x n sequences") from None
        if len(tab) != self.n or any(len(row) != self.n for row in tab):
            raise ShapeError(f"table is not {self.n}x{self.n}")
        for a, b in itertools.product(range(1, self.n + 1), repeat=2):
            v = tab[a - 1][b - 1]
            if v is not None and (not isinstance(v, int) or not 1 <= v <= self.n):
                raise ShapeError(f"product entry ({a},{b}) = {v!r} is not in 1..{self.n}")
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
    def slot_tables(self) -> tuple[tuple[int, ...], ...]:
        """Flat tables for the slots (left, right, result) of a*b = c.

        See :func:`_slot_tables`; an undefined cell reads 0 in the result
        table.
        """
        return _slot_tables(tuple(v or 0 for row in self.table for v in row), self.n, 2)

    def defined_cells(self) -> list[tuple[int, int]]:
        return [
            (a, b)
            for a in range(1, self.n + 1)
            for b in range(1, self.n + 1)
            if self.table[a - 1][b - 1] is not None
        ]


@dataclass(frozen=True)
class TribracketAlgebra:
    """A tribracket together with a compatible partial product on the same set."""

    tribracket: Tribracket
    product: PartialProduct

    def __post_init__(self):
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
        return is_idempotent(self)


def _repeats(axiom: str, lines) -> list[Violation]:
    """Repeated values along lines of (fixed inputs, values in input order).

    Each witness is the fixed inputs, then the first input that gave the
    value and the input that repeated it; witnesses come out sorted.
    Undefined (None) values never repeat.
    """
    fam: list[Violation] = []
    for fixed, line in lines:
        seen: dict[int, int] = {}
        for z, v in enumerate(line, 1):
            if v is None:
                continue
            if v in seen:
                fam.append(Violation(axiom, (*fixed, seen[v], z), v, v))
            else:
                seen[v] = z
    return sorted(fam, key=lambda x: x.witness)


def verify_tribracket(t: Tribracket) -> AxiomReport:
    """Check slot bijectivity and both coherence identities, with witnesses.

    Violation order: slot-a, slot-b, slot-c bijectivity, then coherence-1,
    coherence-2, each family in lexicographic witness order.
    """
    n, tab = t.n, t.table
    viol: list[Violation] = []

    rng = range(n)
    pairs = [(x, y) for x in rng for y in rng]
    viol.extend(_repeats(
        "slot-a-bijection", (((b + 1, c + 1), [m[b][c] for m in tab]) for b, c in pairs)))
    viol.extend(_repeats(
        "slot-b-bijection", (((a + 1, c + 1), [r[c] for r in tab[a]]) for a, c in pairs)))
    viol.extend(_repeats("slot-c-bijection", (((a + 1, b + 1), tab[a][b]) for a, b in pairs)))

    coh1: list[Violation] = []
    coh2: list[Violation] = []
    rng = range(1, n + 1)
    for a in rng:
        mat_a = tab[a - 1]
        for b in rng:
            mat_b = tab[b - 1]
            row_ab = mat_a[b - 1]
            for c in rng:
                u = row_ab[c - 1]  # bracket(a, b, c)
                mat_u = tab[u - 1]
                row_bc = mat_b[c - 1]
                row_uc = mat_u[c - 1]
                for d in rng:
                    w = row_bc[d - 1]  # bracket(b, c, d)
                    lhs1 = row_ab[w - 1]  # bracket(a, b, w)
                    rhs1 = mat_a[u - 1][row_uc[d - 1] - 1]
                    if lhs1 != rhs1:
                        coh1.append(Violation("coherence-1", (a, b, c, d), lhs1, rhs1))
                    lhs2 = row_uc[d - 1]  # bracket(u, c, d)
                    rhs2 = tab[lhs1 - 1][w - 1][d - 1]
                    if lhs2 != rhs2:
                        coh2.append(Violation("coherence-2", (a, b, c, d), lhs2, rhs2))
    viol.extend(coh1)
    viol.extend(coh2)
    return AxiomReport(tuple(viol))


def verify_algebra(alg: TribracketAlgebra) -> AxiomReport:
    """Check cancellation and all bracket/product compatibility conditions.

    The four r5-compat families pair each side's definedness with the other:
    a violation whose lhs or rhs is None records a definedness mismatch.
    Assumes the tribracket itself already passes verify_tribracket.
    """
    n = alg.n
    t, p = alg.tribracket, alg.product
    br = t.bracket
    mul = p.mul
    viol: list[Violation] = []

    rows = p.table
    viol.extend(_repeats("left-cancellation", (((a + 1,), rows[a]) for a in range(n))))
    viol.extend(_repeats(
        "right-cancellation", (((b + 1,), [r[b] for r in rows]) for b in range(n))))

    for a in range(1, n + 1):
        for b in range(1, n + 1):
            ab = mul(a, b)
            if ab is not None and br(a, ab, b) != ab:
                viol.append(Violation("r4-compat", (a, b), br(a, ab, b), ab))

    fam1: list[Violation] = []
    fam2: list[Violation] = []
    fam3: list[Violation] = []
    fam4: list[Violation] = []
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            ab = mul(a, b)
            for c in range(1, n + 1):
                u = br(a, b, c)
                bc = mul(b, c)
                # both sides must be defined together and then agree
                lhs = mul(a, u)
                rhs = None if bc is None else br(a, b, bc)
                if lhs != rhs:
                    fam1.append(Violation("r5-compat-1", (a, b, c), lhs, rhs))
                lhs = mul(u, c)
                rhs = None if ab is None else br(ab, b, c)
                if lhs != rhs:
                    fam2.append(Violation("r5-compat-2", (a, b, c), lhs, rhs))
                if bc is not None:
                    rhs = br(br(a, b, bc), bc, c)
                    if u != rhs:
                        fam3.append(Violation("r5-compat-3", (a, b, c), u, rhs))
                if ab is not None:
                    rhs = br(a, ab, br(ab, b, c))
                    if u != rhs:
                        fam4.append(Violation("r5-compat-4", (a, b, c), u, rhs))
    viol.extend(fam1)
    viol.extend(fam2)
    viol.extend(fam3)
    viol.extend(fam4)
    return AxiomReport(tuple(viol))


def is_idempotent(alg: TribracketAlgebra) -> bool:
    """True iff the product is defined exactly on the diagonal with aa = a."""
    return alg.product == PartialProduct.diagonal(alg.n)


def alexander_tribracket(n: int, x: int, y: int) -> Tribracket:
    """The linear tribracket a, b, c -> x*a - x*y*b + y*c over Z/n.

    x and y must be units mod n; residue 0 is written as the label n.
    """
    if n < 1:
        raise ValueError(f"carrier size must be positive, got {n}")
    if math.gcd(x, n) != 1:
        raise ValueError(f"x = {x} is not a unit mod {n}")
    if math.gcd(y, n) != 1:
        raise ValueError(f"y = {y} is not a unit mod {n}")
    table = [
        [
            [
                (x * a - x * y * b + y * c - 1) % n + 1
                for c in range(1, n + 1)
            ]
            for b in range(1, n + 1)
        ]
        for a in range(1, n + 1)
    ]
    return Tribracket(n, tuple(tuple(tuple(r) for r in m) for m in table))


def _slot_tables(fwd: tuple[int, ...], n: int, arity: int) -> tuple[tuple[int, ...], ...]:
    """Lookup tables for every slot of an operation given as a flat table.

    ``fwd`` holds the result of inputs x, y, ... (values 1..n, 0 where
    undefined) at index (x-1)*n**(arity-1) + (y-1)*n**(arity-2) + ...  The
    tables come in slot order, inputs first and fwd last; table i is indexed
    the same way by the other slots' values in slot order and holds the
    unique value of slot i, 0 when there is none and -1 when there are several.

    Input j of fwd index i has stride s = n**(arity-1-j), so its 0-based value
    is i // s % n, and the index of the other inputs followed by d - 1 is
    (i // (s*n) * s + i % s) * n + d - 1.
    """
    tables = []
    for j in range(arity):
        s = n ** (arity - 1 - j)
        inv = [0] * len(fwd)
        for i, d in enumerate(fwd):
            if d:
                k = (i // (s * n) * s + i % s) * n + d - 1
                inv[k] = i // s % n + 1 if inv[k] == 0 else -1
        tables.append(tuple(inv))
    return (*tables, fwd)


def _index(values, n: int) -> int:
    """Flat table index of 0-based values."""
    i = 0
    for v in values:
        i = i * n + v
    return i


def _slot_read(tables, slot, known: tuple[int, ...], n: int) -> int:
    if not all(1 <= v <= n for v in known):
        raise ValueError(f"{known} has a value outside 1..{n}")
    return tables[list(type(slot)).index(slot)][_index((v - 1 for v in known), n)]


def tribracket_solve(t: Tribracket, slot: BracketSlot, known: tuple[int, int, int]) -> int:
    """Fill the named slot of bracket(a, b, c) = d from the other three.

    ``known`` lists the three given values in slot order (a, b, c, d) with the
    unknown omitted.  Raises LookupError when no value, or more than one,
    fills the slot; on a tensor passing verify_tribracket exactly one does.
    """
    v = _slot_read(t.slot_tables, slot, known, t.n)
    if v < 1:
        raise LookupError(
            f"{'no' if v == 0 else 'several'} {slot.value} values fit {known} in bracket(a,b,c)=d"
        )
    return v


def product_solve(
    p: PartialProduct, slot: ProductSlot, known: tuple[int, int]
) -> Optional[int]:
    """Fill the named slot of a*b = c, or None if no table entry matches.

    RESULT takes (a, b); LEFT takes (b, c); RIGHT takes (a, c).  Raises
    LookupError when several values fill LEFT or RIGHT, which cancellation
    rules out.
    """
    v = _slot_read(p.slot_tables, slot, known, p.n)
    if v < 0:
        raise LookupError(f"several {slot.value} values fit {known} in a*b=c")
    return v or None


def recheck_violation(
    v: Violation, t: Tribracket, p: Optional[PartialProduct] = None
) -> bool:
    """Re-evaluate a violation witness; True iff the failure reproduces."""
    br = t.bracket
    if v.axiom == "slot-a-bijection":
        b, c, a1, a2 = v.witness
        return a1 != a2 and br(a1, b, c) == br(a2, b, c) == v.lhs
    if v.axiom == "slot-b-bijection":
        a, c, b1, b2 = v.witness
        return b1 != b2 and br(a, b1, c) == br(a, b2, c) == v.lhs
    if v.axiom == "slot-c-bijection":
        a, b, c1, c2 = v.witness
        return c1 != c2 and br(a, b, c1) == br(a, b, c2) == v.lhs
    if v.axiom == "coherence-1":
        a, b, c, d = v.witness
        u = br(a, b, c)
        lhs = br(a, b, br(b, c, d))
        rhs = br(a, u, br(u, c, d))
        return lhs != rhs and lhs == v.lhs and rhs == v.rhs
    if v.axiom == "coherence-2":
        a, b, c, d = v.witness
        u = br(a, b, c)
        w = br(b, c, d)
        lhs = br(u, c, d)
        rhs = br(br(a, b, w), w, d)
        return lhs != rhs and lhs == v.lhs and rhs == v.rhs
    assert p is not None, f"product violation {v.axiom} needs the product table"
    mul = p.mul
    if v.axiom == "left-cancellation":
        a, b1, b2 = v.witness
        return b1 != b2 and mul(a, b1) == mul(a, b2) == v.lhs
    if v.axiom == "right-cancellation":
        b, a1, a2 = v.witness
        return a1 != a2 and mul(a1, b) == mul(a2, b) == v.lhs
    if v.axiom == "r4-compat":
        a, b = v.witness
        ab = mul(a, b)
        return ab is not None and br(a, ab, b) != ab and v.lhs == br(a, ab, b)
    if v.axiom == "r5-compat-1":
        a, b, c = v.witness
        u = br(a, b, c)
        bc, au = mul(b, c), mul(a, u)
        lhs = au
        rhs = None if bc is None else br(a, b, bc)
        return lhs != rhs and lhs == v.lhs and rhs == v.rhs
    if v.axiom == "r5-compat-2":
        a, b, c = v.witness
        u = br(a, b, c)
        ab, uc = mul(a, b), mul(u, c)
        lhs = uc
        rhs = None if ab is None else br(ab, b, c)
        return lhs != rhs and lhs == v.lhs and rhs == v.rhs
    if v.axiom == "r5-compat-3":
        a, b, c = v.witness
        bc = mul(b, c)
        if bc is None:
            return False
        lhs = br(a, b, c)
        rhs = br(br(a, b, bc), bc, c)
        return lhs != rhs and lhs == v.lhs and rhs == v.rhs
    if v.axiom == "r5-compat-4":
        a, b, c = v.witness
        ab = mul(a, b)
        if ab is None:
            return False
        lhs = br(a, b, c)
        rhs = br(a, ab, br(ab, b, c))
        return lhs != rhs and lhs == v.lhs and rhs == v.rhs
    raise ValueError(f"unknown axiom id {v.axiom!r}")


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

def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _parse_matrix(text: str, n: int, lineno: int, allow_undef: bool) -> list[list[Optional[int]]]:
    rows = [r.strip() for r in text.split("/")]
    if len(rows) != n:
        raise AlgebraParseError(f"expected {n} rows separated by '/', got {len(rows)}", lineno)
    out: list[list[Optional[int]]] = []
    for r in rows:
        cells = r.split()
        if len(cells) != n:
            raise AlgebraParseError(f"expected {n} entries per row, got {len(cells)}", lineno)
        row: list[Optional[int]] = []
        for cell in cells:
            if cell in ("-", "0"):
                if not allow_undef:
                    raise AlgebraParseError(
                        f"undefined entry {cell!r} is not allowed in a tribracket", lineno
                    )
                row.append(None)
            else:
                try:
                    v = int(cell)
                except ValueError:
                    raise AlgebraParseError(f"bad entry {cell!r}", lineno) from None
                if not 1 <= v <= n:
                    raise AlgebraParseError(f"entry {v} out of range 1..{n}", lineno)
                row.append(v)
        out.append(row)
    return out


def parse_algebra(text: str) -> tuple[Tribracket, Optional[PartialProduct]]:
    """Parse an algebra file; returns the tensor and the product (None if absent)."""
    lines = text.splitlines()
    i = 0

    def next_content() -> tuple[Optional[str], int]:
        nonlocal i
        while i < len(lines):
            s = _strip(lines[i])
            i += 1
            if s:
                return s, i
        return None, i

    s, ln = next_content()
    if s is None:
        raise AlgebraParseError("empty algebra file")
    m = re.fullmatch(r"n\s*=\s*(\d+)", s)
    if not m:
        raise AlgebraParseError(f"expected 'n = <size>', got {s!r}", ln)
    n = int(m.group(1))
    if n < 1:
        raise AlgebraParseError("size must be positive", ln)

    s, ln = next_content()
    if s != "tribracket:":
        raise AlgebraParseError(f"expected 'tribracket:', got {s!r}", ln)
    mats = []
    for _ in range(n):
        s, ln = next_content()
        if s is None:
            raise AlgebraParseError(f"expected {n} tribracket matrices", ln)
        mats.append(_parse_matrix(s, n, ln, allow_undef=False))
    tribracket = Tribracket(n, tuple(tuple(tuple(r) for r in m) for m in mats))

    s, ln = next_content()
    if s is None:
        return tribracket, None
    if s != "product:":
        raise AlgebraParseError(f"expected 'product:' or end of file, got {s!r}", ln)
    s, ln = next_content()
    if s is None:
        raise AlgebraParseError("missing product table", ln)
    rows = _parse_matrix(s, n, ln, allow_undef=True)
    product = PartialProduct(n, tuple(tuple(r) for r in rows))
    s, ln = next_content()
    if s is not None:
        raise AlgebraParseError(f"unexpected trailing content {s!r}", ln)
    return tribracket, product


def load_bundled_algebra(name: str) -> TribracketAlgebra:
    """One of the algebras shipped in the package data (it must have a product)."""
    text = (
        resources.files("tribrackets")
        .joinpath(f"data/algebras/{name}.alg")
        .read_text(encoding="utf-8")
    )
    tribracket, product = parse_algebra(text)
    return TribracketAlgebra(tribracket, product)


def serialize_algebra(t: Tribracket, p: Optional[PartialProduct] = None) -> str:
    """Inverse of parse_algebra (undefined cells rendered as '-')."""
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
