import functools
import itertools
import signal

import pytest
from hypothesis import strategies as st

from tribrackets import (
    PartialProduct,
    Tribracket,
    TribracketAlgebra,
    alexander_tribracket,
    builtin_diagrams,
    enumerate_products,
    enumerate_tribrackets,
)
from tribrackets import coloring

# the order-3 tensor used throughout the bundled corpus, written out longhand
Z3_TENSOR = Tribracket(
    3,
    (
        ((1, 2, 3), (3, 1, 2), (2, 3, 1)),
        ((2, 3, 1), (1, 2, 3), (3, 1, 2)),
        ((3, 1, 2), (2, 3, 1), (1, 2, 3)),
    ),
)

FULL_PRODUCT = PartialProduct(3, ((1, 3, 2), (3, 2, 1), (2, 1, 3)))
DIAG_PRODUCT = PartialProduct(3, ((1, None, None), (None, 2, None), (None, None, 3)))
CYC_PRODUCT = PartialProduct(3, ((None, 3, None), (None, None, 1), (2, None, None)))

# a read with one open slot has two values over each, so no kernel walks them:
# alexander(2, 1, 1), whose tensor passes its axioms, under a product whose row 1 repeats
# 1 (1*1 = 1*2 = 1), and the constant tensor of order 2, which fails its axioms
SEVERAL_VALUED = {
    "product_does_not_cancel": TribracketAlgebra(
        alexander_tribracket(2, 1, 1), PartialProduct(2, ((1, 1), (None, 2)))),
    "tensor_fails_its_axioms": TribracketAlgebra(
        Tribracket(2, [[[1, 1], [1, 1]]] * 2), PartialProduct.diagonal(2)),
}

Z4_TENSOR = Tribracket(
    4,
    (
        ((1, 2, 3, 4), (4, 1, 2, 3), (3, 4, 1, 2), (2, 3, 4, 1)),
        ((2, 3, 4, 1), (1, 2, 3, 4), (4, 1, 2, 3), (3, 4, 1, 2)),
        ((3, 4, 1, 2), (2, 3, 4, 1), (1, 2, 3, 4), (4, 1, 2, 3)),
        ((4, 1, 2, 3), (3, 4, 1, 2), (2, 3, 4, 1), (1, 2, 3, 4)),
    ),
)
Z4_PRODUCT = PartialProduct(
    4,
    ((1, None, 2, None), (None, 2, None, 3), (4, None, 3, None), (None, 1, None, 4)),
)


# seconds any one test may run, where SIGALRM exists; the slowest takes about 5
TIME_LIMIT = 120


class TimeLimitExceeded(BaseException):
    """A test ran past TIME_LIMIT; not an Exception, so no handler in the code swallows it."""


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Fail, rather than hang, a test whose set-up, call and teardown run past
    TIME_LIMIT seconds, the fixtures of every scope they run included."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"the test ran past its {TIME_LIMIT} s limit")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@functools.cache
def census_algebras():
    """Every tensor of orders 1-4 with every compatible product, in census order."""
    return [
        TribracketAlgebra(t, p)
        for n in range(1, 5)
        for t in enumerate_tribrackets(n)
        for p in enumerate_products(t)
    ]


@functools.cache
def latin_squares(n):
    """Every Latin square of order n on 1..n, as row tuples, in lexicographic order;
    built once per n, since each drawn slab tensor of order n samples it n times."""
    rows = list(itertools.permutations(range(1, n + 1)))
    squares = [()]
    for _ in range(n):
        squares = [sq + (row,) for sq in squares for row in rows
                   if all(v != q[j] for q in sq for j, v in enumerate(row))]
    return tuple(squares)


def latin_slabs(slabs) -> Tribracket:
    """The tensor whose b-slab (a, c) -> [a, b, c] is slabs[b - 1]: slots a and c are
    bijective, and slot b need not be."""
    n = len(slabs)
    return Tribracket(n, [[slabs[b][a] for b in range(n)] for a in range(n)])


def k2_cases(alg):
    """Per defined product cell a*b = c, in row-major order: the triple
    (a, b, c), the value [a, [a, c, b], b] of k2's clasp, and the a it needs."""
    br = alg.tribracket.bracket
    return [
        ((a, b, c), br(a, br(a, c, b), b), a)
        for a, row in enumerate(alg.product.table, 1) for b, c in enumerate(row, 1) if c
    ]


@pytest.fixture(scope="session")
def z3():
    return Z3_TENSOR


@pytest.fixture(scope="session")
def full_algebra():
    return TribracketAlgebra(Z3_TENSOR, FULL_PRODUCT)


@pytest.fixture(scope="session")
def diag_algebra():
    return TribracketAlgebra(Z3_TENSOR, DIAG_PRODUCT)


@pytest.fixture(scope="session")
def cyc_algebra():
    return TribracketAlgebra(Z3_TENSOR, CYC_PRODUCT)


@pytest.fixture(scope="session")
def empty_algebra():
    return TribracketAlgebra(Z3_TENSOR, PartialProduct.empty(3))


@pytest.fixture(scope="session")
def z4_algebra():
    return TribracketAlgebra(Z4_TENSOR, Z4_PRODUCT)


@pytest.fixture(scope="session")
def diagrams():
    return {d.name: d for d in builtin_diagrams()}


def search_walks(monkeypatch) -> list:
    """The arguments of each walk of the coloring search, for a count or a move check, from
    now on."""
    calls, solutions = [], coloring._solutions
    spy = lambda *args: calls.append(args) or solutions(*args)  # noqa: E731
    monkeypatch.setattr(coloring, "_solutions", spy)
    return calls


@st.composite
def arbitrary_algebras(draw, sizes=(2, 3)):
    """A tensor and a partial product with any entries, axioms unchecked."""
    n = draw(st.sampled_from(sizes))
    value = st.integers(min_value=1, max_value=n)
    cube = [[[draw(value) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    square = [[draw(st.none() | value) for _ in range(n)] for _ in range(n)]
    return TribracketAlgebra(Tribracket(n, cube), PartialProduct(n, square))
