import functools

import pytest
from hypothesis import strategies as st

from tribrackets import (
    PartialProduct,
    Tribracket,
    TribracketAlgebra,
    builtin_diagrams,
    enumerate_products,
    enumerate_tribrackets,
)

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


@functools.cache
def census_algebras():
    """Every tensor of orders 1-4 with every compatible product, in census order."""
    return [
        TribracketAlgebra(t, p)
        for n in range(1, 5)
        for t in enumerate_tribrackets(n)
        for p in enumerate_products(t)
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


@st.composite
def arbitrary_algebras(draw, sizes=(2, 3)):
    """A tensor and a partial product with any entries, axioms unchecked."""
    n = draw(st.sampled_from(sizes))
    value = st.integers(min_value=1, max_value=n)
    cube = [[[draw(value) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    square = [[draw(st.none() | value) for _ in range(n)] for _ in range(n)]
    return TribracketAlgebra(Tribracket(n, cube), PartialProduct(n, square))
