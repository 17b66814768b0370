import pytest

from pivotforge import LowerBoundPolynomial


@pytest.fixture(scope="session")
def oracle_for():
    """Shared objective instances, only to save constructing them again;
    the oracle caches nothing, so sharing does not change any result."""
    cache = {}

    def get(n: int) -> LowerBoundPolynomial:
        if n not in cache:
            cache[n] = LowerBoundPolynomial(n)
        return cache[n]

    return get
