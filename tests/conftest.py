import pytest

from pivotforge import LowerBoundPolynomial, MultiPoly
from pivotforge.objectives import _evaluate_value


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


@pytest.fixture(scope="session")
def expand():
    """F_n's monomial form from the defining recursion run over
    ``MultiPoly``: the reference for the closed form of
    ``lower_bound_terms``."""
    def expand(n: int) -> MultiPoly:
        return _evaluate_value(tuple(MultiPoly.variable(n, j) for j in range(1, n + 1)))

    return expand
