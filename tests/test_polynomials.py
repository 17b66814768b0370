import json
import random
from fractions import Fraction
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Poly, real_roots
from sympy.polys.domains import QQ, ZZ
from sympy.polys.rings import ring

from pivotforge import (
    MultiPoly,
    NotRepresentableError,
    UniPoly,
    as_rational,
    first_nonpositive,
)
from pivotforge import polynomials
from pivotforge.polynomials import (
    _exact_quotient,
    _remainder_sequence,
    _squarefree_and_chain,
)


# Polynomials are built, evaluated and taken apart in sympy's ``QQ[t]``, and
# handed to the line search as ``UniPoly``.  The references (gcds,
# square-free parts, Sturm chains, real roots and root counts) are sympy's,
# so they share no code with ``pivotforge.polynomials``.

QQ_T, t = ring("t", QQ)
ZZ_T, _ = ring("t", ZZ)


def poly(*coeffs):
    """The ``QQ[t]`` element with these coefficients, lowest power first."""
    return QQ_T.from_list([QQ.convert(c) for c in reversed(coeffs)])


def uni(p) -> UniPoly:
    """The ``QQ[t]`` element ``p`` as a ``UniPoly``."""
    return UniPoly(Fraction(int(c.numerator), int(c.denominator))
                   for c in reversed(p.to_dense()))


def primitive_ints(p) -> tuple:
    """Coefficients, lowest power first, of the primitive integer polynomial
    that is a positive multiple of ``p``."""
    _, scaled = p.clear_denoms()
    _, prim = scaled.set_ring(ZZ_T).primitive()
    return tuple(int(c) for c in reversed(prim.to_dense()))


def sympy_poly(p) -> Poly:
    """The ``QQ[t]`` element ``p`` as a sympy ``Poly``, for its root counts."""
    return Poly.from_list(p.to_dense(), *QQ_T.symbols, domain=QQ)


def sturm_ints(p) -> list:
    """sympy's Sturm chain of ``p``, which starts with the monic square-free
    part, with each entry as :func:`primitive_ints` of it times the sign of
    ``p``'s leading coefficient: the chain of the square-free part that
    keeps ``p``'s sign."""
    sign = 1 if p.LC > 0 else -1
    return [primitive_ints(q * sign) for q in p.sturm()]


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12).map(Fraction)
small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6).map(Fraction)


def _sign_changes(values) -> int:
    """Sign alternations in a sequence, zeros skipped."""
    signs = [v > 0 for v in values if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


# ------------------------------------------------------------ UniPoly --


def test_unipoly_normalizes_leading_zeros():
    assert UniPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert UniPoly((0, 0)).coeffs == ()
    assert UniPoly(()).degree == -1


def test_poly_gcd_of_shared_factor():
    shared = t - 1
    a = shared * (t + 2)
    b = shared * (t**2 - 3)
    g = _remainder_sequence(primitive_ints(a), primitive_ints(b))[-1]
    assert g in ((-1, 1), (1, -1))


def test_squarefree_part_keeps_roots_once():
    p = (t - 1) ** 3 * (t - 2)
    s, chain = _squarefree_and_chain(primitive_ints(p))
    assert s == (2, -3, 1)  # (t - 1)(t - 2)
    assert len(chain[-1]) == 1  # gcd(sf, sf') is a constant


def test_sturm_counts_known_roots():
    p = (t - 1) * (t - 2) * (t - 3)
    _, chain = _squarefree_and_chain(primitive_ints(p))
    assert len(chain[0]) == 4 and len(chain[-1]) == 1
    polys = [poly(*q) for q in chain]

    def roots_between(a, b):
        return (_sign_changes([q(a) for q in polys])
                - _sign_changes([q(b) for q in polys]))

    assert roots_between(0, 4) == 3
    assert roots_between(Fraction(1, 2), Fraction(5, 2)) == 2
    assert roots_between(4, 10) == 0


nonzero_rationals = rationals.filter(lambda r: r != 0)
# Fraction coefficients, leads of either sign
coefficient_lists = st.tuples(st.lists(rationals, max_size=3), nonzero_rationals).map(
    lambda pair: poly(*pair[0], pair[1]))


@given(coefficient_lists, coefficient_lists, coefficient_lists,
       st.integers(1, 3), nonzero_rationals, rationals, rationals)
@settings(max_examples=300, deadline=None)
def test_integer_remainder_sequences_match_sympy(f, g, h, power, scale, a, b):
    """The integer remainder sequences give sympy's primitive form, square-free
    part, Sturm chain and gcd, each up to a positive factor, and the chain's
    sign variations count sympy's roots."""
    shared = f ** power * g * scale  # repeated roots and a nontrivial gcd
    other = f * h
    for p in (f, g, shared, other):
        assert uni(p).primitive().coeffs == primitive_ints(p)
        if p.degree() < 1:
            continue
        s, chain = _squarefree_and_chain(primitive_ints(p))
        reference = sturm_ints(p)
        assert (s, chain) == (reference[0], reference)
        lo, hi = min(a, b), max(a, b)
        if p(lo) != 0 and p(hi) != 0:
            # the chain of s counts the distinct roots of p
            polys = [poly(*q) for q in chain]
            found = (_sign_changes([q(lo) for q in polys])
                     - _sign_changes([q(hi) for q in polys]))
            assert found == sympy_poly(p).count_roots(lo, hi)
    for x, y in ((shared, other), (other, shared), (f, g), (g * scale, -g),
                 (poly(2), poly(4))):
        gcd_ints = _remainder_sequence(primitive_ints(x), primitive_ints(y))[-1]
        if gcd_ints[-1] < 0:
            gcd_ints = tuple(-c for c in gcd_ints)
        assert gcd_ints == primitive_ints(x.gcd(y))


# --------------------------------------------------- first_nonpositive --


def test_first_nonpositive_trivial_cases():
    assert first_nonpositive(UniPoly((-1,)), 1) == 0
    assert first_nonpositive(UniPoly((1, -2)), 1) == Fraction(1, 2)
    assert first_nonpositive(UniPoly((1,)), 1) is None
    assert first_nonpositive(UniPoly(()), 5) == 0  # zero polynomial
    assert first_nonpositive(UniPoly((3,)), 0) is None
    assert first_nonpositive(UniPoly((0, 1)), 4) == 0


_TINY = Fraction(1, 10**30)
#: p(0): zero, either sign near zero, and 41-digit numerators or denominators
values_at_zero = st.one_of(
    st.sampled_from([0, _TINY, -_TINY, Fraction(10**40 + 1, 3), Fraction(-(10**40) - 1, 7),
                     Fraction(3, 10**40 + 1), Fraction(-7, 10**40 + 1)]),
    st.integers(-5, 5),
    st.fractions(max_denominator=10**6).map(Fraction),
)


@given(values_at_zero, st.lists(st.integers(-5, 5), max_size=3),
       st.sampled_from([0, 1, Fraction(1, 3), 10]))
@settings(max_examples=300, deadline=None)
def test_first_nonpositive_reads_the_sign_at_zero_off_its_numerator(p0, higher, t_max):
    """The search stops at 0 exactly when ``p(0) <= 0`` by plain comparison,
    for constant and higher-degree ``p`` alike."""
    p = UniPoly((p0, *higher))
    try:
        found = first_nonpositive(p, t_max)
    except NotRepresentableError:  # an irrational root past 0
        found = None
    assert (found == 0) == (p0 <= 0)


def test_first_nonpositive_result_is_a_root():
    p = poly(1, -2)
    r = first_nonpositive(uni(p), 1)
    assert p(r) == 0


def _first_nonpositive_by_real_roots(p, t_max):
    """The line search read off sympy's real roots: the least root in
    ``(0, t_max]``, unless an irrational root comes first.  Only rationals
    are compared: the rational roots come from sympy's factorization, and
    ``count_roots`` (a Sturm count between rational endpoints) tells
    whether an irrational root lies before the first of them."""
    if p(0) <= 0:
        return 0
    if t_max == 0 or p.degree() == 0:
        return None
    exact = sympy_poly(p)
    rational = sorted(Fraction(int(r.p), int(r.q))
                      for r in set(real_roots(exact)) if r.is_Rational)
    in_range = [r for r in rational if 0 < r <= t_max]
    if exact.count_roots(0, in_range[0] if in_range else t_max) > (1 if in_range else 0):
        raise NotRepresentableError("irrational")
    return as_rational(in_range[0]) if in_range else None


def _assert_isolating_witness(p, t_max, error):
    """``(lower, upper]`` holds exactly one root of ``p``, the first one,
    and is narrower than ``1 / (2 lead^2)``."""
    lower, upper = error.lower, error.upper
    s = p.sqf_part()
    lead = abs(sturm_ints(p)[0][-1])
    assert 0 <= lower < upper <= t_max
    assert upper - lower < Fraction(1, 2 * lead * lead)
    assert p(lower) > 0
    assert p(upper) <= 0 or s(lower) * s(upper) < 0
    exact = sympy_poly(p)
    assert exact.count_roots(lower, upper) == 1
    assert lower == 0 or exact.count_roots(0, lower) == 0


def test_first_nonpositive_irrational_cases():
    with pytest.raises(NotRepresentableError):
        first_nonpositive(uni(2 - t**2), 2)  # first dip at sqrt(2)
    # same polynomial but the interval stops before sqrt(2)
    assert first_nonpositive(uni(2 - t**2), 1) is None
    # rational root before the irrational one
    assert first_nonpositive(uni((1 - 2 * t) * (2 - t**2)), 2) == Fraction(1, 2)
    # irrational root before the rational one
    with pytest.raises(NotRepresentableError):
        first_nonpositive(uni((2 - t**2) * (3 - t)), 3)
    # the witness isolates the root: tangencies included
    for p, t_max in [
        (2 - t**2, 2),
        ((2 - t**2) * (3 - t), 3),
        ((2 - t**2) ** 2, 2),
        (poly(Fraction(1, 3), 0, -Fraction(1, 7)), 5),
    ]:
        with pytest.raises(NotRepresentableError) as info:
            first_nonpositive(uni(p), t_max)
        _assert_isolating_witness(p, t_max, info.value)


def test_first_nonpositive_tangencies():
    # touches zero without crossing: the touch point is still the infimum
    assert first_nonpositive(uni(poly(-Fraction(1, 3), 1) ** 2), 1) == Fraction(1, 3)
    # irrational tangency
    p = uni((2 - t**2) ** 2)
    with pytest.raises(NotRepresentableError):
        first_nonpositive(p, 2)
    assert first_nonpositive(p, 1) is None


def test_exact_quotient_divides_or_raises():
    # (t + 1)(t - 2) / (t + 1), coefficients lowest degree first
    assert _exact_quotient((-2, -1, 1), (1, 1)) == [-2, 1]
    with pytest.raises(RuntimeError, match="does not divide"):
        _exact_quotient((1, 0, 1), (1, 1))  # t^2 + 1 leaves remainder 2


def test_first_nonpositive_root_at_endpoint():
    assert first_nonpositive(UniPoly((1, -1)), 1) == 1  # root exactly at t_max


def test_first_nonpositive_constructed_ground_truth():
    """Products of linear factors with known roots: the answer is the
    smallest root in range (sign at 0 fixed positive by construction)."""
    rng = random.Random(20240)
    for _ in range(120):
        m = rng.randint(1, 4)
        roots = sorted(
            Fraction(rng.randint(1, 40), rng.randint(1, 8)) for _ in range(m)
        )
        if len(set(roots)) != len(roots):
            continue
        p = poly((-1) ** m)
        for r in roots:
            p = p * poly(-r, 1)
        if rng.random() < 0.4:  # extra factor positive on the whole line
            p = p * poly(rng.randint(1, 5), 0, 1)
        t_max = Fraction(rng.randint(1, 50), rng.randint(1, 6))
        assert p(0) > 0
        in_range = [r for r in roots if r <= t_max]
        expected = min(in_range) if in_range else None
        assert first_nonpositive(uni(p), t_max) == expected


linear_factors = small_rationals.map(lambda r: poly(-r, 1))
# (t - a)^2 - k with k not a square: roots a +- sqrt(k), both irrational
irrational_quadratics = st.builds(
    lambda a, k: poly(a * a - k, -2 * a, 1),
    small_rationals, st.sampled_from([2, 3, 5, 6, 7, 8, 10]),
)
factors = st.tuples(
    st.one_of(linear_factors, irrational_quadratics), st.integers(1, 2)
).map(lambda pair: pair[0] ** pair[1])


@given(st.lists(factors, min_size=1, max_size=4),
       st.fractions(min_value=0, max_value=8, max_denominator=6).map(Fraction))
@settings(max_examples=300, deadline=None)
def test_first_nonpositive_agrees_with_root_extraction(product, t_max):
    p = poly(1)
    for factor in product:
        p = p * factor
    if p(0) < 0:
        p = -p  # a search that starts below zero ends at once
    try:
        expected = _first_nonpositive_by_real_roots(p, t_max)
    except NotRepresentableError:
        with pytest.raises(NotRepresentableError) as info:
            first_nonpositive(uni(p), t_max)
        _assert_isolating_witness(p, t_max, info.value)
        return
    assert first_nonpositive(uni(p), t_max) == expected


@pytest.mark.parametrize("m", [10**8 + 7, 2**61 - 1])
def test_first_nonpositive_large_bit_sizes(m):
    """Roots near ``m``: trial division of the coefficients would take
    about ``m`` steps, the bisection about ``log2(m)``."""
    irrational = m * m - 1 - t**2  # first zero sqrt(m^2 - 1)
    with pytest.raises(NotRepresentableError) as info:
        first_nonpositive(uni(irrational), 2 * m)
    _assert_isolating_witness(irrational, 2 * m, info.value)
    assert first_nonpositive(uni(m * m - t**2), 2 * m) == m
    assert first_nonpositive(uni(irrational * (m - 3 * t)), 2 * m) == Fraction(m, 3)


def test_first_nonpositive_root_with_64_bit_denominator():
    q = 2**64 - 59  # prime
    root = Fraction(q + 12345, q)
    p = (root.numerator - q * t) * (2 - t**2)  # sqrt(2) > root
    assert first_nonpositive(uni(p), 2) == root
    # first zero sqrt(numerator^2 + 1) / q: irrational, within 2^-128 of root
    near = root.numerator ** 2 + 1 - q * q * t**2
    with pytest.raises(NotRepresentableError) as info:
        first_nonpositive(uni(near), 2)
    _assert_isolating_witness(near, 2, info.value)


def _bracket_oracle(p, t_max, grid=128, refine=40):
    """Grid scan with bisection refinement around the first sign change."""
    if p(0) <= 0:
        return "at_zero", Fraction(0), Fraction(0)
    previous = Fraction(0)
    for j in range(1, grid + 1):
        x = t_max * Fraction(j, grid)
        if p(x) <= 0:
            lo, hi = previous, x
            for _ in range(refine):
                mid = (lo + hi) / 2
                if p(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            return "bracket", lo, hi
        previous = x
    return "none", None, None


def test_first_nonpositive_agrees_with_grid_oracle():
    rng = random.Random(7)
    checked = 0
    while checked < 220:
        degree = rng.randint(1, 4)
        p = poly(*(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(degree + 1)))
        if not p:
            continue
        t_max = Fraction(rng.randint(1, 30), rng.randint(1, 5))
        checked += 1
        try:
            result = first_nonpositive(uni(p), t_max)
        except NotRepresentableError:
            # the oracle's bracket (if any) pins the infimum to an interval;
            # the constructed-instance tests cover the rationality verdict
            status, lo, hi = _bracket_oracle(p, t_max)
            if status == "bracket":
                assert p(lo) > 0 and p(hi) <= 0
            continue
        status, lo, hi = _bracket_oracle(p, t_max)
        if result is None:
            assert status == "none"
        elif result == 0:
            assert status == "at_zero"
        else:
            assert status == "bracket"
            assert lo < result <= hi
            # independent minimality probe: positive strictly before result
            for j in range(1, 24):
                assert p(result * Fraction(j, 24)) > 0


def _first_nonpositive_by_fraction_bisection(p, t_max):
    """The line search as it was before the integer bisection: the same
    algorithm with ``Fraction`` midpoints, on sympy's square-free part and
    Sturm chain.  Results and witnesses must match it."""
    t_max = as_rational(t_max)
    if p(0) <= 0:
        return 0
    if t_max == 0 or p.degree() == 0:
        return None
    chain = p.sturm()
    s = chain[0]  # sympy's square-free part of p, made monic

    def variations(x):
        return _sign_changes([q(x) for q in chain])

    v_zero, v_hi = variations(0), variations(t_max)
    if v_hi == v_zero:
        return None
    lo, hi = Fraction(0), Fraction(t_max)
    while v_zero - v_hi > 1:
        mid = (lo + hi) / 2
        v_mid = variations(mid)
        if v_mid < v_zero:
            hi, v_hi = mid, v_mid
        else:
            lo = mid
    lead = abs(primitive_ints(s)[-1])
    width = Fraction(1, 2 * lead * lead)
    positive_at_lo = s(lo) > 0
    while hi - lo >= width:
        mid = (lo + hi) / 2
        value = s(mid)
        if value != 0 and (value > 0) == positive_at_lo:
            lo = mid
        else:
            hi = mid
    candidate = ((lo + hi) / 2).limit_denominator(lead)
    if lo < candidate <= hi and s(candidate) == 0:
        return as_rational(candidate)
    raise NotRepresentableError(
        "leftmost zero of the restriction is irrational",
        lower=as_rational(lo), upper=as_rational(hi),
    )


def _assert_same_as_fraction_bisection(p, t_max):
    try:
        expected = _first_nonpositive_by_fraction_bisection(p, t_max)
    except NotRepresentableError as error:
        with pytest.raises(NotRepresentableError) as info:
            first_nonpositive(uni(p), t_max)
        for got, want in ((info.value.lower, error.lower), (info.value.upper, error.upper)):
            assert got == want and type(got) is type(want)
        return
    result = first_nonpositive(uni(p), t_max)
    assert result == expected and type(result) is type(expected)


# (t - a)^2 - k: two irrational roots for k > 0 not a rational square, none for k < 0
irreducible_quadratics = st.builds(
    lambda a, k: poly(a * a - k, -2 * a, 1),
    small_rationals, st.sampled_from([2, 3, 7, Fraction(1, 3), Fraction(5, 7), -1, -3,
                                      Fraction(-2, 9)]),
)
repeated_factors = st.tuples(
    st.one_of(linear_factors, irreducible_quadratics), st.integers(1, 3)
).map(lambda pair: pair[0] ** pair[1])
t_maxes = st.one_of(
    st.integers(0, 12),
    st.fractions(min_value=0, max_value=12, max_denominator=60).map(Fraction),
)


@given(st.lists(repeated_factors, min_size=1, max_size=4), nonzero_rationals, t_maxes)
@settings(max_examples=400, deadline=None)
def test_first_nonpositive_matches_fraction_bisection(product, scale, t_max):
    p = poly(scale)
    for factor in product:
        p = p * factor
    _assert_same_as_fraction_bisection(p, t_max)
    _assert_same_as_fraction_bisection(-p, t_max)


@pytest.mark.parametrize("m", [10**8 + 7, 2**61 - 1])
def test_first_nonpositive_matches_fraction_bisection_large_bit_sizes(m):
    irrational = m * m - 1 - t**2
    for p, t_max in ((irrational, 2 * m), (m * m - t**2, 2 * m),
                     (irrational * (m - 3 * t), 2 * m),
                     (irrational * (m - 3 * t), Fraction(2 * m + 1, 3))):
        _assert_same_as_fraction_bisection(p, t_max)


def test_first_nonpositive_matches_fraction_bisection_64_bit_denominator():
    q = 2**64 - 59
    root = Fraction(q + 12345, q)
    for p in ((root.numerator - q * t) * (2 - t**2),
              root.numerator ** 2 + 1 - q * q * t**2):
        for t_max in (2, Fraction(2 * q + 1, q)):
            _assert_same_as_fraction_bisection(p, t_max)


def test_first_nonpositive_grid_root_with_reduced_denominator():
    # lead 6, first root 1/2: its denominator is a proper divisor of lead
    p = -(poly(-1, 2) * poly(-5, 3) * poly(-4, 1))
    for t_max in (1, Fraction(5, 3), 5, Fraction(5, 11)):
        _assert_same_as_fraction_bisection(p, t_max)
    assert first_nonpositive(uni(p), 5) == Fraction(1, 2)
    assert first_nonpositive(uni(p), Fraction(5, 11)) is None


def test_first_nonpositive_grid_root_at_hi_and_at_t_max():
    # 3/4 is a dyadic point of [0, 1]: the bisection ends with it as hi
    p = -(poly(-3, 4) * poly(2, 1) * poly(1, 5))
    assert first_nonpositive(uni(p), 1) == Fraction(3, 4)
    # the same root as t_max: the first interval already ends on it
    assert first_nonpositive(uni(p), Fraction(3, 4)) == Fraction(3, 4)
    # an integer root at t_max, with lead 1 and lead 7
    assert first_nonpositive(uni(poly(3, -1) * poly(1, 1)), 3) == 3
    assert first_nonpositive(uni(poly(6, -2) * poly(1, 7)), 3) == 3
    for q, t_max in ((p, 1), (p, Fraction(3, 4)), (p, Fraction(3, 2)),
                     (poly(6, -2) * poly(1, 7), 3)):
        _assert_same_as_fraction_bisection(q, t_max)


def test_first_nonpositive_non_squarefree_rational_root():
    p = poly(-1, 3) ** 2 * poly(2, -1)  # touches 0 at 1/3, crosses at 2
    for t_max in (1, Fraction(1, 3), 3, Fraction(13, 7)):
        _assert_same_as_fraction_bisection(p, t_max)
    assert first_nonpositive(uni(p), 3) == Fraction(1, 3)
    assert first_nonpositive(uni(p), Fraction(1, 4)) is None


def test_first_nonpositive_degree_one():
    for p, t_max, root in ((poly(5, -7), 1, Fraction(5, 7)),
                           (poly(5, -7), Fraction(5, 7), Fraction(5, 7)),
                           (poly(Fraction(3, 2), -Fraction(1, 4)), 9, 6),
                           (poly(12, -5), 2, None)):
        assert first_nonpositive(uni(p), t_max) == root
        _assert_same_as_fraction_bisection(p, t_max)


@pytest.mark.parametrize("lead_root, k", [(7, 3), (1000, 1), (2**40 + 15, 5)])
def test_first_nonpositive_irrational_root_next_to_a_grid_point(lead_root, k):
    # sqrt(L^2 k^2 + 1) / L is within 1 / (2 L^2 k) = 1 / (2 lead k) of the
    # grid point k; the witness must still be narrower than 1 / (2 lead^2)
    p = poly(lead_root * lead_root * k * k + 1, 0, -lead_root * lead_root)
    with pytest.raises(NotRepresentableError) as info:
        first_nonpositive(uni(p), k + 1)
    _assert_isolating_witness(p, k + 1, info.value)
    _assert_same_as_fraction_bisection(p, k + 1)


def _counting(monkeypatch, *names):
    """Counter of calls to the named ``polynomials`` functions, from now on."""
    counts = Counter()
    for name in names:
        original = getattr(polynomials, name)

        def counted(*args, original=original, name=name):
            counts[name] += 1
            return original(*args)
        monkeypatch.setattr(polynomials, name, counted)
    return counts


def test_first_nonpositive_runs_one_remainder_sequence_when_squarefree(monkeypatch):
    square_free = uni(-(poly(-1, 2) * poly(-5, 3) * poly(-4, 1)))
    repeated = uni(poly(-1, 3) ** 2 * poly(2, -1))
    counts = _counting(monkeypatch, "_remainder_sequence")
    assert first_nonpositive(square_free, 5) == Fraction(1, 2)
    assert counts["_remainder_sequence"] == 1
    counts.clear()
    assert first_nonpositive(repeated, 3) == Fraction(1, 3)
    assert counts["_remainder_sequence"] == 2


def _ceil_log2(x) -> int:
    e = 0
    while 2 ** e < x:
        e += 1
    return e


@pytest.mark.parametrize("p, t_max, root", [
    (-(poly(-1, 2) * poly(-5, 3) * poly(-4, 1)), 5, Fraction(1, 2)),
    (-(poly(-999_999, 1_000_003) * poly(2, 1) * poly(3, 1)), 1,
     Fraction(999_999, 1_000_003)),
    (poly(-7, 2**31 - 1) * poly(-8, 2**31 - 1) * poly(1, 1), Fraction(9, 7),
     Fraction(7, 2**31 - 1)),
    (poly(-1, 3) ** 2 * poly(2, -1), 3, Fraction(1, 3)),
    # lead 2^64 - 59, a 64-bit prime
    (-(poly(-(2**64 - 58), 2**64 - 59) * poly(2, 1) * poly(3, 1)), 2,
     Fraction(2**64 - 58, 2**64 - 59)),
])
def test_first_nonpositive_refines_a_rational_root_only_to_the_grid(monkeypatch, p, t_max, root):
    """Past isolation, a rational root costs at most one evaluation per
    halving down to width ``1 / lead`` plus two, counted without a clock:
    each call of ``_variations_at`` is one point (``0``, ``t_max``, one
    per isolation step), and each ``_narrow`` call halves from the level
    it takes in to the level it returns."""
    lead = abs(sturm_ints(p)[0][-1])
    counts = _counting(monkeypatch, "_variations_at")
    halvings = []
    narrow = polynomials._narrow

    def counted_narrow(s_top, a, k, width_bound, den):
        a_out, k_out = narrow(s_top, a, k, width_bound, den)
        halvings.append(k_out - k)
        return a_out, k_out
    monkeypatch.setattr(polynomials, "_narrow", counted_narrow)
    assert first_nonpositive(uni(p), t_max) == root
    points = counts["_variations_at"]
    assert len(halvings) == 1  # a rational root stops at the grid test
    assert halvings[0] <= (points - 2) + _ceil_log2(t_max * lead) + 2


class _CountingFraction(Fraction):
    """``Fraction`` that counts its constructions."""
    made = 0

    def __new__(cls, *args, **kwargs):
        _CountingFraction.made += 1
        return super().__new__(cls, *args, **kwargs)


@pytest.mark.parametrize("p, t_max, made", [
    (-(poly(-1, 2) * poly(-5, 3) * poly(-4, 1)), 5, 1),  # rational root 1/2
    ((2 - t**2) * poly(3, 1), 2, 2),  # irrational root sqrt(2)
])
def test_first_nonpositive_builds_fractions_only_for_its_answer(monkeypatch, p, t_max, made):
    """One ``Fraction`` for a rational result, two for an irrational
    witness, and none before: isolation and narrowing see only ``int``."""
    def leaves(value):
        if isinstance(value, (list, tuple)):
            for item in value:
                yield from leaves(item)
        else:
            yield value

    def ints_only(name):
        original = getattr(polynomials, name)

        def checked(*args):
            assert _CountingFraction.made == 0
            assert all(type(v) is int for v in leaves(args)), (name, args)
            return original(*args)
        monkeypatch.setattr(polynomials, name, checked)

    ints_only("_variations_at")
    ints_only("_narrow")
    monkeypatch.setattr(_CountingFraction, "made", 0)
    monkeypatch.setattr(polynomials, "Fraction", _CountingFraction)
    if made == 1:
        first_nonpositive(uni(p), t_max)
    else:
        with pytest.raises(NotRepresentableError):
            first_nonpositive(uni(p), t_max)
    assert _CountingFraction.made == made


def _scaled_to_unit(cs, num, den) -> tuple:
    """Coefficients, lowest power first, of ``den^d · q(num/den · u)``."""
    d = len(cs) - 1
    return tuple(c * num**i * den ** (d - i) for i, c in enumerate(cs))


def _dyadic_value(cs, a, k) -> int:
    """``2^(k d) · q(a / 2^k)`` by homogenized Horner, one polynomial."""
    value = 0
    shift = 0
    for c in reversed(cs):
        value = value * a + (c << shift)
        shift += k
    return value


def _narrow_by_halvings(s_unit, a, k, positive_at_lo, width_bound, den):
    """Halve ``(a, k)`` while ``width_bound >= den·2^k``, following the
    sign change of ``s`` from a sign at ``lo`` evaluated beforehand."""
    while width_bound >= den << k:
        a, k = 2 * a, k + 1
        value = _dyadic_value(s_unit, a + 1, k)
        if value != 0 and (value > 0) == positive_at_lo:
            a += 1
    return a, k


def _first_nonpositive_by_integer_bisection(p: UniPoly, t_max):
    """The integer bisection as it was before the one-pass sign count: a
    list of per-polynomial Horner values per point, an evaluation of
    ``s`` at ``lo`` before narrowing, and a width test per halving.  Only
    the chain (:func:`_squarefree_and_chain`) is shared with the module."""
    t_max = as_rational(t_max)
    coeffs = p.coeffs
    if not coeffs or coeffs[0] <= 0:
        return 0
    if len(coeffs) == 1 or t_max == 0:
        return None
    s, sequence = _squarefree_and_chain(p.primitive().coeffs)
    num, den = t_max.numerator, t_max.denominator
    chain = [_scaled_to_unit(q, num, den) for q in sequence]

    def variations(a, k):
        return _sign_changes([_dyadic_value(q, a, k) for q in chain])

    a, k = 0, 0
    v_zero, v_hi = variations(0, 0), variations(1, 0)
    if v_hi == v_zero:
        return None
    while v_zero - v_hi > 1:
        a, k = 2 * a, k + 1
        v_mid = variations(a + 1, k)
        if v_mid < v_zero:
            v_hi = v_mid
        else:
            a += 1
    lead = abs(s[-1])
    scaled = lead * num
    positive_at_lo = _dyadic_value(chain[0], a, k) > 0
    a, k = _narrow_by_halvings(chain[0], a, k, positive_at_lo, scaled, den)
    m = scaled * (a + 1) // (den << k)
    if m * (den << k) > scaled * a and sum(
            c * Fraction(m, lead) ** i for i, c in enumerate(s)) == 0:
        return as_rational(Fraction(m, lead))
    a, k = _narrow_by_halvings(chain[0], a, k, positive_at_lo, 2 * lead * scaled, den)
    raise NotRepresentableError(
        "leftmost zero of the restriction is irrational",
        lower=as_rational(Fraction(num * a, den << k)),
        upper=as_rational(Fraction(num * (a + 1), den << k)),
    )


def _int_product(factors) -> list:
    """Coefficients, lowest power first, of a product of integer polynomials."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


@st.composite
def root_factors(draw, room):
    """An integer factor of degree at most ``room``: a rational root
    ``q/m`` (``m`` up to 41 bits), a cluster of two roots ``1/N`` apart, or
    ``(m t - q)^2 - c`` with irrational roots (``c`` not a square) or none
    (``c < 0``); squared, a repeated root, when ``room`` allows."""
    m = draw(st.one_of(st.integers(1, 12), st.integers(1, 2**41)))
    q = draw(st.one_of(st.integers(1, 6 * m), st.integers(-3 * m, -1)))  # mostly q/m > 0
    kinds = ["rational"] + (["cluster", "quadratic", "quadratic"] if room >= 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "rational":
        factor = [-q, m]
    elif kind == "cluster":
        spread = draw(st.one_of(st.integers(2, 50), st.integers(2**20, 2**60)))
        factor = _int_product([[-q, m], [-(q * spread + 1), m * spread]])
    else:
        c = draw(st.sampled_from([2, 3, 5, 7, 11, 10**6 + 3, -1, -5]))
        factor = [q * q - c, -2 * m * q, m * m]
    if 2 * (len(factor) - 1) <= room and draw(st.booleans()):
        factor = _int_product([factor, factor])
    return factor


@st.composite
def integer_restrictions(draw):
    """Integer polynomials of degree 1-6 built from :func:`root_factors`,
    positive at 0 except now and then."""
    degree = draw(st.integers(1, 6))
    factors = [[draw(st.sampled_from([-7, -2, -1, 1, 3, 2**35 + 1]))]]
    while sum(len(f) - 1 for f in factors) < degree:
        factors.append(draw(root_factors(degree - sum(len(f) - 1 for f in factors))))
    coeffs = _int_product(factors)
    if coeffs[0] < 0 and draw(st.integers(0, 9)) != 9:
        coeffs = [-c for c in coeffs]
    return UniPoly(coeffs)


random_t_maxes = st.builds(Fraction, st.integers(1, 8 * 10**5),
                           st.integers(1, 10**5)).map(as_rational)
integer_t_maxes = st.sampled_from([  # two in three random
    random_t_maxes, random_t_maxes, random_t_maxes, random_t_maxes,
    st.integers(30, 90).map(lambda e: Fraction(1, 2**e)),  # tiny
    st.integers(12, 60).map(lambda e: 10**e),  # huge
    st.just(0),
]).flatmap(lambda strategy: strategy)


@given(integer_restrictions(), integer_t_maxes)
@settings(max_examples=400, deadline=None)
def test_first_nonpositive_matches_integer_bisection_bit_for_bit(p, t_max):
    """The same value of the same type, or the same witness interval."""
    try:
        expected = _first_nonpositive_by_integer_bisection(p, t_max)
    except NotRepresentableError as error:
        with pytest.raises(NotRepresentableError) as info:
            first_nonpositive(p, t_max)
        for got, want in ((info.value.lower, error.lower), (info.value.upper, error.upper)):
            assert got == want and type(got) is type(want)
        return
    result = first_nonpositive(p, t_max)
    assert result == expected and type(result) is type(expected)


# ----------------------------------------------------------- MultiPoly --


def x(n, k):
    return MultiPoly.variable(n, k)


def test_multi_arith_cancellation_and_products():
    one_var = x(1, 1)
    assert (one_var + -one_var).terms == {}
    sq = one_var * one_var
    assert sq.terms == {(2,): 1}
    lhs = (1 - 2 * x(2, 1)) * x(2, 2)
    expected = x(2, 2) - 2 * (x(2, 1) * x(2, 2))
    assert lhs.terms == expected.terms
    for bits in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        assert lhs.eval(bits) == (1 - 2 * bits[0]) * bits[1]


def test_multi_eval_examples():
    p = x(2, 1) - 2 * (x(2, 1) * x(2, 2))
    assert p.eval((1, 1)) == -1
    for q in (Fraction(0), Fraction(2, 3), Fraction(-5, 7)):
        assert p.eval((0, q)) == 0


@given(st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=60, deadline=None)
def test_multi_mul_commutes_with_eval(n, data):
    def random_poly():
        terms = data.draw(st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * n), small_rationals, max_size=4))
        return MultiPoly(n, terms)

    a, b = random_poly(), random_poly()
    point = tuple(data.draw(small_rationals) for _ in range(n))
    assert (a * b).eval(point) == a.eval(point) * b.eval(point)
    assert (a + b).eval(point) == a.eval(point) + b.eval(point)


@given(st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=60, deadline=None)
def test_dual_eval_matches_symbolic_partial(n, data):
    """``partial`` is sympy's derivative of the same polynomial, and so is the
    ``mu`` coefficient of ``eval`` along the line ``x + mu·e_k`` over
    ``QQ[mu]`` (forward mode: a dual number without the truncation)."""
    terms = data.draw(st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * n), small_rationals, max_size=5))
    p = MultiPoly(n, terms)
    point = tuple(data.draw(small_rationals) for _ in range(n))
    k = data.draw(st.integers(1, n))
    qq_x, *xs = ring(",".join(f"x{i}" for i in range(1, n + 1)), QQ)
    reference = qq_x.from_dict({exps: QQ.convert(c) for exps, c in p.terms.items()})
    partial = p.partial(k).eval(point)
    assert partial == reference.diff(xs[k - 1])(*point)
    assert p.eval(point) == reference(*point)
    qq_mu, mu = ring("mu", QQ)
    line = qq_mu(p.eval(tuple(c + mu if i == k - 1 else c for i, c in enumerate(point))))
    assert (line(0), line.coeff(mu)) == (p.eval(point), partial)


def test_total_degree_conventions():
    assert MultiPoly(3).total_degree == -1
    assert MultiPoly.constant(3, 5).total_degree == 0
    assert (x(3, 1) * x(3, 2) * x(3, 3)).total_degree == 3


def test_json_terms_in_graded_lex_order():
    p = 2 * x(2, 2) + 3 * (x(2, 1) * x(2, 1)) + MultiPoly.constant(2, 7) + x(2, 1)
    assert p.total_degree == 2
    exported = [polynomials.term_json(exps, c) for exps, c in p.sorted_terms()]
    assert [json.loads(t)["exponents"] for t in exported] == [[2, 0], [1, 0], [0, 1], [0, 0]]
    assert [json.loads(t)["coefficient"] for t in exported] == ["3/1", "1/1", "2/1", "7/1"]
    layout = json.dumps({"terms": [{"coefficient": "3/1", "exponents": [2, 0]}]}, indent=2)
    assert layout == '{\n  "terms": [\n' + exported[0] + '\n  ]\n}'
    assert polynomials.term_json((0, 1), Fraction(-1, 3)) == (
        '    {\n      "coefficient": "-1/3",\n      "exponents": [\n        0,\n        1\n'
        '      ]\n    }')


def test_multipoly_dimension_mismatch():
    from pivotforge import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        x(2, 1) + x(3, 1)
    with pytest.raises(DimensionMismatchError):
        x(2, 1).eval((1,))
