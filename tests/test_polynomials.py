import random
from fractions import Fraction
from collections import Counter
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from pivotforge import (
    DualNumber,
    MultiPoly,
    NotRepresentableError,
    UniPoly,
    as_rational,
    first_nonpositive,
)
from pivotforge import polynomials
from pivotforge.polynomials import (
    _remainder_sequence,
    _squarefree_and_chain,
)


# The remainder sequences by rational long division (``divmod``), as they
# were computed before the integer pseudo-remainders.  They share no code
# with ``pivotforge.polynomials`` beyond ``UniPoly`` arithmetic: the integer
# versions must reproduce them coefficient for coefficient, and the
# line-search references below are built on them.


def _primitive_by_fractions(p):
    if p.is_zero():
        return p
    den_lcm = 1
    for c in p.coeffs:
        if isinstance(c, Fraction):
            den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in p.coeffs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return UniPoly(tuple(v // g for v in ints))


def _derivative(p):
    """``p'`` by the power rule, written here rather than taken from the
    library's ``_derivative_ints``, which the references below check."""
    return UniPoly(i * c for i, c in enumerate(p.coeffs) if i)


def _gcd_by_divmod(a, b):
    a, b = _primitive_by_fractions(a), _primitive_by_fractions(b)
    while not b.is_zero():
        _, r = divmod(a, b)
        a, b = b, _primitive_by_fractions(r)
    if not a.is_zero() and a.coeffs[-1] < 0:
        a = -a
    return a


def _squarefree_by_divmod(p):
    if p.degree <= 1:
        return _primitive_by_fractions(p)
    g = _gcd_by_divmod(p, _derivative(p))
    if g.degree == 0:
        return _primitive_by_fractions(p)
    q, r = divmod(p, g)
    assert r.is_zero()
    return _primitive_by_fractions(q)


def _sturm_chain_by_divmod(p):
    chain = [_primitive_by_fractions(p)]
    d = _derivative(p)
    if d.is_zero():
        return chain
    chain.append(_primitive_by_fractions(d))
    while True:
        _, r = divmod(chain[-2], chain[-1])
        if r.is_zero():
            return chain
        chain.append(_primitive_by_fractions(-r))


def _sign_changes(values) -> int:
    """Sign alternations in a sequence, zeros skipped."""
    signs = [v > 0 for v in values if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_roots_between(p: UniPoly, a, b) -> int:
    """Number of distinct real roots of ``p`` in the open interval (a, b),
    by Sturm's theorem; ``p(a)`` and ``p(b)`` must be nonzero."""
    if p.eval(a) == 0 or p.eval(b) == 0:
        raise ValueError("endpoints must not be roots")
    if a >= b:
        return 0
    chain = _sturm_chain_by_divmod(p)
    return (_sign_changes([q.eval(a) for q in chain])
            - _sign_changes([q.eval(b) for q in chain]))


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12).map(Fraction)
small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6).map(Fraction)


# ------------------------------------------------------------ UniPoly --


def test_uni_eval_identity_and_roots():
    assert UniPoly((0, 1)).eval(Fraction(1, 2)) == Fraction(1, 2)
    assert UniPoly((1, -2)).eval(Fraction(1, 2)) == 0
    assert UniPoly((0,)).eval(7) == 0


def test_unipoly_normalizes_leading_zeros():
    assert UniPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert UniPoly((0, 0)).is_zero()
    assert UniPoly(()).degree == -1


@given(st.lists(small_rationals, max_size=6), st.lists(small_rationals, max_size=6),
       small_rationals)
def test_unipoly_arithmetic_matches_evaluation(a, b, t):
    pa, pb = UniPoly(a), UniPoly(b)
    assert (pa + pb).eval(t) == pa.eval(t) + pb.eval(t)
    assert (pa - pb).eval(t) == pa.eval(t) - pb.eval(t)
    assert (pa * pb).eval(t) == pa.eval(t) * pb.eval(t)


@given(st.lists(small_rationals, max_size=5), st.lists(small_rationals, min_size=1,
       max_size=4), st.lists(small_rationals, max_size=3))
def test_divmod_recovers_quotient_and_remainder(a, b, c):
    pb = UniPoly(b)
    if pb.is_zero():
        return
    pa, pc = UniPoly(a), UniPoly(c)
    if pc.degree >= pb.degree:
        return
    q, r = divmod(pa * pb + pc, pb)
    assert q == pa
    assert r == pc


def test_poly_gcd_of_shared_factor():
    shared = UniPoly((-1, 1))  # t - 1
    a = shared * UniPoly((2, 1))
    b = shared * UniPoly((-3, 0, 1))
    g = UniPoly(_remainder_sequence(a.primitive().coeffs, b.primitive().coeffs)[-1])
    assert g.degree == 1
    assert g.eval(1) == 0


def test_squarefree_part_keeps_roots_once():
    p = UniPoly((-1, 1)) ** 3 * UniPoly((-2, 1))
    s, chain = _squarefree_and_chain(p.primitive().coeffs)
    sf = UniPoly(s)
    assert sf.eval(1) == 0 and sf.eval(2) == 0
    assert sf.degree == 2
    assert len(chain[-1]) == 1  # gcd(sf, sf') is a constant


def _divisors(m):
    """All positive divisors of ``m > 0`` by trial division."""
    out = []
    for d in range(1, isqrt(m) + 1):
        if m % d == 0:
            out.extend({d, m // d})
    return sorted(out)


def _rational_roots_oracle(p):
    """All rational roots of ``p`` (each once, sorted) by the rational root
    theorem on the primitive integer form, verified by exact evaluation.
    Exponential in the bit size: a reference for small coefficients only."""
    cs = list(p.primitive().coeffs)
    roots = set()
    low = 0
    while cs[low] == 0:
        low += 1
    if low:
        roots.add(0)
        cs = cs[low:]
    reduced = UniPoly(cs)
    if reduced.degree >= 1:
        dens = _divisors(abs(cs[-1]))
        for num in _divisors(abs(cs[0])):
            for den in dens:
                if gcd(num, den) != 1:
                    continue
                for cand in (Fraction(num, den), Fraction(-num, den)):
                    if reduced.eval(cand) == 0:
                        roots.add(as_rational(cand))
    return sorted(roots)


def _first_nonpositive_oracle(p, t_max):
    """The line search by root extraction: the least rational root in
    ``(0, t_max]``, unless a Sturm count finds an irrational root before it."""
    if p.eval(0) <= 0:
        return 0
    if t_max == 0 or p.degree == 0:
        return None
    square_free = _squarefree_by_divmod(p)
    roots = _rational_roots_oracle(square_free)
    in_range = [r for r in roots if 0 < r <= t_max]
    first_rational = min(in_range) if in_range else None
    remainder = square_free
    for r in roots:
        remainder, rest = divmod(remainder, UniPoly((-r, 1)))
        assert rest.is_zero()
    upper = first_rational if first_rational is not None else t_max
    if remainder.degree >= 1 and count_roots_between(remainder, 0, upper) > 0:
        raise NotRepresentableError("irrational")
    return first_rational


def test_rational_roots_extraction():
    p = UniPoly((Fraction(1, 2), 1)) * UniPoly((-3, 1)) * UniPoly((1, 0, 1))
    assert _rational_roots_oracle(p) == [-Fraction(1, 2), 3]
    assert _rational_roots_oracle(UniPoly((0, 0, 1))) == [0]


def test_sturm_counts_known_roots():
    p = UniPoly((-1, 1)) * UniPoly((-2, 1)) * UniPoly((-3, 1))
    assert count_roots_between(p, 0, 4) == 3
    assert count_roots_between(p, Fraction(1, 2), Fraction(5, 2)) == 2
    assert count_roots_between(p, 4, 10) == 0
    _, chain = _squarefree_and_chain(p.primitive().coeffs)
    assert len(chain[0]) == 4 and len(chain[-1]) == 1


nonzero_rationals = rationals.filter(lambda r: r != 0)
# Fraction coefficients, leads of either sign
coefficient_lists = st.tuples(st.lists(rationals, max_size=3), nonzero_rationals).map(
    lambda pair: UniPoly(pair[0] + [pair[1]]))


@given(coefficient_lists, coefficient_lists, coefficient_lists,
       st.integers(1, 3), nonzero_rationals, rationals, rationals)
@settings(max_examples=300, deadline=None)
def test_integer_remainder_sequences_match_divmod(f, g, h, power, scale, a, b):
    shared = f ** power * g * scale  # repeated roots and a nontrivial gcd
    other = f * h
    for p in (f, g, shared, other):
        assert p.primitive().coeffs == _primitive_by_fractions(p).coeffs
        if p.degree < 1:
            continue
        s, chain = _squarefree_and_chain(p.primitive().coeffs)
        square_free = _squarefree_by_divmod(p)
        assert s == square_free.coeffs
        assert chain == [q.coeffs for q in _sturm_chain_by_divmod(square_free)]
        lo, hi = min(a, b), max(a, b)
        if p.eval(lo) != 0 and p.eval(hi) != 0:
            # the chain of s counts the distinct roots that p's own chain counts
            polys = [UniPoly(q) for q in chain]
            found = (_sign_changes([q.eval(lo) for q in polys])
                     - _sign_changes([q.eval(hi) for q in polys]))
            assert found == count_roots_between(p, lo, hi)
    for x, y in ((shared, other), (other, shared), (f, g), (g * scale, -g),
                 (UniPoly((2,)), UniPoly((4,)))):
        gcd_ints = _remainder_sequence(x.primitive().coeffs, y.primitive().coeffs)[-1]
        if gcd_ints[-1] < 0:
            gcd_ints = tuple(-c for c in gcd_ints)
        assert gcd_ints == _gcd_by_divmod(x, y).coeffs


# --------------------------------------------------- first_nonpositive --


def test_first_nonpositive_trivial_cases():
    assert first_nonpositive(UniPoly((-1,)), 1) == 0
    assert first_nonpositive(UniPoly((1, -2)), 1) == Fraction(1, 2)
    assert first_nonpositive(UniPoly((1,)), 1) is None
    assert first_nonpositive(UniPoly(()), 5) == 0  # zero polynomial
    assert first_nonpositive(UniPoly((3,)), 0) is None
    assert first_nonpositive(UniPoly((0, 1)), 4) == 0


def test_first_nonpositive_result_is_a_root():
    p = UniPoly((1, -2))
    r = first_nonpositive(p, 1)
    assert p.eval(r) == 0


def _assert_isolating_witness(p, t_max, error):
    """``(lower, upper]`` holds exactly one root of ``p``, the first one,
    and is narrower than ``1 / (2 lead^2)``."""
    lower, upper = error.lower, error.upper
    s = _squarefree_by_divmod(p)
    lead = abs(s.coeffs[-1])
    assert 0 <= lower < upper <= t_max
    assert upper - lower < Fraction(1, 2 * lead * lead)
    assert p.eval(lower) > 0
    assert p.eval(upper) <= 0 or s.eval(lower) * s.eval(upper) < 0
    assert p.eval(upper) == 0 or count_roots_between(p, lower, upper) == 1
    assert lower == 0 or count_roots_between(p, 0, lower) == 0


def test_first_nonpositive_irrational_cases():
    with pytest.raises(NotRepresentableError):
        first_nonpositive(UniPoly((2, 0, -1)), 2)  # 2 - t^2, first dip at sqrt(2)
    # same polynomial but the interval stops before sqrt(2)
    assert first_nonpositive(UniPoly((2, 0, -1)), 1) is None
    # rational root before the irrational one
    p = UniPoly((1, -2)) * UniPoly((2, 0, -1))
    assert first_nonpositive(p, 2) == Fraction(1, 2)
    # irrational root before the rational one
    p = UniPoly((2, 0, -1)) * UniPoly((3, -1))
    with pytest.raises(NotRepresentableError):
        first_nonpositive(p, 3)
    # the witness isolates the root: tangencies included
    for p, t_max in [
        (UniPoly((2, 0, -1)), 2),
        (UniPoly((2, 0, -1)) * UniPoly((3, -1)), 3),
        (UniPoly((2, 0, -1)) ** 2, 2),
        (UniPoly((Fraction(1, 3), 0, -Fraction(1, 7))), 5),
    ]:
        with pytest.raises(NotRepresentableError) as info:
            first_nonpositive(p, t_max)
        _assert_isolating_witness(p, t_max, info.value)


def test_first_nonpositive_tangencies():
    # touches zero without crossing: the touch point is still the infimum
    p = UniPoly((-Fraction(1, 3), 1)) ** 2
    assert first_nonpositive(p, 1) == Fraction(1, 3)
    # irrational tangency
    p = UniPoly((2, 0, -1)) ** 2
    with pytest.raises(NotRepresentableError):
        first_nonpositive(p, 2)
    assert first_nonpositive(p, 1) is None


def test_first_nonpositive_root_at_endpoint():
    p = UniPoly((1, -1))  # root exactly at t_max
    assert first_nonpositive(p, 1) == 1


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
        p = UniPoly(((-1) ** m,))
        for r in roots:
            p = p * UniPoly((-r, 1))
        if rng.random() < 0.4:  # extra factor positive on the whole line
            p = p * UniPoly((rng.randint(1, 5), 0, 1))
        t_max = Fraction(rng.randint(1, 50), rng.randint(1, 6))
        assert p.eval(0) > 0
        in_range = [r for r in roots if r <= t_max]
        expected = min(in_range) if in_range else None
        assert first_nonpositive(p, t_max) == expected


linear_factors = small_rationals.map(lambda r: UniPoly((-r, 1)))
# (t - a)^2 - k with k not a square: roots a +- sqrt(k), both irrational
irrational_quadratics = st.builds(
    lambda a, k: UniPoly((a * a - k, -2 * a, 1)),
    small_rationals, st.sampled_from([2, 3, 5, 6, 7, 8, 10]),
)
factors = st.tuples(
    st.one_of(linear_factors, irrational_quadratics), st.integers(1, 2)
).map(lambda pair: pair[0] ** pair[1])


@given(st.lists(factors, min_size=1, max_size=4),
       st.fractions(min_value=0, max_value=8, max_denominator=6).map(Fraction))
@settings(max_examples=300, deadline=None)
def test_first_nonpositive_agrees_with_root_extraction(product, t_max):
    p = UniPoly((1,))
    for factor in product:
        p = p * factor
    if p.eval(0) < 0:
        p = -p  # a search that starts below zero ends at once
    try:
        expected = _first_nonpositive_oracle(p, t_max)
    except NotRepresentableError:
        with pytest.raises(NotRepresentableError) as info:
            first_nonpositive(p, t_max)
        _assert_isolating_witness(p, t_max, info.value)
        return
    assert first_nonpositive(p, t_max) == expected


@pytest.mark.parametrize("m", [10**8 + 7, 2**61 - 1])
def test_first_nonpositive_large_bit_sizes(m):
    """Roots near ``m``: trial division of the coefficients would take
    about ``m`` steps, the bisection about ``log2(m)``."""
    irrational = UniPoly((m * m - 1, 0, -1))  # first zero sqrt(m^2 - 1)
    with pytest.raises(NotRepresentableError) as info:
        first_nonpositive(irrational, 2 * m)
    _assert_isolating_witness(irrational, 2 * m, info.value)
    assert first_nonpositive(UniPoly((m * m, 0, -1)), 2 * m) == m
    product = irrational * UniPoly((m, -3))
    assert first_nonpositive(product, 2 * m) == Fraction(m, 3)


def test_first_nonpositive_root_with_64_bit_denominator():
    q = 2**64 - 59  # prime
    root = Fraction(q + 12345, q)
    p = UniPoly((root.numerator, -q)) * UniPoly((2, 0, -1))  # sqrt(2) > root
    assert first_nonpositive(p, 2) == root
    # first zero sqrt(numerator^2 + 1) / q: irrational, within 2^-128 of root
    near = UniPoly((root.numerator ** 2 + 1, 0, -q * q))
    with pytest.raises(NotRepresentableError) as info:
        first_nonpositive(near, 2)
    _assert_isolating_witness(near, 2, info.value)


def _bracket_oracle(p, t_max, grid=128, refine=40):
    """Grid scan with bisection refinement around the first sign change."""
    if p.eval(0) <= 0:
        return "at_zero", Fraction(0), Fraction(0)
    previous = Fraction(0)
    for j in range(1, grid + 1):
        t = t_max * Fraction(j, grid)
        if p.eval(t) <= 0:
            lo, hi = previous, t
            for _ in range(refine):
                mid = (lo + hi) / 2
                if p.eval(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            return "bracket", lo, hi
        previous = t
    return "none", None, None


def test_first_nonpositive_agrees_with_grid_oracle():
    rng = random.Random(7)
    checked = 0
    while checked < 220:
        degree = rng.randint(1, 4)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                  for _ in range(degree + 1)]
        p = UniPoly(coeffs)
        if p.is_zero():
            continue
        t_max = Fraction(rng.randint(1, 30), rng.randint(1, 5))
        checked += 1
        try:
            result = first_nonpositive(p, t_max)
        except NotRepresentableError:
            # the oracle's bracket (if any) pins the infimum to an interval;
            # the constructed-instance tests cover the rationality verdict
            status, lo, hi = _bracket_oracle(p, t_max)
            if status == "bracket":
                assert p.eval(lo) > 0 and p.eval(hi) <= 0
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
                assert p.eval(result * Fraction(j, 24)) > 0


def _first_nonpositive_by_fraction_bisection(p, t_max):
    """The line search as it was before the integer bisection: the same
    algorithm with ``Fraction`` midpoints, the rational remainder chains
    above and ``UniPoly.eval``.  Results and witnesses must match it."""
    t_max = as_rational(t_max)
    if p.eval(0) <= 0:
        return 0
    if t_max == 0 or p.degree == 0:
        return None
    s = _squarefree_by_divmod(p)
    chain = _sturm_chain_by_divmod(s)

    def variations(t):
        return _sign_changes([q.eval(t) for q in chain])

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
    lead = abs(s.coeffs[-1])
    width = Fraction(1, 2 * lead * lead)
    positive_at_lo = s.eval(lo) > 0
    while hi - lo >= width:
        mid = (lo + hi) / 2
        value = s.eval(mid)
        if value != 0 and (value > 0) == positive_at_lo:
            lo = mid
        else:
            hi = mid
    candidate = ((lo + hi) / 2).limit_denominator(lead)
    if lo < candidate <= hi and s.eval(candidate) == 0:
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
            first_nonpositive(p, t_max)
        for got, want in ((info.value.lower, error.lower), (info.value.upper, error.upper)):
            assert got == want and type(got) is type(want)
        return
    result = first_nonpositive(p, t_max)
    assert result == expected and type(result) is type(expected)


# (t - a)^2 - k: two irrational roots for k > 0 not a rational square, none for k < 0
irreducible_quadratics = st.builds(
    lambda a, k: UniPoly((a * a - k, -2 * a, 1)),
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
    p = UniPoly((scale,))
    for factor in product:
        p = p * factor
    _assert_same_as_fraction_bisection(p, t_max)
    _assert_same_as_fraction_bisection(-p, t_max)


@pytest.mark.parametrize("m", [10**8 + 7, 2**61 - 1])
def test_first_nonpositive_matches_fraction_bisection_large_bit_sizes(m):
    irrational = UniPoly((m * m - 1, 0, -1))
    for p, t_max in ((irrational, 2 * m), (UniPoly((m * m, 0, -1)), 2 * m),
                     (irrational * UniPoly((m, -3)), 2 * m),
                     (irrational * UniPoly((m, -3)), Fraction(2 * m + 1, 3))):
        _assert_same_as_fraction_bisection(p, t_max)


def test_first_nonpositive_matches_fraction_bisection_64_bit_denominator():
    q = 2**64 - 59
    root = Fraction(q + 12345, q)
    for p in (UniPoly((root.numerator, -q)) * UniPoly((2, 0, -1)),
              UniPoly((root.numerator ** 2 + 1, 0, -q * q))):
        for t_max in (2, Fraction(2 * q + 1, q)):
            _assert_same_as_fraction_bisection(p, t_max)


def _linear(c0, c1):
    return UniPoly((c0, c1))


def test_first_nonpositive_grid_root_with_reduced_denominator():
    # lead 6, first root 1/2: its denominator is a proper divisor of lead
    p = -(_linear(-1, 2) * _linear(-5, 3) * _linear(-4, 1))
    for t_max in (1, Fraction(5, 3), 5, Fraction(5, 11)):
        _assert_same_as_fraction_bisection(p, t_max)
    assert first_nonpositive(p, 5) == Fraction(1, 2)
    assert first_nonpositive(p, Fraction(5, 11)) is None


def test_first_nonpositive_grid_root_at_hi_and_at_t_max():
    # 3/4 is a dyadic point of [0, 1]: the bisection ends with it as hi
    p = -(_linear(-3, 4) * _linear(2, 1) * _linear(1, 5))
    assert first_nonpositive(p, 1) == Fraction(3, 4)
    # the same root as t_max: the first interval already ends on it
    assert first_nonpositive(p, Fraction(3, 4)) == Fraction(3, 4)
    # an integer root at t_max, with lead 1 and lead 7
    assert first_nonpositive(_linear(3, -1) * _linear(1, 1), 3) == 3
    assert first_nonpositive(_linear(6, -2) * _linear(1, 7), 3) == 3
    for q, t_max in ((p, 1), (p, Fraction(3, 4)), (p, Fraction(3, 2)),
                     (_linear(6, -2) * _linear(1, 7), 3)):
        _assert_same_as_fraction_bisection(q, t_max)


def test_first_nonpositive_non_squarefree_rational_root():
    p = _linear(-1, 3) ** 2 * _linear(2, -1)  # touches 0 at 1/3, crosses at 2
    for t_max in (1, Fraction(1, 3), 3, Fraction(13, 7)):
        _assert_same_as_fraction_bisection(p, t_max)
    assert first_nonpositive(p, 3) == Fraction(1, 3)
    assert first_nonpositive(p, Fraction(1, 4)) is None


def test_first_nonpositive_degree_one():
    for p, t_max, root in ((_linear(5, -7), 1, Fraction(5, 7)),
                           (_linear(5, -7), Fraction(5, 7), Fraction(5, 7)),
                           (_linear(Fraction(3, 2), -Fraction(1, 4)), 9, 6),
                           (_linear(12, -5), 2, None)):
        assert first_nonpositive(p, t_max) == root
        _assert_same_as_fraction_bisection(p, t_max)


@pytest.mark.parametrize("lead_root, k", [(7, 3), (1000, 1), (2**40 + 15, 5)])
def test_first_nonpositive_irrational_root_next_to_a_grid_point(lead_root, k):
    # sqrt(L^2 k^2 + 1) / L is within 1 / (2 L^2 k) = 1 / (2 lead k) of the
    # grid point k; the witness must still be narrower than 1 / (2 lead^2)
    p = UniPoly((lead_root * lead_root * k * k + 1, 0, -lead_root * lead_root))
    with pytest.raises(NotRepresentableError) as info:
        first_nonpositive(p, k + 1)
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
    square_free = -(_linear(-1, 2) * _linear(-5, 3) * _linear(-4, 1))
    repeated = _linear(-1, 3) ** 2 * _linear(2, -1)
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
    (-(_linear(-1, 2) * _linear(-5, 3) * _linear(-4, 1)), 5, Fraction(1, 2)),
    (-(_linear(-999_999, 1_000_003) * _linear(2, 1) * _linear(3, 1)), 1,
     Fraction(999_999, 1_000_003)),
    (_linear(-7, 2**31 - 1) * _linear(-8, 2**31 - 1) * _linear(1, 1), Fraction(9, 7),
     Fraction(7, 2**31 - 1)),
    (_linear(-1, 3) ** 2 * _linear(2, -1), 3, Fraction(1, 3)),
])
def test_first_nonpositive_refines_a_rational_root_only_to_the_grid(monkeypatch, p, t_max, root):
    """Past isolation, a rational root costs at most one evaluation per
    halving down to width ``1 / lead`` plus two, counted without a clock."""
    s = _squarefree_by_divmod(p)
    lead = abs(s.coeffs[-1])
    chain_length = len(_sturm_chain_by_divmod(s))
    counts = _counting(monkeypatch, "_dyadic_value", "sign_variations")
    assert first_nonpositive(p, t_max) == root
    points = counts["sign_variations"]  # 0, t_max, one per isolation step
    refinement = counts["_dyadic_value"] - chain_length * points
    assert refinement <= (points - 2) + _ceil_log2(t_max * lead) + 2


# ----------------------------------------------------------- MultiPoly --


def x(n, k):
    return MultiPoly.variable(n, k)


def test_multi_arith_cancellation_and_products():
    one_var = x(1, 1)
    assert (one_var + -one_var).is_zero()
    sq = one_var * one_var
    assert sq.terms == {(2,): 1}
    lhs = (1 - 2 * x(2, 1)) * x(2, 2)
    expected = x(2, 2) - 2 * (x(2, 1) * x(2, 2))
    assert lhs == expected
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
    terms = data.draw(st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * n), small_rationals, max_size=5))
    p = MultiPoly(n, terms)
    point = tuple(data.draw(small_rationals) for _ in range(n))
    k = data.draw(st.integers(1, n))
    seeded = tuple(
        DualNumber(point[i], 1 if i == k - 1 else 0) for i in range(n)
    )
    # a zero polynomial never touches the seeds and evaluates to plain 0
    dual = DualNumber.lift(p.eval(seeded))
    assert dual.value == p.eval(point)
    assert dual.derivative == p.partial(k).eval(point)


def test_total_degree_conventions():
    assert MultiPoly(3).total_degree == -1
    assert MultiPoly.constant(3, 5).total_degree == 0
    assert (x(3, 1) * x(3, 2) * x(3, 3)).total_degree == 3


def test_json_terms_in_graded_lex_order():
    p = 2 * x(2, 2) + 3 * (x(2, 1) * x(2, 1)) + MultiPoly.constant(2, 7) + x(2, 1)
    exported = p.to_json_dict()
    assert exported["nvars"] == 2
    assert exported["total_degree"] == 2
    assert [t["exponents"] for t in exported["terms"]] == [[2, 0], [1, 0], [0, 1], [0, 0]]
    assert [t["coefficient"] for t in exported["terms"]] == ["3/1", "1/1", "2/1", "7/1"]


def test_multipoly_dimension_mismatch():
    from pivotforge import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        x(2, 1) + x(3, 1)
    with pytest.raises(DimensionMismatchError):
        x(2, 1).eval((1,))
