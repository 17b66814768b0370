from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pivotforge import as_rational, format_rational

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=60
).map(lambda f: Fraction(f))


def test_as_rational_accepts_exact_forms():
    assert as_rational(5) == 5
    assert isinstance(as_rational(Fraction(4, 2)), int)
    assert as_rational(Fraction(3, 7)) == Fraction(3, 7)


def test_as_rational_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        as_rational(True)
    for text_or_pair in ("3/7", (3, 6)):  # parse text with Fraction(text)
        with pytest.raises(TypeError):
            as_rational(text_or_pair)


def test_format_always_carries_denominator():
    assert format_rational(5) == "5/1"
    assert format_rational(Fraction(-3, 9)) == "-1/3"
    assert format_rational(0) == "0/1"
    assert format_rational(-7) == "-7/1"
    assert format_rational(-(10**40) - 3) == "-10000000000000000000000000000000000000003/1"
    assert format_rational(2**70) == "1180591620717411303424/1"
    assert format_rational(True) == "1/1"


@given(st.one_of(rationals, st.integers(min_value=-(10**40), max_value=10**40)))
def test_format_parse_round_trip(q):
    assert Fraction(format_rational(q)) == q
