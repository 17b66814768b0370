"""Exact rational scalars and first-order dual numbers.

Every numeric quantity in this package is an exact rational.  The working
representation is the union ``int | fractions.Fraction``: integral values
are kept as plain ``int`` (arithmetic on them is an order of magnitude
faster, and the hot inner loops of the engine run entirely on vertices
with integral coordinates), while non-integral values are ``Fraction``.
Python's numeric tower guarantees that equal values of the two types
compare and hash identically, so the mixed representation is transparent.

Floats are rejected everywhere: no rounding happens anywhere in the
package.  :func:`as_rational` takes only ``int`` and ``Fraction``;
:func:`format_rational` writes the ``"p/q"`` text of output files, which
``fractions.Fraction`` parses back.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


def as_rational(value) -> Rational:
    """Coerce an ``int`` or ``Fraction`` to the canonical exact-scalar
    representation: fractions with denominator 1 collapse to ``int``.
    Everything else, floats and bools included, is rejected; a ``"p/q"``
    string written by :func:`format_rational` is read back with
    ``Fraction(text)``.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}; use int or Fraction")
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_rational(value: Rational) -> str:
    """Serialize an exact scalar as the canonical ``"p/q"`` string.

    The denominator is always written, in lowest terms with positive
    denominator (``5`` becomes ``"5/1"``), so output files never contain
    floats and never depend on incidental integrality.
    """
    if type(value) is int:  # the common case; bool takes the general path
        return f"{value}/1"
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


class DualNumber:
    """A pair (value, derivative) with exact forward-mode arithmetic.

    Multiplication obeys the product rule exactly:
    ``(a, a')(b, b') = (ab, ab' + a'b)``.  Components may be any scalars
    from a commutative ring implementing ``+``, ``-``, ``*`` with plain
    ints (rationals, univariate polynomials, ...), which is what lets the
    same code differentiate a recursion whether its scalars are numbers
    or polynomials.
    """

    __slots__ = ("value", "derivative")

    def __init__(self, value, derivative=0):
        self.value = value
        self.derivative = derivative

    @staticmethod
    def lift(other):
        """View a plain ring element as a constant (zero derivative)."""
        if isinstance(other, DualNumber):
            return other
        return DualNumber(other, 0)

    def __add__(self, other):
        other = DualNumber.lift(other)
        return DualNumber(self.value + other.value, self.derivative + other.derivative)

    __radd__ = __add__

    def __sub__(self, other):
        other = DualNumber.lift(other)
        return DualNumber(self.value - other.value, self.derivative - other.derivative)

    def __rsub__(self, other):
        other = DualNumber.lift(other)
        return DualNumber(other.value - self.value, other.derivative - self.derivative)

    def __mul__(self, other):
        other = DualNumber.lift(other)
        return DualNumber(
            self.value * other.value,
            self.value * other.derivative + self.derivative * other.value,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return DualNumber(-self.value, -self.derivative)

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are defined")
        result = DualNumber.lift(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        other = DualNumber.lift(other)
        return self.value == other.value and self.derivative == other.derivative

    def __hash__(self):
        return hash((self.value, self.derivative))

    def __repr__(self):
        return f"DualNumber({self.value!r}, {self.derivative!r})"
