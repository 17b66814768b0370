"""Exact rational scalars and their ``"p/q"`` text.

Every numeric quantity in this package is an exact rational.  The working
representation is the union ``int | fractions.Fraction``: integral values
are kept as plain ``int`` (arithmetic on them is an order of magnitude
faster, and the hot inner loops of the engine run entirely on vertices
with integral coordinates), while non-integral values are ``Fraction``.
Python's numeric tower guarantees that equal values of the two types
compare and hash identically, so the mixed representation is transparent.

An exact scalar's sign is its numerator's sign: an ``int`` is its own
``numerator``, and a ``Fraction`` keeps its denominator positive.  Hot
loops test ``value.numerator > 0`` rather than ``value > 0``, because a
``Fraction`` comparison dispatches through the ``numbers.Rational`` ABC:
on CPython 3.11 (2-vCPU VM) ``f > 0`` takes 0.35-0.65 µs for a
``Fraction`` and 16 ns for an ``int``, while ``f.numerator > 0`` takes
about 0.1 µs and 30 ns.

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

