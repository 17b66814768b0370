"""A fixed piece of pure-Python work that times how fast the machine is
running right now.

The benchmark's host is a few virtual cores of a shared machine, and the
other tenants change its speed: the same loop can take 20-40 % longer for
minutes at a time.  A run therefore interleaves :func:`reference` with its
ops and reports every time scaled by ``REFERENCE_S / median(reference)``,
that is, in seconds on a machine where this routine takes
``REFERENCE_S``.  The routine uses none of pivotforge, so no change to
pivotforge moves it; it exercises what pivotforge's ops do (Fraction and
big-integer arithmetic, tuple-keyed dicts, reads scattered over a few MB,
bit operations, JSON text) so that a slow phase of the host slows both
alike.  Each part alone tracks
the ops less well than their sum does.

Do not edit this file: the scaled times of two commits compare only while
the routine and ``REFERENCE_S`` stay the same.
"""

from __future__ import annotations

import json
from fractions import Fraction

#: median of :func:`reference` on a 2-vCPU Intel Xeon VM at 2.1 GHz with
#: CPython 3.11; the unit that scaled times are given in
REFERENCE_S = 0.13


def _records() -> int:
    """Fractions formatted into JSON rows, with a tuple-keyed memo."""
    rows = []
    memo = {}
    acc = Fraction(0)
    for i in range(1500):
        grad = [Fraction(i * j + 1, j + 3) for j in range(6)]
        acc += grad[i % 6] - grad[(i + 1) % 6]
        memo[(i, i & 0xFF, bin(i).count("1"))] = grad
        rows.append({"i": i, "g": [f"{v.numerator}/{v.denominator}" for v in grad]})
    return len(json.dumps(rows)) + len(memo) + acc.denominator


def _scattered() -> int:
    """A dict of 20k entries, a few MB, read back in scattered order."""
    table = {k: (k, k & 0xFF) for k in range(20_000)}
    total, j = 0, 1
    for _ in range(50_000):
        j = (j * 48271) % 2_147_483_647
        total += table[j % 20_000][1]
    return total


def _bits() -> int:
    """Small-integer bit twiddling over a range, as vertex scans do."""
    total = 0
    for v in range(60_000):
        m = v ^ (v >> 1)
        total += (m & 0x5555) - bin(m).count("1")
    return total


def _rationals() -> int:
    """Exact rational sums and products with growing denominators."""
    acc = Fraction(0)
    for i in range(1, 2500):
        acc += Fraction(i, i % 97 + 1) * Fraction(3, i + 2)
    return acc.denominator.bit_length()


def reference() -> int:
    """One sample of fixed work; returns a checksum so nothing is skipped."""
    return _records() + _scattered() + _bits() + _rationals()
