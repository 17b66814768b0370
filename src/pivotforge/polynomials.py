"""The edge-restriction polynomial type, the exact line search, and sparse
multivariate polynomials.

:class:`UniPoly` is the type of an oracle's edge restriction: its exact
rational coefficients, indexed by power, and nothing more; it has no
arithmetic of its own.  The line search, :func:`first_nonpositive`,
computes ``inf {t in [0, t_max] : p(t) <= 0}`` exactly.  Square-free
parts, gcds and Sturm chains are its private integer helpers, not entry
points of their own.  The search isolates the leftmost root by
bisection, narrows it below ``1 / lead`` (``lead`` the leading
coefficient of the primitive square-free part) and then tests the one
point of the grid ``(1/lead)ℤ`` there, which holds every rational root;
no integer is ever factored, so the cost is polynomial in the bit size.
From the primitive square-free part onward the search runs on ``int``:
one loop of integer pseudo-remainders (``|lead(b)|^(δ+1) · a mod b``, a
positive multiple of the remainder, made primitive again) gives both the
gcd and, for a square-free ``p``, the Sturm chain, and the bisection
visits only the dyadic points ``t_max · a / 2^k``, where each chain
polynomial's sign is the sign of an integer homogenized Horner sum.  One
point costs one interpreted pass: the sign changes of the whole chain are
counted in one loop that runs each sum inline, and past isolation each
halving is one inline sum of the square-free part.  Irrational stopping
points are reported as :class:`~pivotforge.errors.NotRepresentableError`
rather than approximated, because downstream iteration counting depends
on stopping points being stored exactly.

Multivariate polynomials (:class:`MultiPoly`) are sparse maps from dense
exponent vectors to nonzero rational coefficients.  Term order for
serialization is graded lexicographic (descending total degree, then
descending lexicographic on exponent vectors), which makes every exported
artifact byte-deterministic.

Coefficients and evaluation points are exact scalars (``int | Fraction``);
evaluation is generic over any commutative ring whose elements support
``+``, ``-``, ``*`` with ints, so the same code evaluates over rationals
and over polynomial rings.  ``eval`` returns the ring element as
the arithmetic leaves it (an integral value may be a ``Fraction``);
callers that store a rational canonicalize it with ``as_rational``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatchError, NotRepresentableError
from .scalars import Rational, as_rational, format_rational


class UniPoly:
    """A univariate polynomial with exact rational coefficients.

    Coefficients are indexed by power of the variable; the leading
    coefficient is nonzero unless the polynomial is identically zero
    (stored as the empty coefficient tuple, degree -1).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _make(cls, coeffs) -> "UniPoly":
        """Internal constructor for a sequence of coefficients already known
        exact."""
        end = len(coeffs)
        while end and coeffs[end - 1] == 0:
            end -= 1
        poly = object.__new__(cls)
        poly.coeffs = tuple(coeffs[:end])
        return poly

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def primitive(self) -> "UniPoly":
        """Scale by a positive rational so coefficients become coprime ints.

        Positive scaling preserves signs everywhere, hence also sign
        variation counts and root locations.
        """
        if not self.coeffs:
            return self
        den_lcm = lcm(*(c.denominator for c in self.coeffs))
        return UniPoly._make(_primitive_ints(
            [c.numerator * (den_lcm // c.denominator) for c in self.coeffs]))


def _primitive_ints(cs) -> tuple:
    """Integer coefficients divided by their gcd (a positive scaling)."""
    g = gcd(*cs)
    if g <= 1:
        return tuple(cs)
    return tuple(c // g for c in cs)


def _pseudo_remainder(a, b) -> tuple:
    """``|lead(b)|^(δ+1) · a mod b`` for integer coefficient sequences,
    ``δ = deg a - deg b``: a positive multiple of the remainder of ``a``
    by ``b``, computed without leaving ``int``."""
    rem = list(a)
    top = len(b) - 1
    lead = b[-1]
    scale = abs(lead)
    sign = 1 if lead > 0 else -1
    for k in range(len(rem) - len(b), -1, -1):
        c = sign * rem.pop()
        rem = [scale * v for v in rem]
        for j in range(top):
            rem[k + j] -= c * b[j]
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(rem)


def _exact_quotient(a, b) -> list:
    """``a / b`` for integer coefficient sequences when ``b`` divides ``a``
    over the integers; ``RuntimeError`` when it does not, which would
    mean the gcd it divides by is wrong."""
    rem = list(a)
    top = len(b) - 1
    lead = b[-1]
    quot = [0] * (len(a) - top)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = rem[k + top] // lead
        for j in range(top + 1):
            rem[k + j] -= c * b[j]
    if any(rem):
        raise RuntimeError(f"{list(b)} does not divide {list(a)} over the integers")
    return quot


def _remainder_sequence(a, b) -> list:
    """``[a, b, r_1, r_2, ...]`` for integer coefficient sequences ``a`` and
    nonzero ``b``: each ``r_i`` is the pseudo-remainder
    ``|lead(b)|^(δ+1) · a mod b`` of the two entries before it (a positive
    multiple of the true remainder), negated and made primitive, and the
    sequence ends before the first zero remainder.  This is the primitive
    pseudo-remainder sequence of Collins 1967; no ``Fraction`` is formed."""
    seq = [a, b]
    while True:
        r = _pseudo_remainder(seq[-2], seq[-1])
        if not r:
            return seq
        seq.append(_primitive_ints([-c for c in r]))


def _squarefree_and_chain(p) -> tuple:
    """``(s, chain)`` for the primitive integer coefficients ``p`` of a
    polynomial of degree at least 1: ``s`` is its primitive square-free
    part ``p / gcd(p, p')`` and ``chain`` the Sturm chain of ``s``, both
    from the integer remainder sequence.

    The sequence of ``p`` and ``p'`` ends in their gcd.  When that is a
    constant, ``p`` is square-free and the sequence is already its Sturm
    chain; only otherwise is a second sequence run, from ``s`` and ``s'``.
    """
    sequence = _remainder_sequence(p, _primitive_ints(_derivative_ints(p)))
    g = sequence[-1]
    if len(g) == 1:
        return p, sequence
    if g[-1] < 0:
        g = tuple(-c for c in g)
    s = _primitive_ints(_exact_quotient(p, g))
    return s, _remainder_sequence(s, _primitive_ints(_derivative_ints(s)))


def _derivative_ints(cs) -> tuple:
    """Coefficients of the derivative of the polynomial with coefficients
    ``cs``."""
    return tuple(i * c for i, c in enumerate(cs) if i)


def _scaled_from_top(cs, num: int, den: int) -> tuple:
    """Coefficients of ``den^d · q(num/den · u)`` for ``q`` of degree ``d``,
    highest power first, the order homogenized Horner reads them in."""
    d = len(cs) - 1
    out = []
    num_power = 1
    for i, c in enumerate(cs):
        out.append(c * num_power * den ** (d - i))
        num_power *= num
    return tuple(reversed(out))


def _variations_at(chain, a: int, k: int) -> int:
    """Sign variations of the scaled chain (:func:`_scaled_from_top`) at
    ``u = a / 2^k``, zeros skipped, in one pass.

    Each polynomial's value is the homogenized Horner sum ``2^(k d) ·
    q(a / 2^k)``, a positive multiple of ``q(a / 2^k)``, in integers; each
    nonzero value's sign is compared with the last nonzero one's."""
    count = 0
    last = 0
    for cs in chain:
        value = 0
        shift = 0
        for c in cs:
            value = value * a + (c << shift)
            shift += k
        if value > 0:
            if last < 0:
                count += 1
            last = 1
        elif value < 0:
            if last > 0:
                count += 1
            last = -1
    return count


def _grid_value(cs, m: int, lead: int) -> int:
    """``lead^d · q(m / lead)`` by homogenized Horner: a positive multiple
    of ``q(m / lead)``, in integers."""
    value = 0
    power = 1
    for c in reversed(cs):
        value = value * m + c * power
        power *= lead
    return value


def _narrow(s_top, a: int, k: int, width_bound: int, den: int) -> tuple:
    """Bisect the interval ``(a, k)`` of :func:`first_nonpositive`, which
    holds exactly one root of ``s`` and a sign change, until
    ``width_bound < den·2^k``; returns the final ``(a, k)``.

    ``s_top`` is ``s`` scaled by :func:`_scaled_from_top` and oriented
    positive at ``lo``, so a midpoint becomes ``lo`` exactly when its
    value is positive; at a zero it becomes ``hi``, which keeps the root
    in ``(lo, hi]``.  The last level, the least ``k`` with
    ``den·2^k > width_bound``, is fixed up front; each halving is one
    inline homogenized Horner sum."""
    for k in range(k + 1, (width_bound // den).bit_length() + 1):
        a *= 2
        mid = a + 1
        value = 0
        shift = 0
        for c in s_top:
            value = value * mid + (c << shift)
            shift += k
        if value > 0:
            a = mid
    return a, k


def first_nonpositive(p: UniPoly, t_max) -> Optional[Rational]:
    """Smallest ``t`` in ``[0, t_max]`` with ``p(t) <= 0``, exactly.

    Returns ``None`` when ``p > 0`` on the whole interval.  When the
    infimum exists but is irrational (the leftmost root of ``p`` in the
    interval has no rational value), raises
    :class:`~pivotforge.errors.NotRepresentableError` instead of rounding;
    its ``lower``/``upper`` are the final isolating interval.

    The computation is exact throughout.  With ``s`` the square-free part
    of ``p``, the sign variations ``V`` of its Sturm chain satisfy
    ``V(a) - V(b) = #roots of s in (a, b]``.  One integer remainder
    sequence, of ``p`` and ``p'``, gives both: when it ends in a constant
    ``p`` is square-free and the sequence is the chain; only a repeated
    root costs a second sequence, from ``s`` (:func:`_squarefree_and_chain`).
    Bisection keeps no root in ``(0, lo]`` and at least one in
    ``(lo, hi]`` until the interval holds exactly one root, then halves
    it further, following the sign change of ``s``, until it is narrower
    than ``1 / lead``, ``lead`` being the leading coefficient of the
    primitive integer ``s``.  A rational root of ``s`` has a denominator
    dividing ``lead`` (the rational root theorem), so it lies on the grid
    ``(1/lead)ℤ``, and an interval that narrow holds at most one grid
    point ``m / lead``, ``m = floor(lead·hi)``.  The root is rational iff
    that point lies in ``(lo, hi]`` and ``s`` vanishes there, which the
    integer ``lead^d · s(m / lead)`` decides.  Otherwise the root is
    irrational, and the bisection goes on to a witness narrower than
    ``1 / (2 lead^2)`` before raising.  No integer is ever factored.

    The bisection runs on integers.  With ``t_max = num / den`` every point
    it visits is ``t = num·a / (den·2^k)``, and the interval is kept as
    ``(a, k)``: ``lo = num·a / (den·2^k)``, ``hi = num·(a+1) / (den·2^k)``.
    Each chain polynomial ``q`` of degree ``d`` is evaluated there as the
    homogenized ``Σ c_i (num·a)^i (den·2^k)^(d-i)``, which has the sign of
    ``q(t)``; the ``num`` and ``den`` powers are folded into the
    coefficients once, highest power first, leaving one multiplication,
    one shift and one addition per coefficient.  An isolation point is one
    call of :func:`_variations_at`, which runs the sums of the whole chain
    and counts their sign changes in one pass.  Past isolation ``s`` has
    the sign of ``s(0)`` at ``lo``, as ``(0, lo]`` holds no root, so each
    halving of :func:`_narrow` is one sum of ``s`` and no evaluation is
    spent on ``lo``.  The width tests ``hi - lo < 1 / lead`` and
    ``hi - lo < 1 / (2 lead^2)`` are ``lead·num < den·2^k`` and
    ``2·lead^2·num < den·2^k``, so each narrowing's last level is known
    before it starts.  Only the result and the witness are built as
    ``Fraction``.
    """
    t_max = as_rational(t_max)
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    coeffs = p.coeffs
    if not coeffs or coeffs[0].numerator <= 0:
        return 0  # p(0) <= 0, read off its numerator (see ``scalars``)
    if len(coeffs) == 1 or t_max == 0:
        return None  # positive constants never dip; intervals of width 0 are done
    # p(0) > 0, so the infimum (if any) is the leftmost root in (0, t_max].
    s, sequence = _squarefree_and_chain(p.primitive().coeffs)
    num, den = t_max.numerator, t_max.denominator
    chain = [_scaled_from_top(q, num, den) for q in sequence]
    a, k = 0, 0
    v_zero, v_hi = _variations_at(chain, 0, 0), _variations_at(chain, 1, 0)
    if v_hi == v_zero:
        return None
    while v_zero - v_hi > 1:
        a, k = 2 * a, k + 1
        v_mid = _variations_at(chain, a + 1, k)
        if v_mid < v_zero:
            v_hi = v_mid
        else:
            a += 1
    # (lo, hi] holds exactly one root, a simple one: s changes sign there.
    # (0, lo] holds none and s(0) != 0, so s has the sign of s(0) at lo.
    lead = abs(s[-1])
    scaled = lead * num
    s_top = chain[0] if s[0] > 0 else tuple(-c for c in chain[0])
    a, k = _narrow(s_top, a, k, scaled, den)
    # hi - lo < 1 / lead: the grid point m / lead is the one rational candidate.
    m = scaled * (a + 1) // (den << k)
    if m * (den << k) > scaled * a and _grid_value(s, m, lead) == 0:
        return as_rational(Fraction(m, lead))
    a, k = _narrow(s_top, a, k, 2 * lead * scaled, den)
    raise NotRepresentableError(
        "leftmost zero of the restriction is irrational",
        lower=as_rational(Fraction(num * a, den << k)),
        upper=as_rational(Fraction(num * (a + 1), den << k)),
    )


class MultiPoly:
    """A sparse multivariate polynomial over exact rationals.

    ``terms`` maps dense exponent tuples (length ``nvars``) to nonzero
    coefficients; zero coefficients are never stored.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = nvars
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars or any(e < 0 or not isinstance(e, int) for e in exps):
                raise ValueError(f"bad exponent vector {exps!r}")
            coeff = as_rational(coeff)
            if coeff != 0:
                clean[exps] = coeff
        self.terms = clean

    @staticmethod
    def constant(nvars: int, c) -> "MultiPoly":
        return MultiPoly(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars: int, index: int) -> "MultiPoly":
        """The monomial for variable ``index`` (1-based)."""
        if not 1 <= index <= nvars:
            raise DimensionMismatchError(f"variable {index} out of range 1..{nvars}")
        exps = tuple(1 if i == index - 1 else 0 for i in range(nvars))
        return MultiPoly(nvars, {exps: 1})

    @property
    def total_degree(self) -> int:
        """Maximum exponent sum over terms; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def _check(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise DimensionMismatchError(
                f"variable counts differ: {self.nvars} vs {other.nvars}"
            )

    def _lift(self, other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(self.nvars, other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        self._check(o)
        out = dict(self.terms)
        for exps, c in o.terms.items():
            s = out.get(exps, 0) + c
            if s == 0:
                out.pop(exps, None)
            else:
                out[exps] = s
        result = MultiPoly(self.nvars)
        result.terms = out
        return result

    __radd__ = __add__

    def __neg__(self):
        result = MultiPoly(self.nvars)
        result.terms = {e: -c for e, c in self.terms.items()}
        return result

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return MultiPoly(self.nvars)
            result = MultiPoly(self.nvars)
            result.terms = {e: c * other for e, c in self.terms.items()}
            return result
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        result = MultiPoly(self.nvars)
        result.terms = out
        return result

    __rmul__ = __mul__

    def eval(self, point: Sequence):
        """Evaluate at a point whose entries live in any compatible ring.

        Per-variable power tables keep the number of ring multiplications
        linear in the largest exponent rather than in the term count.  The
        terms are summed in storage order: the arithmetic is exact and the
        ring commutative, so the order cannot change the result.
        """
        if len(point) != self.nvars:
            raise DimensionMismatchError(
                f"point length {len(point)} != nvars {self.nvars}"
            )
        max_exp = [0] * self.nvars
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e > max_exp[i]:
                    max_exp[i] = e
        powers = []
        for i, m in enumerate(max_exp):
            table = [1]
            for _ in range(m):
                table.append(table[-1] * point[i])
            powers.append(table)
        total = 0
        for exps, coeff in self.terms.items():
            term = coeff
            for i, e in enumerate(exps):
                if e:
                    term = term * powers[i][e]
            total = total + term
        return total

    def partial(self, index: int) -> "MultiPoly":
        """Symbolic partial derivative with respect to variable ``index`` (1-based)."""
        if not 1 <= index <= self.nvars:
            raise DimensionMismatchError(f"variable {index} out of range 1..{self.nvars}")
        i = index - 1
        out = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            new = exps[:i] + (e - 1,) + exps[i + 1:]
            s = out.get(new, 0) + coeff * e
            if s == 0:
                out.pop(new, None)
            else:
                out[new] = s
        result = MultiPoly(self.nvars)
        result.terms = out
        return result

    def sorted_terms(self) -> list:
        """Terms in graded-lex order: descending total degree, then
        descending lexicographic exponent vectors."""
        return sorted(
            self.terms.items(),
            key=lambda item: (-sum(item[0]), tuple(-e for e in item[0])),
        )


def term_json(exps: Sequence[int], coeff: Rational) -> str:
    """A term in at least one variable as ``json.dumps(..., indent=2,
    sort_keys=True)`` lays out ``{"coefficient": "p/q", "exponents": [...]}``
    in a top-level list."""
    return (f'    {{\n      "coefficient": "{format_rational(coeff)}",\n'
            '      "exponents": [\n        ' + ",\n        ".join(map(str, exps)) + "\n      ]\n    }")
