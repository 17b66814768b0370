"""Exact univariate and sparse multivariate polynomial arithmetic.

Univariate polynomials (:class:`UniPoly`) carry the line-search machinery:
Sturm chains and :func:`first_nonpositive`, which computes
``inf {t in [0, t_max] : p(t) <= 0}`` exactly.  It isolates the leftmost
root by bisection and then tests the one rational that can be that root,
the best approximation with denominator at most the leading coefficient;
no integer is ever factored, so the cost is polynomial in the bit size.
Irrational stopping points are reported as
:class:`~pivotforge.errors.NotRepresentableError` rather than approximated,
because downstream iteration counting depends on stopping points being
stored exactly.

Multivariate polynomials (:class:`MultiPoly`) are sparse maps from dense
exponent vectors to nonzero rational coefficients.  Term order for
serialization is graded lexicographic (descending total degree, then
descending lexicographic on exponent vectors), which makes every exported
artifact byte-deterministic.

Coefficients and evaluation points are exact scalars (``int | Fraction``);
evaluation is generic over any commutative ring whose elements support
``+``, ``-``, ``*`` with ints, so the same code evaluates over rationals,
dual numbers, and polynomial rings.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatchError, NotRepresentableError
from .scalars import Rational, as_rational, format_rational


def _exact_div(a: Rational, b: Rational) -> Rational:
    """Exact division of scalars, staying in ``int`` when it divides evenly."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r == 0:
            return q
    return as_rational(Fraction(a) / Fraction(b))


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
        """Internal constructor for coefficients already known exact."""
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        poly = object.__new__(cls)
        poly.coeffs = tuple(cs)
        return poly

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly(())

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def eval(self, t):
        """Horner evaluation; ``t`` may live in any compatible ring."""
        result = 0
        for c in reversed(self.coeffs):
            result = result * t + c
        return result

    def derivative(self) -> "UniPoly":
        return UniPoly._make(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def _lift(self, other):
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UniPoly((other,))
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        return UniPoly._make(tuple(a[i] + b[i] for i in range(len(b))) + a[len(b):])

    __radd__ = __add__

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

    def __neg__(self):
        return UniPoly._make(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return UniPoly(())
            return UniPoly._make(tuple(c * other for c in self.coeffs))
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return UniPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly._make(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "UniPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are defined")
        result = UniPoly((1,))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other: "UniPoly"):
        """Exact polynomial long division (quotient, remainder)."""
        if not isinstance(other, UniPoly):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        dq = len(rem) - len(div)
        if dq < 0:
            return UniPoly(()), UniPoly(rem)
        quot = [0] * (dq + 1)
        lead = div[-1]
        for k in range(dq, -1, -1):
            c = _exact_div(rem[k + len(div) - 1], lead)
            quot[k] = c
            if c != 0:
                for j, d in enumerate(div):
                    rem[k + j] -= c * d
        return UniPoly(quot), UniPoly(rem)

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)!r})"

    # -- root machinery -------------------------------------------------

    def primitive(self) -> "UniPoly":
        """Scale by a positive rational so coefficients become coprime ints.

        Positive scaling preserves signs everywhere, hence also sign
        variation counts and root locations.
        """
        if not self.coeffs:
            return self
        den_lcm = 1
        for c in self.coeffs:
            if isinstance(c, Fraction):
                den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
        ints = [int(c * den_lcm) for c in self.coeffs]
        g = 0
        for v in ints:
            g = gcd(g, v)
        return UniPoly(tuple(v // g for v in ints))

    def squarefree_part(self) -> "UniPoly":
        """A polynomial with the same roots, all simple (``p / gcd(p, p')``)."""
        if self.degree <= 1:
            return self.primitive()
        g = poly_gcd(self, self.derivative())
        if g.degree == 0:
            return self.primitive()
        q, r = divmod(self, g)
        assert r.is_zero()
        return q.primitive()


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic-free Euclidean gcd, returned primitive with positive lead."""
    a, b = a.primitive(), b.primitive()
    while not b.is_zero():
        _, r = divmod(a, b)
        a, b = b, r.primitive() if not r.is_zero() else r
    if a.is_zero():
        return a
    if a.coeffs[-1] < 0:
        a = -a
    return a


def sturm_chain(p: UniPoly) -> list:
    """The Sturm chain of ``p``: p, p', then negated remainders, each
    rescaled to primitive integer form (a positive scaling, so sign
    variations are unchanged)."""
    if p.is_zero():
        raise ValueError("Sturm chain of the zero polynomial is undefined")
    chain = [p.primitive()]
    d = p.derivative()
    if d.is_zero():
        return chain
    chain.append(d.primitive())
    while True:
        _, r = divmod(chain[-2], chain[-1])
        if r.is_zero():
            return chain
        chain.append((-r).primitive())


def sign_variations(values: Sequence) -> int:
    """Count sign alternations in a sequence, ignoring zeros."""
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for i in range(len(signs) - 1) if signs[i] != signs[i + 1])


def count_roots_between(p: UniPoly, a, b) -> int:
    """Number of distinct real roots of ``p`` in the open interval (a, b).

    Requires ``p(a) != 0`` and ``p(b) != 0``; ``p`` need not be squarefree
    (the Sturm chain counts distinct roots regardless).
    """
    if p.eval(a) == 0 or p.eval(b) == 0:
        raise ValueError("endpoints must not be roots")
    if a >= b:
        return 0
    chain = sturm_chain(p)
    va = sign_variations([q.eval(a) for q in chain])
    vb = sign_variations([q.eval(b) for q in chain])
    return va - vb


def first_nonpositive(p: UniPoly, t_max) -> Optional[Rational]:
    """Smallest ``t`` in ``[0, t_max]`` with ``p(t) <= 0``, exactly.

    Returns ``None`` when ``p > 0`` on the whole interval.  When the
    infimum exists but is irrational (the leftmost root of ``p`` in the
    interval has no rational value), raises
    :class:`~pivotforge.errors.NotRepresentableError` instead of rounding;
    its ``lower``/``upper`` are the final isolating interval.

    The computation is exact throughout.  With ``s`` the square-free part
    of ``p``, the sign variations ``V`` of its Sturm chain satisfy
    ``V(a) - V(b) = #roots of s in (a, b]``.  Bisection keeps no root in
    ``(0, lo]`` and at least one in ``(lo, hi]`` until the interval holds
    exactly one root and is narrower than ``1 / (2 lead^2)``, ``lead``
    being the leading coefficient of the primitive integer ``s``.  A
    rational root of ``s`` has a denominator dividing ``lead``, and two
    such rationals are at least ``1 / lead^2`` apart, so the only
    candidate is the best approximation to the midpoint with denominator
    at most ``lead``; exact evaluation accepts or rejects it.
    """
    t_max = as_rational(t_max)
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    if p.eval(0) <= 0:
        return 0
    if t_max == 0 or p.degree == 0:
        return None  # positive constants never dip; intervals of width 0 are done
    # p(0) > 0, so the infimum (if any) is the leftmost root in (0, t_max].
    s = p.squarefree_part()
    chain = sturm_chain(s)

    def variations(t):
        return sign_variations([q.eval(t) for q in chain])

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
    # (lo, hi] holds exactly one root, a simple one: s changes sign there.
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


def uni_eval(p: UniPoly, t) -> Rational:
    """Exact value ``p(t)`` for a rational argument."""
    return as_rational(p.eval(as_rational(t)))


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
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars)

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

    def is_zero(self) -> bool:
        return not self.terms

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

    def __pow__(self, exponent: int) -> "MultiPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are defined")
        result = MultiPoly.constant(self.nvars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.nvars == o.nvars and self.terms == o.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def eval(self, point: Sequence):
        """Evaluate at a point whose entries live in any compatible ring.

        Per-variable power tables keep the number of ring multiplications
        linear in the largest exponent rather than in the term count.
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
        for exps, coeff in sorted(self.terms.items()):
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

    def to_json_dict(self) -> dict:
        """JSON-ready form: graded-lex term list with ``"p/q"`` coefficients."""
        return {
            "nvars": self.nvars,
            "total_degree": self.total_degree,
            "terms": [
                {"exponents": list(exps), "coefficient": format_rational(coeff)}
                for exps, coeff in self.sorted_terms()
            ],
        }

    def __repr__(self):
        if not self.terms:
            return f"MultiPoly({self.nvars}, 0)"
        bits = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps)
                if e
            )
            bits.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        return f"MultiPoly({self.nvars}, {' + '.join(bits)})"


def multi_eval(p: MultiPoly, point: Sequence):
    """Exact value of ``p`` at ``point``.

    For rational entries the result is rational; dual-number entries
    propagate a directional derivative alongside the value.
    """
    value = p.eval(point)
    if isinstance(value, (int, Fraction)):
        return as_rational(value)
    return value
