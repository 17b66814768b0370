"""Objective oracles over box programs.

An objective oracle exposes three views of a continuously differentiable
function: exact values, exact gradients, and the exact univariate
restriction of the directional derivative along an axis direction,

    g(mu) = grad f(x + mu*d)^T d,

which the engine's line search consumes.  Everything is computed in exact
rational arithmetic; there is no floating point anywhere.

The centerpiece is :class:`LowerBoundPolynomial`, a family of degree-n
polynomials built from two coupled recursions.  On the vertices of the
unit cube its values are exactly the integers ``0 .. 2^n - 1``, each
attained once, and every non-optimal vertex has a unique improving edge;
optimizing it over the cube forces vertex-walking methods through all
``2^n`` vertices.  The recursions:

    a_{n+1}(x) = 0
    a_i(x)     = x_i + (1 - 2 x_i) a_{i+1}(x)
    b_i(x)     = 2^i (x_i - x_i^2)(1 - x_{i-1} + sum_{j<=i-2} x_j),  x_0 := 1

    F_n(x) = sum_{i=1..n} (2^{i-1} a_i(x) - b_i(x))

``b_1`` is identically zero by the ``x_0 := 1`` convention, and every
``b_i`` vanishes on {0,1}^n, so vertex values are binary numbers with
digits ``a_i``.

The value recursion is generic over the scalar ring.  The tests run it
over ``MultiPoly``, the reference for :func:`lower_bound_terms`, and
over sympy's polynomial rings, where they also differentiate it:
derivative and edge-restriction routes that share no code with the
oracle's.  The oracle differentiates the recursion by
hand.  At a vertex given as ``int`` 0/1 coordinates, which is every
iterate of a walk from a vertex, one O(n) forward sweep over the vertex
closed form of every partial (:func:`_vertex_sweep`, with ``a_{k+1} =
a_k XOR x_k``) yields the value and the gradient together
(``value_and_gradient``; ``gradient`` is its second half), and ``verify
gradient`` checks that sweep against the forward-mode partial in every
coordinate at every vertex.  At every other point, ``Fraction`` vertices
included, the reply is the recursion's value and the n
forward-mode partials, O(n^2); no command reaches that route.  ``F``
is multilinear except for the ``(x_k - x_k^2)`` factor of ``b_k``, so it is
at most quadratic in each coordinate, and ``d^2 F / d x_k^2 = 2^{k+1} s_k``
is constant along an axis edge, where ``s_k = 1 - x_{k-1} + sum_{j<=k-2}
x_j`` is the last factor of ``b_k``.  The restriction along ``d = +-e_k``
is therefore the affine

    g(mu) = +-dF/dx_k(x) + mu * 2^{k+1} * s_k,

whose constant term ``+-dF/dx_k(x) = grad F(x)^T d`` the engine already
holds from the pass's gradient and hands over as ``slope``.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import combinations
from typing import Optional, Protocol, Sequence, runtime_checkable

from .boxes import AxisDirection, Point, as_point, require_length
from .errors import DimensionMismatchError
from .polynomials import MultiPoly, UniPoly
from .scalars import Rational, as_rational


def _evaluate_value(coords: Sequence):
    """One pass of the defining recursion, generic over the scalar ring."""
    n = len(coords)
    alphas = [0] * n  # alphas[i-1] holds a_i; a_{n+1} = 0
    acc = 0
    for i in range(n - 1, -1, -1):
        acc = coords[i] + (1 - 2 * coords[i]) * acc
        alphas[i] = acc
    total = 0
    prefix = 0  # sum_{j <= i-2} x_j, maintained incrementally
    prev = 1    # x_{i-1}, with x_0 := 1
    for i in range(1, n + 1):
        xi = coords[i - 1]
        w = xi - xi * xi
        total = total + (1 << (i - 1)) * alphas[i - 1] - (1 << i) * w * (1 - prev + prefix)
        if i >= 2:
            prefix = prefix + prev
        prev = xi
    return total


def _s_k(coords: Sequence, k: int):
    """``s_k = 1 - x_{k-1} + sum_{j<=k-2} x_j``, the factor that ``b_k``
    multiplies ``x_k - x_k^2`` by; ``x_0 := 1`` makes ``s_1 = 0``."""
    if k < 2:
        return 0
    s_k = 1 - coords[k - 2]
    for j in range(k - 2):
        s_k += coords[j]
    return s_k


def _partial_forward(coords: Sequence, k: int):
    """Forward-mode derivative of the recursion with respect to ``x_k``.

    The dual components are carried in locals rather than boxed pairs; the
    propagation rules are identical to dual-number arithmetic.  ``a_i`` has
    zero derivative for ``i > k`` (it reads only ``x_j`` with ``j >= i``),
    so the value-only suffix sweep comes first and the derivative turns on
    at ``i = k``.  For the second recursion only the terms ``i >= k`` see
    ``x_k``: the ``i = k`` term through its quadratic factor, the
    ``i = k+1`` term through ``-x_k``, and later terms through the prefix
    sum.
    """
    n = len(coords)
    a = 0
    for i in range(n - 1, k - 1, -1):
        xi = coords[i]
        a = xi + (1 - 2 * xi) * a
    xk = coords[k - 1]
    da = 1 - 2 * a
    acc = (1 << (k - 1)) * da
    for i in range(k - 2, -1, -1):
        xi = coords[i]
        da = (1 - 2 * xi) * da
        acc += (1 << i) * da
    db = (1 << k) * (1 - 2 * xk) * _s_k(coords, k)
    if k < n:
        xj = coords[k]
        db -= (1 << (k + 1)) * (xj - xj * xj)
    for i in range(k + 2, n + 1):
        xj = coords[i - 1]
        w = xj - xj * xj
        if w != 0:
            db += (1 << i) * w
    return acc - db


_BITS = frozenset((0, 1))


def _is_int_vertex(x: Sequence) -> bool:
    """Is every coordinate of ``x`` an ``int`` 0 or 1 (``bool`` included)?
    Other scalars that equal 0 or 1 (``Fraction(1)``, ``1.0``) are not:
    any one of them makes the sum of the coordinates a ``Fraction`` or a
    ``float``."""
    return type(sum(x)) is int and _BITS.issuperset(x)


def _vertex_sweep(bits: Sequence, powers: Sequence) -> tuple:
    """``(value, grad)`` at a vertex whose coordinates are ``int`` 0 or 1,
    in one forward sweep; ``powers[i]`` is ``2^i`` for ``i <= n``.

    Every ``b_i`` vanishes on the vertices, and ``a_i`` is the parity of
    ``x_i .. x_n``, so ``a_1 = parity(x)``, ``a_{k+1} = a_k ^ x_k`` and the
    value is ``sum_k 2^{k-1} a_k``.  The partial in coordinate k has the
    vertex closed form ``(1 - 2 a_{k+1}) T_k - 2^k (1 - 2 x_k) s_k``, where
    ``T_k = sum_{i<=k} 2^{i-1} prod_{i<=j<k} (1 - 2 x_j)`` and ``s_k = 1 -
    x_{k-1} + sum_{j<=k-2} x_j`` (``x_0 := 1``), here by the prefix
    recurrences ``T_1 = 1``, ``T_{k+1} = (1 - 2 x_k) T_k + 2^k``,
    ``s_1 = 0``, ``s_2 = 1 - x_1`` and ``s_{k+1} = s_k + 2 x_{k-1} - x_k``
    for ``k >= 2``; every factor ``1 - 2 (.)`` is a sign, so it picks a
    branch instead of multiplying.
    """
    a = sum(bits) & 1  # a_1
    value = 0
    grad = []
    t = 1           # T_k
    s = 0           # s_k
    twice_prev = 1  # 2 x_{k-1}, except 1 at k = 1 so that s_2 = 1 - x_1
    for p, q, xk in zip(powers, powers[1:], bits):  # p = 2^{k-1}, q = 2^k
        if a:
            value += p
        a ^= xk  # a_{k+1}
        g = -t if a else t
        if xk:
            grad.append(g + q * s)
            t = q - t
        else:
            grad.append(g - q * s)
            t += q
        s += twice_prev - xk
        twice_prev = xk + xk
    return value, tuple(grad)


@runtime_checkable
class ObjectiveOracle(Protocol):
    """What the engine needs from an objective: exact values, exact
    gradients, and exact edge restrictions.  All operations are pure.
    ``value_and_gradient(x)`` equals ``(value(x), gradient(x))``; the
    engine makes one such call per pass.  An oracle may answer
    ``gradient`` as the second half of ``value_and_gradient``, or keep it
    as an independent route (:class:`MultiPolyObjective` does).

    ``edge_restriction(x, d, slope)`` takes the directional derivative
    ``slope`` when the caller already has it; ``slope``, when given, must
    equal ``grad f(x)^T d`` (the restriction's value at 0), and the reply
    equals that of ``edge_restriction(x, d)``.  ``slope=None`` is the
    reference path that derives everything from ``x`` and ``d``."""

    n: int

    def value(self, x: Point) -> Rational: ...

    def gradient(self, x: Point) -> tuple: ...

    def value_and_gradient(self, x: Point) -> tuple: ...

    def edge_restriction(self, x: Point, d: AxisDirection,
                         slope: Optional[Rational] = None) -> UniPoly: ...


class LowerBoundPolynomial:
    """The degree-n objective family defined by the module recursions.

    ``value_and_gradient`` gives the value and the gradient together, and
    ``gradient`` is its second half.  When every coordinate is an ``int``
    0 or 1 it is the forward vertex sweep, one O(n) pass; at every other
    point it is ``value`` and the n ``partial`` replies, O(n^2).  The
    choice is made from the point alone, and both give the same exact
    replies at a vertex.  ``value`` runs the defining recursion itself,
    and ``partial`` differentiates one coordinate in forward mode.  An
    edge restriction is the affine polynomial of the module docstring:
    the directional derivative at ``x`` (the caller's ``slope``, or else
    the forward-mode partial) and the constant second derivative along
    the edge.  Nothing is cached: every reply is computed afresh; the
    only table is ``2^i`` for ``i <= n + 1``, a constant of the oracle.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("dimension must be at least 1")
        self.n = n
        self._powers = tuple(1 << i for i in range(n + 2))

    def value(self, x: Point) -> Rational:
        require_length(x, self.n)
        return as_rational(_evaluate_value(x))

    def partial(self, x: Point, k: int) -> Rational:
        """The k-th partial derivative at any point (not just vertices)."""
        require_length(x, self.n)
        if not 1 <= k <= self.n:
            raise ValueError(f"coordinate k={k} out of range 1..{self.n}")
        return as_rational(_partial_forward(x, k))

    def gradient(self, x: Point) -> tuple:
        return self.value_and_gradient(x)[1]

    def value_and_gradient(self, x: Point) -> tuple:
        require_length(x, self.n)
        if _is_int_vertex(x):
            return _vertex_sweep(x, self._powers)
        return (as_rational(_evaluate_value(x)),
                tuple(as_rational(_partial_forward(x, k)) for k in range(1, self.n + 1)))

    def edge_restriction(self, x: Point, d: AxisDirection,
                         slope: Optional[Rational] = None) -> UniPoly:
        """``g(mu) = grad F(x + mu*d)^T d``; ``slope``, when given, is
        ``grad F(x)^T d`` and spares the forward-mode partial."""
        require_length(x, self.n)
        k = d.coord
        if slope is None:
            slope = d.sign * _partial_forward(x, k)
        curvature = self._powers[k + 1] * _s_k(x, k)  # d^2F/dx_k^2
        if type(slope) is not int or type(curvature) is not int:  # off the vertices
            slope, curvature = as_rational(slope), as_rational(curvature)
        return UniPoly._make((slope, curvature))


def lower_bound_terms(n: int):
    """F_n's terms ``(exponents, coefficient)`` in the order of
    :meth:`MultiPoly.sorted_terms`, from their closed form.  ``a_i`` is the
    parity of ``x_i .. x_n``, so ``sum_i 2^{i-1} a_i`` gives each nonempty
    set S of variables, least index m, the term ``(2^m - 1)(-2)^{|S|-1}
    x^S``; the ``b_i`` add terms of degree at most 3.  ``combinations``
    yields the larger sets in order; the O(n^3) terms of degree at most 3
    are summed and sorted in memory."""
    def parity_terms(size: int):
        sign = (-2) ** (size - 1)
        for subset in combinations(range(n), size):
            exps = [0] * n
            for j in subset:
                exps[j] = 1
            yield tuple(exps), ((2 << subset[0]) - 1) * sign

    for size in range(n, 3, -1):
        yield from parity_terms(size)
    xs = [MultiPoly.variable(n, j) for j in range(1, n + 1)]
    low = MultiPoly(n, dict(term for size in (1, 2, 3) for term in parity_terms(size)))
    for i, xi in enumerate(xs, start=1):
        low = low - (1 << i) * (xi - xi * xi) * _s_k(xs, i)  # - b_i
    yield from low.sorted_terms()


class LinearObjective:
    """The linear objective ``c^T x``: constant gradient, degree-0 edge
    restrictions."""

    def __init__(self, c: Sequence):
        self.c = as_point(c)
        if not self.c:
            raise ValueError("coefficient vector must be nonempty")
        self.n = len(self.c)
        # c = numerators / denominator, so that the value at an integral point
        # (every vertex of a walk on the unit cube) is one integer dot product
        self._denominator = den = math.lcm(*(ci.denominator for ci in self.c))
        self._numerators = tuple(ci.numerator * (den // ci.denominator) for ci in self.c)

    def value(self, x: Point) -> Rational:
        require_length(x, self.n)
        total = sum(map(operator.mul, self._numerators, x))
        return as_rational(Fraction(total, self._denominator))

    def gradient(self, x: Point) -> tuple:
        require_length(x, self.n)
        return self.c

    def value_and_gradient(self, x: Point) -> tuple:
        return self.value(x), self.c

    def edge_restriction(self, x: Point, d: AxisDirection,
                         slope: Optional[Rational] = None) -> UniPoly:
        """The constant ``c^T d``, which is ``slope`` when given."""
        require_length(x, self.n)
        return UniPoly._make((self.c[d.coord - 1] * d.sign if slope is None
                              else as_rational(slope),))


class PaddedObjective:
    """An oracle on ``n`` dimensions that reads only the first ``inner.n``
    coordinates; the extra dimensions never affect values or gradients."""

    def __init__(self, inner, n: int):
        if n < inner.n:
            raise DimensionMismatchError(
                f"cannot pad a {inner.n}-dimensional objective into {n} dimensions"
            )
        self.inner = inner
        self.n = n

    def value(self, x: Point) -> Rational:
        require_length(x, self.n)
        return self.inner.value(tuple(x[: self.inner.n]))

    def gradient(self, x: Point) -> tuple:
        return self.value_and_gradient(x)[1]

    def value_and_gradient(self, x: Point) -> tuple:
        require_length(x, self.n)
        value, head = self.inner.value_and_gradient(tuple(x[: self.inner.n]))
        return value, head + (0,) * (self.n - self.inner.n)

    def edge_restriction(self, x: Point, d: AxisDirection,
                         slope: Optional[Rational] = None) -> UniPoly:
        """The inner restriction, handed ``slope``, on the head
        coordinates; zero on the tail."""
        require_length(x, self.n)
        if d.coord <= self.inner.n:
            return self.inner.edge_restriction(tuple(x[: self.inner.n]), d, slope)
        return UniPoly(())


def _parts(v) -> tuple:
    """``(p, q)`` with ``v = p/q`` and ``q > 0`` for an exact scalar ``v``;
    floats and everything else that is not ``int`` or ``Fraction`` raise
    ``TypeError``."""
    if type(v) is int:
        return v, 1
    if isinstance(v, Fraction):
        return v.numerator, v.denominator
    raise TypeError(f"refusing {v!r}; use an int or a Fraction")


def _quotient(num: int, den: int) -> Rational:
    """``num / den`` (``den > 0``) as a canonical exact scalar."""
    if den == 1:
        return num
    return as_rational(Fraction(num, den))


def _power_tables(x: Sequence, degrees: Sequence) -> list:
    """Per coordinate ``x_i = p/q`` of degree ``D``, the integers
    ``p^e q^(D-e)`` for ``e = 0..D``: the powers ``x_i^e`` over the common
    denominator ``q^D``, which is entry 0."""
    tables = []
    for xi, degree in zip(x, degrees):
        p, q = _parts(xi)
        table = [1]
        for _ in range(degree):
            table.append(table[-1] * p)
        if q != 1:
            q_power = 1
            for e in range(degree, -1, -1):
                table[e] *= q_power
                q_power *= q
        tables.append(table)
    return tables


class MultiPolyObjective:
    """Oracle view of an explicit multivariate polynomial.

    The oracle's own replies are integer computations over one common
    denominator.  With ``L`` the lcm of the coefficients' denominators,
    each term is kept as the integer ``L·c`` and its exponent vector, and
    ``D_i`` is the largest exponent of variable ``i``.  At a point with
    ``x_i = p_i/q_i`` a monomial ``prod x_i^e_i`` is
    ``prod p_i^e_i q_i^(D_i - e_i)`` over ``prod q_i^D_i``, and so is its
    derivative in any variable (the lowered exponent stays within
    ``D_i``).  ``value_and_gradient`` therefore sums integers over the
    one denominator ``L·prod q_i^D_i`` and builds one ``Fraction`` per
    returned component.  ``edge_restriction`` groups the terms by their
    exponent of the edge's coordinate and expands them along the edge by
    an integer Taylor shift.  ``value`` (generic ``MultiPoly.eval``) and
    ``gradient`` (symbolic partials of ``poly``, taken per call) are the
    independent reference.  Used for running the engine on arbitrary
    polynomial objectives and as an independent implementation for
    cross-checks.
    """

    def __init__(self, poly: MultiPoly):
        self.poly = poly
        self.n = poly.nvars
        if self.n < 1:
            raise ValueError("objective needs at least one variable")
        self._scale = math.lcm(*(c.denominator for c in poly.terms.values()))
        self._terms = tuple((c.numerator * (self._scale // c.denominator), exps)
                            for exps, c in poly.terms.items())
        self._degrees = tuple(max((exps[i] for exps in poly.terms), default=0)
                              for i in range(self.n))

    def value(self, x: Point) -> Rational:
        require_length(x, self.n)
        return as_rational(self.poly.eval(x))

    def gradient(self, x: Point) -> tuple:
        require_length(x, self.n)
        return tuple(as_rational(self.poly.partial(k).eval(x))
                     for k in range(1, self.n + 1))

    def value_and_gradient(self, x: Point) -> tuple:
        require_length(x, self.n)
        tables = _power_tables(x, self._degrees)
        value = 0
        grad = [0] * self.n
        for coeff, exps in self._terms:
            factors = list(map(list.__getitem__, tables, exps))
            value += coeff * math.prod(factors)
            for k, e in enumerate(exps):
                if e:  # d/dx_k lowers x_k's exponent
                    kept = factors[k]
                    factors[k] = tables[k][e - 1]
                    grad[k] += coeff * e * math.prod(factors)
                    factors[k] = kept
        den = self._scale * math.prod(table[0] for table in tables)
        return _quotient(value, den), tuple(_quotient(g, den) for g in grad)

    def edge_restriction(self, x: Point, d: AxisDirection,
                         slope: Optional[Rational] = None) -> UniPoly:
        """``g(mu) = grad f(x + mu*d)^T d``, the derivative of
        ``h(mu) = f(x + mu*d)``; ``slope`` is accepted for the protocol and
        not used, so this stays a route independent of the other oracles.

        With ``k = d.coord``, the terms grouped by their exponent ``e`` of
        ``x_k`` sum to integers ``B_e`` over ``L·prod_{i!=k} q_i^D_i``.
        With ``x_k = p/q``, the coordinate along the edge is
        ``(α + β·mu)/γ`` with ``α = p``, ``β = ±q`` (the direction's sign)
        and ``γ = q``, so ``h`` is ``P(α + β·mu)`` over ``γ^D_k`` times
        that denominator, where ``P(z) = sum_e B_e γ^(D_k-e) z^e``.  ``P`` is
        shifted by ``α`` with Horner's Taylor shift, in integers (von zur
        Gathen & Gerhard 1997); the coefficient of ``mu^j`` is then the
        shifted ``P_j·β^j``.  The shifted ``P_0`` is the constant of ``h``,
        which the derivative drops, and no other coefficient reads ``B_0``,
        so the terms without ``x_k`` are skipped.
        """
        require_length(x, self.n)
        k = d.coord - 1
        degree = self._degrees[k]
        p, q = _parts(x[k])
        tables = _power_tables(x, self._degrees[:k] + (0,) + self._degrees[k + 1:])
        tables[k] = [1] * (degree + 1)  # x_k's powers come from the shift
        grouped = [0] * (degree + 1)  # B_0 is constant along the edge: left out
        for coeff, exps in self._terms:
            e = exps[k]
            if e:
                grouped[e] += coeff * math.prod(map(list.__getitem__, tables, exps))
        alpha, beta, gamma = p, q * d.sign, q
        gamma_powers = [1]
        for _ in range(degree):
            gamma_powers.append(gamma_powers[-1] * gamma)
        shifted = [b * gamma_powers[degree - e] for e, b in enumerate(grouped)]
        for i in range(degree):  # P(z) -> P(z + α)
            for j in range(degree - 1, i - 1, -1):
                shifted[j] += alpha * shifted[j + 1]
        den = self._scale * math.prod(table[0] for table in tables) * gamma_powers[degree]
        coeffs = []
        beta_power = 1
        for j in range(1, degree + 1):  # h'(mu): j P_j β^j mu^(j-1)
            beta_power *= beta
            coeffs.append(_quotient(j * shifted[j] * beta_power, den))
        return UniPoly._make(coeffs)
