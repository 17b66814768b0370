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

The value recursion is generic over the scalar ring: rationals give
values and multivariate polynomials give the expanded monomial form, while
dual numbers and univariate polynomials give the independent derivative
and edge-restriction routes that the tests compare the oracle against.
The oracle differentiates the recursion by hand instead.  ``F`` is
multilinear except for the ``(x_k - x_k^2)`` factor of ``b_k``, so it is
at most quadratic in each coordinate, and ``d^2 F / d x_k^2 = 2^{k+1} s_k``
is constant along an axis edge, where ``s_k = 1 - x_{k-1} + sum_{j<=k-2}
x_j`` is the last factor of ``b_k``.  The restriction along ``d = c*e_k``
is therefore the affine

    g(mu) = c * dF/dx_k(x) + mu * c^2 * 2^{k+1} * s_k.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Protocol, Sequence, runtime_checkable

from .boxes import AxisDirection, Point, as_point
from .errors import DimensionMismatchError, NotAVertexError
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


def _adjoint_sweep(coords: Sequence, with_value: bool) -> tuple:
    """All n partial derivatives of the recursion in one O(n) pass, and
    with ``with_value`` the value too: returns ``(value, grad)``, with
    ``value`` None when not asked for, so that a caller that needs only
    the gradient does not pay for it.

    The gradient is the adjoint (reverse-mode) form of the recursion, i.e.
    :func:`partial_closed_form` generalised off the vertices.  The partial
    in coordinate k is

        (1 - 2 a_{k+1}) T_k
        - [2^k (1 - 2 x_k) s_k - 2^{k+1} w_{k+1} + sum_{i>=k+2} 2^i w_i]

    with ``w_i = x_i - x_i^2``, ``s_k = 1 - x_{k-1} + sum_{j<=k-2} x_j``
    (``x_0 := 1``, so ``s_1 = 0``), ``T_1 = 1`` and
    ``T_k = (1 - 2 x_{k-1}) T_{k-1} + 2^{k-1}``.  The first term collects
    ``d a_i / d x_k = (1 - 2 a_{k+1}) prod_{j=i..k-1} (1 - 2 x_j)`` over
    ``i <= k``; the bracket collects the ``b_i`` that read ``x_k``.  A
    suffix sweep yields ``a_k``, ``2^k w_k`` and the ``w`` sums, a prefix
    sweep ``T_k`` and ``s_k``; the value ``sum_k 2^{k-1} a_k - 2^k w_k s_k``
    is summed from the same quantities along the way.
    """
    n = len(coords)
    scale = [0] * n  # scale[k-1] = 1 - 2 a_{k+1}
    tail = [0] * n   # tail[k-1] = sum_{i>=k+2} 2^i w_i - 2^{k+1} w_{k+1}
    weighted = [0] * n if with_value else None  # weighted[k-1] = 2^k w_k
    a = 0
    later = 0        # sum_{i>=k+2} 2^i w_i
    nearest = 0      # 2^{k+1} w_{k+1}
    value = 0 if with_value else None
    for i in range(n - 1, -1, -1):  # coordinate k = i + 1
        scale[i] = 1 - 2 * a
        tail[i] = later - nearest
        xi = coords[i]
        later += nearest
        nearest = (1 << (i + 1)) * (xi - xi * xi)
        a = xi + (1 - 2 * xi) * a
        if with_value:
            weighted[i] = nearest
            value += (1 << i) * a
    grad = []
    t = 1       # T_k
    prefix = 0  # sum_{j<=k-2} x_j
    prev = 1    # x_{k-1}, with x_0 := 1
    for i in range(n):
        xk = coords[i]
        c = 1 - 2 * xk
        s = 1 - prev + prefix
        if with_value and weighted[i]:  # b_k = 2^k w_k s_k vanishes on the vertices
            value -= weighted[i] * s
        grad.append(scale[i] * t - (1 << (i + 1)) * c * s - tail[i])
        if i:
            prefix += prev
        prev = xk
        t = c * t + (1 << (i + 1))
    return value, grad


def alpha(n: int, i: int, x: Sequence) -> Rational:
    """The value ``a_{n,i}(x)`` of the first recursion (``a_{n,n+1} = 0``).

    On {0,1}^n the result is the XOR of the bits ``x_i .. x_n``, hence in
    {0, 1}.
    """
    if not 1 <= i <= n + 1:
        raise ValueError(f"index i={i} out of range 1..{n + 1}")
    if len(x) != n:
        raise DimensionMismatchError(f"point length {len(x)} != n {n}")
    acc = 0
    for j in range(n - 1, i - 2, -1):
        xj = x[j]
        acc = xj + (1 - 2 * xj) * acc
    return as_rational(acc)


def beta(n: int, i: int, x: Sequence) -> Rational:
    """The value ``b_{n,i}(x)`` of the second recursion.

    Zero whenever ``x_i`` is 0 or 1, and identically zero for ``i = 1``
    because of the ``x_0 := 1`` convention.
    """
    if not 1 <= i <= n:
        raise ValueError(f"index i={i} out of range 1..{n}")
    if len(x) != n:
        raise DimensionMismatchError(f"point length {len(x)} != n {n}")
    xi = x[i - 1]
    prev = x[i - 2] if i >= 2 else 1
    s = 1 - prev
    for j in range(i - 2):
        s += x[j]
    return as_rational((1 << i) * (xi - xi * xi) * s)


def f_value(n: int, x: Sequence) -> Rational:
    """The defining sum ``sum_i 2^{i-1} a_i(x) - b_i(x)``, exactly."""
    if len(x) != n:
        raise DimensionMismatchError(f"point length {len(x)} != n {n}")
    return as_rational(_evaluate_value(tuple(x)))


def _require_unit_vertex(x: Sequence) -> tuple:
    coords = tuple(x)
    if any(c != 0 and c != 1 for c in coords):
        raise NotAVertexError(f"{coords} is not a 0/1 vertex")
    return tuple(int(c) for c in coords)


def partial_closed_form(n: int, k: int, x: Sequence) -> Rational:
    """Closed form of the k-th partial derivative on 0/1 vertices:

        (1 - 2 a_{k+1}) * sum_{i=1..k} 2^{i-1} prod_{j=i..k-1} (1 - 2 x_j)
        - 2^k (1 - 2 x_k) (1 - x_{k-1} + sum_{i<=k-2} x_i),   x_0 := 1.

    For ``k = 1`` this collapses to ``1 - 2 a_2``.  The form is only valid
    on vertices; other points are rejected.
    """
    if not 1 <= k <= n:
        raise ValueError(f"coordinate k={k} out of range 1..{n}")
    bits = _require_unit_vertex(x)
    if len(bits) != n:
        raise DimensionMismatchError(f"point length {len(bits)} != n {n}")
    a_next = 0
    for j in range(n - 1, k - 1, -1):
        a_next = bits[j] + (1 - 2 * bits[j]) * a_next
    t = 0  # T_i = sum_{m=1..i} 2^{m-1} prod_{j=m..i-1}(1-2x_j), built forward
    for i in range(1, k + 1):
        if i == 1:
            t = 1
        else:
            t = (1 - 2 * bits[i - 2]) * t + (1 << (i - 1))
    if k >= 2:
        s = 1 - bits[k - 2] + sum(bits[j] for j in range(k - 2))
    else:
        s = 0
    return as_rational((1 - 2 * a_next) * t - (1 << k) * (1 - 2 * bits[k - 1]) * s)


@runtime_checkable
class ObjectiveOracle(Protocol):
    """What the engine needs from an objective: exact values, exact
    gradients, and exact edge restrictions.  All operations are pure.
    ``value_and_gradient(x)`` equals ``(value(x), gradient(x))``; the
    engine makes one such call per pass."""

    n: int

    def value(self, x: Point) -> Rational: ...

    def gradient(self, x: Point) -> tuple: ...

    def value_and_gradient(self, x: Point) -> tuple: ...

    def edge_restriction(self, x: Point, d: AxisDirection) -> UniPoly: ...


def _line_coords(x: Point, d: AxisDirection) -> tuple:
    """Coordinates of ``x + mu*d`` as scalars, with coordinate ``d.coord``
    the degree-1 polynomial ``x_k + component * mu``."""
    k = d.coord - 1
    return x[:k] + (UniPoly((x[k], d.component)),) + x[k + 1:]


class LowerBoundPolynomial:
    """The degree-n objective family defined by the module recursions.

    Gradients come from one O(n) adjoint pass over the recursion, which
    also sums the value for ``value_and_gradient``; ``value`` runs the
    defining recursion itself, and ``partial`` differentiates one
    coordinate in forward mode.  An edge restriction is the affine
    polynomial of the module docstring: the forward-mode partial at ``x``
    and the constant second derivative along the edge.  Nothing is
    cached: every reply is computed afresh.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("dimension must be at least 1")
        self.n = n

    def _check(self, x: Sequence) -> None:
        if len(x) != self.n:
            raise DimensionMismatchError(f"point length {len(x)} != n {self.n}")

    def value(self, x: Point) -> Rational:
        self._check(x)
        return as_rational(_evaluate_value(x))

    def partial(self, x: Point, k: int) -> Rational:
        """The k-th partial derivative at any point (not just vertices)."""
        self._check(x)
        if not 1 <= k <= self.n:
            raise ValueError(f"coordinate k={k} out of range 1..{self.n}")
        return as_rational(_partial_forward(x, k))

    def gradient(self, x: Point) -> tuple:
        self._check(x)
        return tuple(map(as_rational, _adjoint_sweep(x, False)[1]))

    def value_and_gradient(self, x: Point) -> tuple:
        self._check(x)
        value, grad = _adjoint_sweep(x, True)
        return as_rational(value), tuple(map(as_rational, grad))

    def edge_restriction(self, x: Point, d: AxisDirection) -> UniPoly:
        self._check(x)
        k, c = d.coord, d.component
        slope = c * c * (1 << (k + 1)) * _s_k(x, k)  # c^2 d^2F/dx_k^2
        return UniPoly._make((c * _partial_forward(x, k), slope))

    def expand(self) -> MultiPoly:
        """Fully expanded monomial form, obtained by evaluating the
        recursion over the multivariate polynomial ring."""
        variables = tuple(MultiPoly.variable(self.n, j) for j in range(1, self.n + 1))
        result = _evaluate_value(variables)
        if not isinstance(result, MultiPoly):
            result = MultiPoly.constant(self.n, result)
        return result


def expand(n: int) -> MultiPoly:
    """Expanded monomial form of the degree-n family member.

    Total degree is ``n`` for every ``n != 2`` and 3 for ``n = 2``.
    """
    return LowerBoundPolynomial(n).expand()


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
        self._denominator = math.lcm(*(Fraction(ci).denominator for ci in self.c))
        self._numerators = tuple(int(ci * self._denominator) for ci in self.c)

    def _check(self, x: Sequence) -> None:
        if len(x) != self.n:
            raise DimensionMismatchError(f"point length {len(x)} != n {self.n}")

    def value(self, x: Point) -> Rational:
        self._check(x)
        total = sum(ni * xi for ni, xi in zip(self._numerators, x) if xi)
        return as_rational(Fraction(total, self._denominator))

    def gradient(self, x: Point) -> tuple:
        self._check(x)
        return self.c

    def value_and_gradient(self, x: Point) -> tuple:
        return self.value(x), self.c

    def edge_restriction(self, x: Point, d: AxisDirection) -> UniPoly:
        self._check(x)
        return UniPoly((self.c[d.coord - 1] * d.component,))


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

    def _check(self, x: Sequence) -> None:
        if len(x) != self.n:
            raise DimensionMismatchError(f"point length {len(x)} != n {self.n}")

    def value(self, x: Point) -> Rational:
        self._check(x)
        return self.inner.value(tuple(x[: self.inner.n]))

    def gradient(self, x: Point) -> tuple:
        self._check(x)
        head = self.inner.gradient(tuple(x[: self.inner.n]))
        return head + (0,) * (self.n - self.inner.n)

    def value_and_gradient(self, x: Point) -> tuple:
        self._check(x)
        value, head = self.inner.value_and_gradient(tuple(x[: self.inner.n]))
        return value, head + (0,) * (self.n - self.inner.n)

    def edge_restriction(self, x: Point, d: AxisDirection) -> UniPoly:
        self._check(x)
        if d.coord <= self.inner.n:
            return self.inner.edge_restriction(tuple(x[: self.inner.n]), d)
        return UniPoly.zero()


def pad(inner, n: int) -> PaddedObjective:
    """Lift an oracle to ``n >= inner.n`` dimensions by ignoring the tail."""
    return PaddedObjective(inner, n)


class MultiPolyObjective:
    """Oracle view of an explicit multivariate polynomial.

    ``gradient`` evaluates symbolic partial derivatives computed once at
    construction; edge restrictions substitute the parametrized edge and
    differentiate.  Used as an independent implementation for cross-checks
    and for running the engine on arbitrary polynomial objectives.
    ``value_and_gradient``, the engine's call, differentiates each term in
    place instead, in one pass over the terms with one power table per
    variable; ``value`` and ``gradient`` are its reference.
    """

    def __init__(self, poly: MultiPoly):
        self.poly = poly
        self.n = poly.nvars
        if self.n < 1:
            raise ValueError("objective needs at least one variable")
        self._partials = tuple(poly.partial(k) for k in range(1, self.n + 1))
        # each term as its coefficient, its (variable index, exponent) pairs
        # with a nonzero exponent, and coefficient * exponent for each pair
        self._terms = []
        for exps, coeff in sorted(poly.terms.items()):
            factors = tuple((i, e) for i, e in enumerate(exps) if e)
            self._terms.append((coeff, factors, tuple(coeff * e for _, e in factors)))
        self._degrees = [max((exps[i] for exps in poly.terms), default=0)
                         for i in range(self.n)]

    def _check(self, x: Sequence) -> None:
        if len(x) != self.n:
            raise DimensionMismatchError(f"point length {len(x)} != n {self.n}")

    def value(self, x: Point) -> Rational:
        self._check(x)
        return as_rational(self.poly.eval(x))

    def gradient(self, x: Point) -> tuple:
        self._check(x)
        return tuple(as_rational(p.eval(x)) for p in self._partials)

    def value_and_gradient(self, x: Point) -> tuple:
        self._check(x)
        powers = []
        for xi, degree in zip(x, self._degrees):
            table = [1]
            for _ in range(degree):
                table.append(table[-1] * xi)
            powers.append(table)
        value = 0
        grad = [0] * self.n
        for coeff, factors, scaled in self._terms:
            term = coeff
            for i, e in factors:
                term = term * powers[i][e]
            value = value + term
            for (k, _), partial in zip(factors, scaled):  # d/dx_k lowers x_k's exponent
                for i, e in factors:
                    if i == k:
                        e -= 1
                    if e:
                        partial = partial * powers[i][e]
                grad[k] = grad[k] + partial
        return as_rational(value), tuple(map(as_rational, grad))

    def edge_restriction(self, x: Point, d: AxisDirection) -> UniPoly:
        self._check(x)
        restricted = self.poly.eval(_line_coords(tuple(x), d))
        if not isinstance(restricted, UniPoly):
            restricted = UniPoly((restricted,))
        return restricted.derivative()
