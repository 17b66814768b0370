"""Box feasible regions with explicit 2n-row constraint indexing.

A box ``[l, u] = [l_1, u_1] x ... x [l_n, u_n]`` is encoded as the system
``Cx <= c`` with constraint row ``i`` (for ``i`` in ``1..n``) the upper
bound ``x_i <= u_i`` and row ``i + n`` the negated lower bound
``-x_i <= -l_i``.  Row indices in this 1-based scheme appear verbatim in
active sets, trajectory records, and all exported artifacts.

Vertices are canonically identified by their bit vector (bit ``i-1`` is 1
iff coordinate ``i`` sits at its upper bound) and by the little-endian
integer id of that bit vector; the id convention is part of the public
JSON contract.

Points are plain tuples of exact scalars.  All operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import DimensionMismatchError, InfeasiblePointError, NotAVertexError
from .scalars import Rational, as_rational
from .polynomials import _exact_div

Point = tuple

#: A signed axis direction: ``component * e_coord`` with 1-based ``coord``
#: and nonzero rational ``component``.  The engine uses unit components
#: (+1/-1); full edge vectors carry ``component = +-(u_k - l_k)``.


@dataclass(frozen=True)
class AxisDirection:
    coord: int
    component: Rational

    @property
    def sign(self) -> int:
        return 1 if self.component > 0 else -1

    def row_dot(self, row: int, n: int) -> Rational:
        """Inner product of constraint row ``row`` with this direction."""
        if row <= n:
            return self.component if row == self.coord else 0
        return -self.component if row - n == self.coord else 0


def as_point(coords: Sequence) -> Point:
    return tuple(as_rational(c) for c in coords)


@dataclass(frozen=True)
class BoxProgram:
    """The feasible region ``[lower, upper]`` with the row indexing above."""

    lower: Point
    upper: Point

    def __post_init__(self):
        object.__setattr__(self, "lower", as_point(self.lower))
        object.__setattr__(self, "upper", as_point(self.upper))
        if len(self.lower) != len(self.upper):
            raise DimensionMismatchError("lower and upper bound lengths differ")
        if not self.lower:
            raise ValueError("a box needs at least one coordinate")
        for i, (lo, hi) in enumerate(zip(self.lower, self.upper), start=1):
            if not lo < hi:
                raise ValueError(f"degenerate bounds in coordinate {i}: [{lo}, {hi}]")

    @staticmethod
    def unit_cube(n: int) -> "BoxProgram":
        return BoxProgram((0,) * n, (1,) * n)

    @property
    def n(self) -> int:
        return len(self.lower)

    def is_feasible(self, x: Point) -> bool:
        if len(x) != self.n:
            raise DimensionMismatchError(f"point length {len(x)} != n {self.n}")
        return all(lo <= c <= hi for lo, c, hi in zip(self.lower, x, self.upper))

    def require_feasible(self, x: Point) -> None:
        if not self.is_feasible(x):
            raise InfeasiblePointError(f"point {x} violates a bound")

    def eq_set(self, x: Point) -> frozenset:
        """Rows tight at ``x``: row ``i`` iff ``x_i = u_i``, row ``i+n``
        iff ``x_i = l_i``."""
        n = self.n
        if len(x) != n:
            raise DimensionMismatchError(f"point length {len(x)} != n {n}")
        tight = []
        for i, (lo, c, hi) in enumerate(zip(self.lower, x, self.upper), start=1):
            if c == hi:
                tight.append(i)
            elif not lo <= c < hi:
                raise InfeasiblePointError(f"point {x} violates a bound")
            if c == lo:
                tight.append(i + n)
        return frozenset(tight)

    def is_vertex(self, x: Point) -> bool:
        return self.is_feasible(x) and all(
            c == lo or c == hi for lo, c, hi in zip(self.lower, x, self.upper)
        )

    def vertex_from_bits(self, bits: Sequence[int]) -> Point:
        """The vertex whose coordinate ``i`` is ``lower_i`` for bit 0 and
        ``upper_i`` for bit 1."""
        if len(bits) != self.n:
            raise DimensionMismatchError(f"bit vector length {len(bits)} != n {self.n}")
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"bits must be 0/1, got {tuple(bits)!r}")
        return tuple(
            hi if b else lo for b, lo, hi in zip(bits, self.lower, self.upper)
        )

    def bits_of_vertex(self, x: Point) -> tuple:
        if not self.is_vertex(x):
            raise NotAVertexError(f"{x} is not a vertex of the box")
        return tuple(1 if c == hi else 0 for c, hi in zip(x, self.upper))

    def vertex_id(self, x: Point) -> int:
        return bits_to_id(self.bits_of_vertex(x))

    def vertex_id_or_none(self, x: Point):
        """``vertex_id(x)`` when ``x`` is a vertex, else ``None``, in one
        pass over the coordinates."""
        if len(x) != self.n:
            raise DimensionMismatchError(f"point length {len(x)} != n {self.n}")
        vid = 0
        for i, (lo, c, hi) in enumerate(zip(self.lower, x, self.upper)):
            if c == hi:
                vid |= 1 << i
            elif c != lo:
                return None
        return vid

    def vertex_from_id(self, vid: int) -> Point:
        return self.vertex_from_bits(bits_from_id(vid, self.n))

    def edge_directions(self, x: Point) -> list:
        """The ``n`` full edge vectors at a vertex, as axis directions with
        component ``(u_k - l_k)`` signed away from the tight bound.  Each is
        feasible and orthogonal to exactly ``n - 1`` of the tight rows."""
        bits = self.bits_of_vertex(x)
        return [
            AxisDirection(k, (hi - lo) * (1 - 2 * b))
            for k, (b, lo, hi) in enumerate(zip(bits, self.lower, self.upper), start=1)
        ]

    def step_to_boundary(self, x: Point, d: AxisDirection) -> Rational:
        """Largest feasible step ``mu`` with ``x + mu * d`` still in the box.

        Boxes are bounded, so the step is always finite.  ``d`` must point
        into the box (a direction along a tight bound is not feasible).
        Only the moving coordinate is validated; feasibility of the other
        coordinates is the caller's precondition.
        """
        k = d.coord
        if not 1 <= k <= self.n:
            raise DimensionMismatchError(f"coordinate {k} out of range 1..{self.n}")
        if d.component == 0:
            raise ValueError("direction component must be nonzero")
        xk = x[k - 1]
        if not self.lower[k - 1] <= xk <= self.upper[k - 1]:
            raise InfeasiblePointError(f"point {x} violates a bound")
        target = self.upper[k - 1] if d.component > 0 else self.lower[k - 1]
        if xk == target:
            raise ValueError(f"direction {d} is not feasible at {x}")
        return _exact_div(target - xk, d.component)

    def move(self, x: Point, d: AxisDirection, mu: Rational) -> Point:
        """The point ``x + mu * d`` (exact, single coordinate update)."""
        k = d.coord - 1
        step = mu * d.component
        return x[:k] + (x[k] + step,) + x[k + 1:]

    def vertices(self) -> Iterator[Point]:
        """All ``2^n`` vertices in id order."""
        for vid in range(1 << self.n):
            yield self.vertex_from_bits(bits_from_id(vid, self.n))


def bits_to_id(bits: Sequence[int]) -> int:
    """Little-endian vertex id: bit ``i`` of the id is coordinate ``i + 1``."""
    vid = 0
    for i, b in enumerate(bits):
        if b:
            vid |= 1 << i
    return vid


def bits_from_id(vid: int, n: int) -> tuple:
    if not 0 <= vid < (1 << n):
        raise ValueError(f"vertex id {vid} out of range for n={n}")
    return tuple((vid >> i) & 1 for i in range(n))
