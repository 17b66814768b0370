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

Directions are the unit axis directions ``+-e_k``: a step of length
``mu`` moves one coordinate by ``mu``, so the step to an edge's far end
is the edge's length.  Points are plain tuples of exact scalars.  All
operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import DimensionMismatchError, InfeasiblePointError, NotAVertexError
from .scalars import Rational, as_rational

Point = tuple


@dataclass(frozen=True)
class AxisDirection:
    """The unit axis direction ``sign * e_coord``, with 1-based ``coord``
    and ``sign`` +1 or -1."""

    coord: int
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"direction sign must be +1 or -1, got {self.sign!r}")


def as_point(coords: Sequence) -> Point:
    return tuple(as_rational(c) for c in coords)


def require_length(x: Sequence, n: int) -> None:
    """Raise :class:`DimensionMismatchError` unless ``x`` has ``n`` coordinates."""
    if len(x) != n:
        raise DimensionMismatchError(f"point length {len(x)} != n {n}")


@dataclass(frozen=True)
class BoxProgram:
    """The feasible region ``[lower, upper]`` with the row indexing above.

    ``unit_directions[k-1]`` is the pair ``(+e_k, -e_k)`` of unit axis
    directions, built with the box so that the engine offers the same
    objects on every pass."""

    lower: Point
    upper: Point
    unit_directions: tuple = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "unit_directions", tuple(
            (AxisDirection(k, 1), AxisDirection(k, -1)) for k in range(1, self.n + 1)
        ))

    @staticmethod
    def unit_cube(n: int) -> "BoxProgram":
        return BoxProgram((0,) * n, (1,) * n)

    @property
    def n(self) -> int:
        return len(self.lower)

    def eq_set(self, x: Point) -> frozenset:
        """Rows tight at ``x``: row ``i`` iff ``x_i = u_i``, row ``i+n``
        iff ``x_i = l_i``."""
        n = self.n
        require_length(x, n)
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
        return self.vertex_id_or_none(x) is not None

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
        require_length(x, self.n)
        vid = 0
        for i, (lo, c, hi) in enumerate(zip(self.lower, x, self.upper)):
            if c == hi:
                vid |= 1 << i
            elif c != lo:
                return None
        return vid

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
        xk = x[k - 1]
        if not self.lower[k - 1] <= xk <= self.upper[k - 1]:
            raise InfeasiblePointError(f"point {x} violates a bound")
        target = self.upper[k - 1] if d.sign > 0 else self.lower[k - 1]
        if xk == target:
            raise ValueError(f"direction {d} is not feasible at {x}")
        return as_rational((target - xk) * d.sign)

    def move(self, x: Point, d: AxisDirection, mu: Rational) -> Point:
        """The point ``x + mu * d`` (exact, single coordinate update)."""
        k = d.coord - 1
        return x[:k] + (x[k] + mu * d.sign,) + x[k + 1:]


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
