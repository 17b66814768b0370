"""Combinatorial analysis of hypercube objectives.

This module certifies, by brute force and by closed form, the vertex
structure that makes the lower-bound objective family hard for vertex
walks: a prefix-product/suffix-parity characterization of the unique
improving dimension at each vertex, the Hamiltonian path those dimensions
generate (the reflected binary Gray code, yielded one vertex id at a
time, so a caller holds only what it keeps), the edge orientation induced
by vertex values, unique-sink and combedness checks, and a sink finder
that needs only ``O(n)`` value queries on decomposable orientations.

An orientation is stored as its outmap alone: one outgoing-coordinate mask
per vertex, ``2^n`` integers in all.  Every check reads those masks.
Combedness in every face's highest free coordinate is decided by an
``O(n * 2^n)`` slice test that does not visit the ``3^n`` faces, and it
implies a unique sink in every face (see
:func:`combed_in_top_dimensions`).  The face scans (:func:`is_uso`,
:func:`sinks_in_face`, :func:`combed_dimension`, :func:`is_decomposable`)
remain for locating a witness face and for combedness in an arbitrary
dimension.

Vertices of the unit cube are handled as 0/1 bit tuples (bit ``k-1`` is
coordinate ``k``) and as little-endian integer ids, matching the id
convention of :mod:`pivotforge.boxes`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .boxes import bits_from_id, bits_to_id
from .errors import AmbiguousImprovementError, TieError
from .objectives import _BITS, LowerBoundPolynomial
from .scalars import Rational

FREE = None  # face pattern entry for an unconstrained coordinate


def improving_dimension(bits: Sequence[int], oracle: LowerBoundPolynomial) -> Optional[int]:
    """The unique coordinate along which the lower-bound objective improves
    at a 0/1 vertex, or ``None`` at the optimal vertex ``e_n``.

    Two independent characterizations are evaluated and cross-checked:

    (i)  gradient signs: ``d_k > 0`` with ``x_k = 0``, or ``d_k < 0`` with
         ``x_k = 1``, read off one ``oracle.gradient`` call;
    (ii) predicates: the suffix parity ``(x_{k+1} + ... + x_n) mod 2``
         equals ``x_k``, and the prefix product
         ``x_{k-1} * prod_{j<=k-2} (1 - x_j)`` with ``x_0 := 1`` is 1 (on
         a vertex: ``k = 1``, or ``x_{k-1} = 1`` and ``x_j = 0`` for all
         ``j <= k-2``), for all ``k`` in one sweep.

    Any disagreement, or more than one qualifying coordinate, raises
    :class:`AmbiguousImprovementError` -- that would falsify the uniqueness
    property this module exists to certify.
    """
    bits = tuple(bits)
    n = len(bits)
    if not _BITS.issuperset(bits):
        raise ValueError(f"{bits!r} is not a 0/1 vertex")
    by_predicates = []
    prefix = 1  # x_{k-1} * prod_{j<=k-2} (1 - x_j), with x_0 := 1
    zeros = 1   # prod of (1 - x_j) over 1 <= j < k
    parity = sum(bits) & 1
    for k, bit in enumerate(bits, start=1):
        parity ^= bit  # (x_{k+1} + ... + x_n) mod 2
        if prefix == 1 and parity == bit:
            by_predicates.append(k)
        prefix = bit * zeros
        zeros *= 1 - bit
    by_gradient = [k for k, dk, bit in zip(range(1, n + 1), oracle.gradient(bits), bits)
                   if (dk < 0 if bit else dk > 0)]
    if by_gradient != by_predicates or len(by_gradient) > 1:
        raise AmbiguousImprovementError(
            f"improving-dimension conditions disagree at {bits}: "
            f"gradient side {by_gradient}, predicate side {by_predicates}",
            vertex=bits,
            gradient_side=by_gradient,
            predicate_side=by_predicates,
        )
    return by_gradient[0] if by_gradient else None


def hamiltonian_path(n: int):
    """Follow the unique improving dimension of the lower-bound objective
    from the all-zeros vertex, yielding each visited vertex id as it is
    reached.

    The walk flips bit ``k`` of the current vertex, where ``k`` is the
    improving dimension, until the optimal vertex ``e_n`` has none.  It
    visits every vertex once, in the reflected binary Gray code ordering;
    a walk longer than ``2^n`` vertices raises
    :class:`AmbiguousImprovementError`.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    oracle = LowerBoundPolynomial(n)
    bits = (0,) * n
    vid = 0
    yield vid
    visited = 1
    while True:
        k = improving_dimension(bits, oracle)
        if k is None:
            return
        bits = bits[: k - 1] + (1 - bits[k - 1],) + bits[k:]
        vid ^= 1 << (k - 1)
        visited += 1
        if visited > (1 << n):
            raise AmbiguousImprovementError(
                "walk exceeded 2^n vertices; a vertex repeated", vertex=bits
            )
        yield vid


def reflected_gray_ids(n: int) -> list:
    """The reflected binary Gray code as vertex ids, by the textbook
    reflect-and-prefix recursion (independent of the walk above)."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    seq = [0, 1]
    for bit in range(1, n):
        seq = seq + [v | (1 << bit) for v in reversed(seq)]
    return seq


@dataclass(frozen=True)
class Face:
    """A face of the hypercube: a pattern over {0, 1, FREE} per coordinate.

    A vertex belongs to the face iff it matches every fixed entry; the
    face's dimension is the number of FREE entries.
    """

    pattern: tuple

    def __post_init__(self):
        if any(p not in (0, 1, FREE) for p in self.pattern):
            raise ValueError(f"bad face pattern {self.pattern!r}")

    @property
    def dimension(self) -> int:
        return sum(1 for p in self.pattern if p is FREE)

    @property
    def free_coords(self) -> tuple:
        return tuple(k for k, p in enumerate(self.pattern, start=1) if p is FREE)

    def free_mask(self) -> int:
        mask = 0
        for k in self.free_coords:
            mask |= 1 << (k - 1)
        return mask

    def base_id(self) -> int:
        vid = 0
        for i, p in enumerate(self.pattern):
            if p == 1:
                vid |= 1 << i
        return vid

    def vertex_ids(self) -> list:
        """All vertex ids in the face (submask enumeration of the free mask)."""
        free = self.free_mask()
        base = self.base_id()
        out = [base | free]
        sub = free
        while sub:
            sub = (sub - 1) & free
            out.append(base | sub)
            if sub == 0:
                break
        return sorted(out) if free else [base]

    def json_pattern(self) -> list:
        return ["*" if p is FREE else p for p in self.pattern]


def faces(n: int, min_dimension: int = 0):
    """All ``3^n`` faces (optionally only those of at least a dimension)."""
    for pattern in itertools.product((0, 1, FREE), repeat=n):
        face = Face(pattern)
        if face.dimension >= min_dimension:
            yield face


class Orientation:
    """A direction for every edge of the n-cube, stored as its outmap: one
    mask per vertex whose bit ``k-1`` is set when the coordinate-``k`` edge
    leaves that vertex.
    """

    def __init__(self, n: int, outgoing: Sequence[int]):
        """``outgoing[vid]`` is the outgoing mask of vertex ``vid``; every
        edge must leave exactly one of its two endpoints."""
        masks = list(outgoing)
        size = 1 << n
        if len(masks) != size:
            raise ValueError(f"expected {size} vertex masks, got {len(masks)}")
        for low, mask in enumerate(masks):
            if not 0 <= mask < size:
                raise ValueError(f"vertex {low} has mask {mask} outside 0..{size - 1}")
            for coord in range(1, n + 1):
                bit = 1 << (coord - 1)
                if not low & bit and not (mask ^ masks[low | bit]) & bit:
                    raise ValueError(
                        f"the coordinate-{coord} edge at vertex {low} must leave "
                        f"exactly one endpoint"
                    )
        self.n = n
        self._masks = masks

    def outgoing_masks(self) -> list:
        """Per-vertex bitmask of outgoing coordinates (bit k-1 for coord k)."""
        return self._masks


def induce_orientation(objective) -> Orientation:
    """Orient each cube edge toward the endpoint with the larger objective
    value.  Raises :class:`TieError` if two adjacent vertices share a value
    (the precondition is distinct values on all vertices)."""
    n = objective.n
    values = [objective.value(bits_from_id(vid, n)) for vid in range(1 << n)]
    masks = [0] * (1 << n)
    for low in range(1 << n):
        for coord in range(1, n + 1):
            bit = 1 << (coord - 1)
            if low & bit:
                continue
            high = low | bit
            if values[low] == values[high]:
                raise TieError(
                    f"vertices {low} and {high} share value {values[low]}",
                    edge=(low, high),
                )
            masks[low if values[low] < values[high] else high] |= bit
    return Orientation(n, masks)


def sinks_in_face(orientation: Orientation, face: Face) -> list:
    """Vertices of the face with no outgoing edge inside the face."""
    masks = orientation.outgoing_masks()
    free = face.free_mask()
    return [vid for vid in face.vertex_ids() if masks[vid] & free == 0]


def is_uso(orientation: Orientation):
    """Does every one of the ``3^n`` faces have exactly one sink?

    Scans the faces in :func:`faces` order and returns ``(False, witness)``
    with the first face that has no unique sink, and its sink list;
    otherwise ``(True, None)``.  :func:`combed_in_top_dimensions` decides
    the same claim, in ``O(n * 2^n)``, on the orientations that pass it.
    """
    for face in faces(orientation.n):
        sinks = sinks_in_face(orientation, face)
        if len(sinks) != 1:
            return False, {"face": face.json_pattern(), "sinks": sinks}
    return True, None


def combed_dimension(orientation: Orientation, face: Face) -> set:
    """Free coordinates whose edges inside the face all point one way."""
    if face.dimension < 1:
        raise ValueError("combedness needs a face of dimension >= 1")
    masks = orientation.outgoing_masks()
    out = set()
    free = face.free_mask()
    base = face.base_id()  # free bits clear: base | sub is an edge's low endpoint
    for coord in face.free_coords:
        bit = 1 << (coord - 1)
        rest = free & ~bit
        first = masks[base] & bit  # nonzero iff the edge leaves its bit-0 endpoint
        sub = rest
        while sub and masks[base | sub] & bit == first:
            sub = (sub - 1) & rest
        if not sub:
            out.add(coord)
    return out


def is_decomposable(orientation: Orientation):
    """Is every face of dimension >= 1 combed in some dimension?

    Returns ``(True, None)`` or ``(False, witness)`` with the first
    uncombed subcube.
    """
    for face in faces(orientation.n, min_dimension=1):
        if not combed_dimension(orientation, face):
            return False, {"face": face.json_pattern()}
    return True, None


def combed_in_top_dimensions(orientation: Orientation) -> bool:
    """Is every face of dimension >= 1 combed in its highest free coordinate?

    A face whose highest free coordinate is ``c`` fixes every coordinate
    above ``c``; its ``c``-edges lie among those of the slice that fixes the
    same coordinates above ``c`` and frees all below.  So the property holds
    iff, for every ``c``, all ``c``-edges of each such slice point one way.
    A slice's low endpoints are one contiguous block of vertex ids, which
    makes the test ``O(n * 2^n)``.

    Passing it certifies :func:`is_decomposable`, since every face is then
    combed somewhere, and :func:`is_uso`, by induction on the face
    dimension.  A vertex is the one sink of its 0-face.  In a face of
    dimension at least 1 with highest free coordinate ``c``, all ``c``-edges
    point into one facet: every vertex of the other facet has its
    ``c``-edge outgoing and is no sink, and a vertex of the target facet,
    whose ``c``-edge comes in, is a sink of the face exactly when it is a
    sink of that facet.  The facet is a face of one dimension less, so it
    has exactly one sink, and so has the face.
    """
    masks = orientation.outgoing_masks()
    for i in range(orientation.n):
        bit = 1 << i
        for base in range(0, 1 << orientation.n, bit << 1):
            if len({mask & bit for mask in masks[base:base + bit]}) > 1:
                return False
    return True


def sink_find_decomposable(value_at: Callable[[tuple], Rational], n: int):
    """Find the global sink of the orientation induced by ``value_at`` with
    at most ``2n`` value queries, assuming the orientation is combed in the
    highest free dimension of every subcube.

    Walking dimensions from ``n`` down to 1, the two endpoints of one edge
    of the current subcube along the highest free dimension are compared
    and that coordinate is fixed to the winning side.  Values are cached,
    so each round after the first costs one new query.  The routine trusts
    its precondition; a wrong sink is detectable only by the caller.

    Returns ``(vertex_id, query_count)``.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    cache: dict = {}

    def query(bits: tuple):
        if bits not in cache:
            cache[bits] = value_at(bits)
        return cache[bits]

    fixed: dict = {}
    for k in range(n, 0, -1):
        low = tuple(fixed.get(j, 0) if j != k else 0 for j in range(1, n + 1))
        high = tuple(fixed.get(j, 0) if j != k else 1 for j in range(1, n + 1))
        fixed[k] = 0 if query(low) > query(high) else 1
    vid = bits_to_id(tuple(fixed[j] for j in range(1, n + 1)))
    return vid, len(cache)
