"""Combinatorial analysis of hypercube objectives.

This module certifies, by brute force and by closed form, the vertex
structure that makes the lower-bound objective family hard for vertex
walks: a prefix-product/suffix-parity characterization of the unique
improving dimension at each vertex, the Hamiltonian path those dimensions
generate (the reflected binary Gray code, yielded one vertex id at a
time, so a caller holds only what it keeps), the edge orientation induced
by vertex values, unique-sink and combedness checks, and a sink finder
that needs only ``O(n)`` value queries on decomposable orientations.

The path is walked on the objective's vertex table in tiles
(:class:`LowerBoundTiles`, on the broadword layer of
:mod:`pivotforge.tiles`): per tile of 2^b vertex ids, the exact values,
every partial by finite differences of those values, and the
prefix/parity predicates, with the two sides of the improving-dimension
test compared at every vertex by whole-integer operations.  The
per-vertex routine :func:`improving_dimension` stays for the checks that
ask one vertex at a time.

An orientation is induced from the ``2^n`` exact vertex values, given in id
order (the lower-bound objective's are read off its tile table,
:meth:`LowerBoundTiles.value_fields`), and stored as its outmap alone: an
``array`` of one outgoing-coordinate mask per vertex.  Every check reads
those masks.
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
from array import array
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .boxes import bits_from_id, bits_to_id
from .errors import AmbiguousImprovementError, TieError
from .objectives import _BITS, LowerBoundPolynomial
from .scalars import Rational
from .tiles import _FIELD_TYPECODES, _clear_bit_slots, _repeat, _tile_bits, _unpack

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
    return _agreed_side(bits, by_gradient, by_predicates)


def _agreed_side(bits: tuple, by_gradient: list, by_predicates: list) -> Optional[int]:
    """The one coordinate that both sides of the improving-dimension test
    name at the vertex ``bits``, or ``None`` when both name none.  Where the
    sides differ or name more than one coordinate, raises the
    :class:`AmbiguousImprovementError` that carries the vertex and both
    sides."""
    if by_gradient != by_predicates or len(by_gradient) > 1:
        raise AmbiguousImprovementError(
            f"improving-dimension conditions disagree at {bits}: "
            f"gradient side {by_gradient}, predicate side {by_predicates}",
            vertex=bits,
            gradient_side=by_gradient,
            predicate_side=by_predicates,
        )
    return by_gradient[0] if by_gradient else None


class LowerBoundTiles:
    """The lower-bound objective's vertex table, one tile of 2^b
    consecutive vertex ids at a time (:mod:`pivotforge.tiles`): for the
    tile whose ids have high bits ``high``, the packed vertex values, the
    exact partials by finite differences, the prefix/parity predicates and
    both sides of the improving-dimension test at every vertex.

    Every table is one integer of 2^b fields of ``width`` bits, a whole
    number of bytes that holds ``n * 2^n`` and a sign bit.  A one-bit table
    holds 0 or 1 in each field.  Only the field of ones, the ids within a
    tile and the partials' zero are kept; a tile's tables are built from
    them when asked for.
    """

    def __init__(self, n: int):
        self.n = n
        self.bits = b = _tile_bits(n)
        nbytes = -(-(n + n.bit_length() + 1) // 8)
        self.nbytes = min((k for k in _FIELD_TYPECODES if k >= nbytes), default=nbytes)
        self.width = width = 8 * self.nbytes
        self.ones = ones = _repeat(1, width, width << b)
        self.zero = ones << (width - 1)  # 2^(width - 1) in every field
        self._ids = 0  # field v holds v
        for i, clear in _clear_bit_slots(1, width, b):
            self._ids |= (ones ^ clear) << i

    def fields(self, packed: int):
        """A tile's fields, in id order, as an ``array``."""
        return _unpack(packed, self.nbytes, self.bits)

    def value_fields(self):
        """Yields the vertex values of every tile in turn, each tile's in id
        order as an ``array``: the whole-cube value scans read them here."""
        for high in range(1 << (self.n - self.bits)):
            yield self.fields(self.values(high))

    def coordinate(self, high: int, k: int) -> int:
        """The one-bit table of ``x_k`` in the tile ``high``: bit ``k - 1``
        of the id within the tile for ``k <= b``, the same in every field
        above."""
        if k <= self.bits:
            return self._ids >> (k - 1) & self.ones
        return self.ones if high >> (k - 1 - self.bits) & 1 else 0

    def values(self, high: int) -> int:
        """The vertex values, by the recursion's own step on the vertices:
        ``a_{n+1} = 0``, ``a_i = x_i XOR a_{i+1}`` and value
        ``sum_i 2^{i-1} a_i``, since every ``b_i`` vanishes there.  The
        steps above ``b`` act on bits of ``high``, the same at every vertex
        of the tile, and enter every field at once."""
        b = self.bits
        a = value = 0
        for i in reversed(range(b, self.n)):
            a ^= high >> (i - b) & 1
            value |= a << i
        a *= self.ones
        values = value * self.ones
        for i in reversed(range(b)):
            a ^= self.coordinate(high, i + 1)
            values |= a << i
        return values

    def curvatures(self, high: int):
        """Yields ``s_k = 1 - x_{k-1} + sum_{j<=k-2} x_j`` in fields for
        k = 1 .. n (``x_0 := 1`` makes ``s_1 = 0``): the constant
        ``d^2 F / d x_k^2`` is ``2^{k+1} s_k``."""
        yield 0
        below = 0
        for k in range(1, self.n):
            prev = self.coordinate(high, k)
            yield self.ones - prev + below
            below += prev

    def partials(self, high: int, values: int):
        """Yields ``dF/dx_k + 2^(width - 1)`` in fields for k = 1 .. n, by
        finite differences: ``F`` is at most quadratic in ``x_k``, with
        ``x_k^2`` coefficient ``C_k = 2^k s_k``, so

            dF/dx_k(v) = F(v | x_k=1) - F(v | x_k=0) + (2 x_k - 1) C_k.

        The neighbour's value comes from a field shift for ``k <= b`` and
        from the values of tile ``high ^ 2^(k-1-b)`` above.  Each field
        stays in ``[1, 2^width)``, so no step borrows or carries across
        fields."""
        b, width = self.bits, self.width
        for k, s in enumerate(self.curvatures(high), start=1):
            x = self.coordinate(high, k) * ((1 << width) - 1)  # all ones where x_k = 1
            if k <= b:
                shift = width << (k - 1)
                up = values & x
                down = values ^ up
                at_one, at_zero = up | up >> shift, down | down << shift
            elif x:
                at_one, at_zero = values, self.values(high ^ 1 << (k - 1 - b))
            else:
                at_one, at_zero = self.values(high ^ 1 << (k - 1 - b)), values
            curvature = s << k
            rising = curvature & x
            yield self.zero + at_one + rising - at_zero - (curvature ^ rising)

    def predicates(self, high: int):
        """Yields for k = 1 .. n the one-bit table of the predicate side of
        :func:`improving_dimension`: the suffix parity
        ``x_{k+1} + ... + x_n`` equals ``x_k`` and the prefix product
        ``x_{k-1} * prod_{j<=k-2} (1 - x_j)`` (``x_0 := 1``) is 1."""
        ones = self.ones
        parity = 0
        for k in range(1, self.n + 1):
            parity ^= self.coordinate(high, k)
        prefix = zeros = ones
        for k in range(1, self.n + 1):
            x = self.coordinate(high, k)
            parity ^= x  # (x_{k+1} + ... + x_n) mod 2
            yield prefix & (ones ^ parity ^ x)
            prefix = x & zeros
            zeros &= ones ^ x

    def tile(self, high: int):
        """``(sides, predicate)`` for the tile ``high``.  Field ``v`` of
        ``predicate`` has bit ``k - 1`` set when the predicates hold for k
        at vertex ``v``.  ``sides[v]`` (an ``array``) holds the gradient
        side the same way, where ``d_k > 0`` with ``x_k = 0`` or
        ``d_k < 0`` with ``x_k = 1``, plus bit ``width - 1`` when the two
        sides differ there or more than one coordinate qualifies."""
        ones, top = self.ones, self.width - 1
        partials = self.partials(high, self.values(high))
        gradient = predicate = seen = flagged = 0
        for i, (d, p) in enumerate(zip(partials, self.predicates(high))):
            positive = (d - ones) >> top & ones
            negative = ones ^ (d >> top & ones)
            g = positive ^ ((positive ^ negative) & self.coordinate(high, i + 1))
            flagged |= (g ^ p) | (g & seen)
            seen |= g
            gradient |= g << i
            predicate |= p << i
        return self.fields(gradient | flagged << top), predicate


def hamiltonian_path(n: int):
    """Follow the unique improving dimension of the lower-bound objective
    from the all-zeros vertex, yielding each visited vertex id as it is
    reached.

    The walk flips bit ``k`` of the current vertex, where ``k`` is the
    improving dimension, until the optimal vertex ``e_n`` has none.  It
    reads the dimensions from the tile of :class:`LowerBoundTiles` that
    holds the current vertex, and builds the next tile when a flip leaves
    it; on this objective each tile is entered once.  Where the gradient
    and predicate sides differ, or more than one coordinate qualifies, it
    raises the :class:`AmbiguousImprovementError` that
    :func:`improving_dimension` gives at that vertex.  It visits every
    vertex once, in the reflected binary Gray code ordering; a walk longer
    than ``2^n`` vertices raises :class:`AmbiguousImprovementError`.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    table = LowerBoundTiles(n)
    b, width = table.bits, table.width
    low, size = (1 << b) - 1, 1 << n
    sides, predicate = table.tile(0)
    vid = 0
    yield vid
    visited = 1
    while True:
        flip = sides[vid & low]
        if flip >> n:  # the sides differ here, so _agreed_side raises
            held = predicate >> ((vid & low) * width)
            _agreed_side(bits_from_id(vid, n),
                         [k for k in range(1, n + 1) if flip >> (k - 1) & 1],
                         [k for k in range(1, n + 1) if held >> (k - 1) & 1])
        if not flip:
            return
        vid ^= flip
        visited += 1
        if visited > size:
            raise AmbiguousImprovementError(
                "walk exceeded 2^n vertices; a vertex repeated", vertex=bits_from_id(vid, n)
            )
        if flip > low:  # the improving dimension is above b: the walk leaves the tile
            sides, predicate = table.tile(vid >> b)
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
        edge must leave exactly one of its two endpoints.  The sequence is
        kept as given, an ``array`` from :func:`induce_orientation`."""
        size = 1 << n
        if len(outgoing) != size:
            raise ValueError(f"expected {size} vertex masks, got {len(outgoing)}")
        bits = [1 << i for i in range(n)]
        for low, mask in enumerate(outgoing):
            if not 0 <= mask < size:
                raise ValueError(f"vertex {low} has mask {mask} outside 0..{size - 1}")
            for bit in bits:
                if not low & bit and not (mask ^ outgoing[low | bit]) & bit:
                    raise ValueError(
                        f"the coordinate-{bit.bit_length()} edge at vertex {low} must "
                        f"leave exactly one endpoint"
                    )
        self.n = n
        self._masks = outgoing

    def outgoing_masks(self) -> Sequence[int]:
        """Per-vertex bitmask of outgoing coordinates (bit k-1 for coord k)."""
        return self._masks


def induce_orientation(n: int, values: Sequence) -> Orientation:
    """Orient each cube edge toward the endpoint with the larger value, where
    ``values[vid]`` is the exact value of vertex ``vid``.  The outmap is an
    ``array`` of the narrowest unsigned type that holds n bits.  Raises
    :class:`TieError` if two adjacent vertices share a value (the
    precondition is distinct values on all vertices)."""
    size = 1 << n
    if len(values) != size:
        raise ValueError(f"expected {size} vertex values, got {len(values)}")
    typecode = _FIELD_TYPECODES[min(k for k in _FIELD_TYPECODES if 8 * k >= n)]
    masks = array(typecode, [0]) * size
    bits = [1 << i for i in range(n)]
    for low, value in enumerate(values):
        out = masks[low]  # its edges to lower ids, set when those were visited
        for bit in bits:
            if low & bit:
                continue
            other = values[low | bit]
            if value < other:
                out |= bit
            elif value > other:
                masks[low | bit] |= bit
            else:
                raise TieError(f"vertices {low} and {low | bit} share value {value}",
                               edge=(low, low | bit))
        masks[low] = out
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
