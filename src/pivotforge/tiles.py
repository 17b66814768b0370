"""Vertex tables in tiles: one Python integer as a table of fixed-width
fields, worked on all at once (broadword computing, Knuth, TAOCP 7.1.3).

A scan over the 2^n vertex ids of an n-cube visits 2^(n - b) tiles of
2^b consecutive ids, ``b = min(n, TILE_BITS)``.  The tile whose ids have
high bits ``h`` (the bits from ``b`` up) fixes the coordinates above
``b``, so a table there depends on the low ``b`` coordinates alone.
Entry ``v`` of a tile lives in the field of ``width`` bits at bit
``v * width`` of one integer; a whole-integer AND, shift, add or XOR then
acts on every field at once, and a scan holds one tile at a time, so its
memory does not grow with n.  Fields of whole bytes are read back from
the integer's bytes into an ``array``, whose ``max`` and ``index`` run in
C.  :mod:`pivotforge.satreduce` keeps its SAT and polynomial tables here,
and :mod:`pivotforge.structure` the lower-bound objective's.
"""

from __future__ import annotations

import sys
from array import array

#: a scan holds 2^TILE_BITS vertices at a time (8 KB at 2-byte fields)
TILE_BITS = 12
#: unsigned ``array`` typecode by item size in bytes, for reading packed fields
_FIELD_TYPECODES = {array(code).itemsize: code for code in "BHIQ"}


def _tile_bits(n: int) -> int:
    """``b = min(n, TILE_BITS)``: a scan over n coordinates visits
    2^(n - b) tiles of 2^b consecutive vertex ids."""
    return min(n, TILE_BITS)


def _repeat(block: int, period: int, length: int) -> int:
    """``block`` (at most ``period`` bits wide) repeated every ``period``
    bits up to bit ``length``, where ``length / period`` is a power of two:
    each doubling is one shift and one OR of the pattern built so far."""
    while period < length:
        block |= block << period
        period <<= 1
    return block


def _clear_bit_slots(slot: int, width: int, n: int):
    """For ``i = n - 1`` down to 0, yields ``i`` and the integer that holds
    ``slot`` in each of its 2^n slots of ``width`` bits whose id has bit
    ``i`` clear (slot ``v`` starts at bit ``v * width``).  Each is one
    shift and one XOR from the one before (Knuth's magic masks, TAOCP
    7.1.3)."""
    if n:
        mask = _repeat(slot, width, width << (n - 1))
        for i in reversed(range(n)):
            yield i, mask
            if i:
                mask ^= mask << (width << (i - 1))


def _unpack(packed: int, nbytes: int, n: int):
    """The 2^n fields of ``nbytes`` bytes packed in ``packed``, field ``v``
    at byte ``v * nbytes``: an ``array`` when a typecode has that size,
    else a list."""
    data = packed.to_bytes(nbytes << n, "little")
    typecode = _FIELD_TYPECODES.get(nbytes)
    if typecode is None:
        return [int.from_bytes(data[k:k + nbytes], "little")
                for k in range(0, len(data), nbytes)]
    fields = array(typecode, data)
    if sys.byteorder == "big":
        fields.byteswap()
    return fields


def argmax(tiles) -> tuple:
    """``(top, vid)``: the largest field over ``tiles`` (each a sequence of
    unsigned fields, in id order) and the lowest id that holds it.  A
    later tile replaces the best only with a strictly larger field."""
    top, best_vid, start = -1, 0, 0
    for fields in tiles:
        tile_top = max(fields)
        if tile_top > top:
            top, best_vid = tile_top, start + fields.index(tile_top)
        start += len(fields)
    return top, best_vid
