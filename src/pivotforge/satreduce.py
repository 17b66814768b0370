"""3-CNF formulas, their clause-penalty polynomials, and brute-force oracles.

A CNF clause over 0/1 variables is violated by an assignment exactly when
all of its positive literals are 0 and all of its negative literals are 1.
The product

    prod_{positive z_k} (1 - x_k) * prod_{negative z_l} x_l

is therefore 1 on violating assignments and 0 otherwise, and the penalty
polynomial

    f(x) = - sum_clauses (that product)

satisfies ``f(x) = -(number of violated clauses)`` on every 0/1 vertex:
nonpositive on the whole unit cube, and 0 at a vertex iff the assignment
satisfies the formula.  With at most three literals per clause the
polynomial has total degree at most 3, which turns satisfiability into
"is the maximum of a degree-3 polynomial over the cube at least 0".

Formulas arrive in DIMACS CNF; parse errors carry line/column positions.
Brute-force maximization and satisfiability checks are guarded exhaustive
scans, used as independent oracles for the reduction.  Both split the 2^n
vertex ids into tiles of 2^b consecutive ids, ``b = min(n, TILE_BITS)``,
and treat a Python integer as a table of one tile's vertices, worked on
all at once (broadword computing, Knuth, TAOCP 7.1.3).  Inside a tile the
variables from ``b`` up are fixed by the ids' high bits, so a clause or a
term there depends on the low ``b`` variables alone.  The satisfiability
check holds one bit per assignment and combines clauses by AND and OR,
the violated-clause counts add the same clause tables in wider fields,
and the maximum comes from a subset-sum (zeta) transform over fixed-width
integer fields packed into one integer, one AND, shift and add per low
variable.  A scan holds one tile at a time, so its memory does not grow
with n.  Every step is exact integer arithmetic.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import add, or_
from typing import Optional, Tuple

from .errors import DimacsParseError, TooLargeError
from .polynomials import MultiPoly
from .scalars import Rational, as_rational

ENUMERATION_LIMIT = 24  # 2^24 vertices is the most a brute-force scan will try
#: the scans hold 2^TILE_BITS vertices at a time (8 KB at 2-byte fields)
TILE_BITS = 12
#: unsigned ``array`` typecode by item size in bytes, for reading packed fields
_FIELD_TYPECODES = {array(code).itemsize: code for code in "BHIQ"}


@dataclass(frozen=True)
class Literal:
    """A possibly negated variable, 1-based."""

    variable: int
    negated: bool

    def __post_init__(self):
        if self.variable < 1:
            raise ValueError("variable indices are 1-based")


@dataclass(frozen=True)
class CnfFormula:
    n_vars: int
    clauses: tuple

    def __post_init__(self):
        for clause in self.clauses:
            if not 1 <= len(clause) <= 3:
                raise ValueError("clauses must have 1 to 3 literals")
            variables = [lit.variable for lit in clause]
            if len(set(variables)) != len(variables):
                raise ValueError("a clause must not repeat a variable")
            if any(v > self.n_vars for v in variables):
                raise ValueError("literal variable out of declared range")


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF: 'c' comment lines, one 'p cnf <vars> <clauses>'
    header, then clauses as signed integers terminated by 0 (clauses may
    span lines).  Rejects, with positions: malformed headers, out-of-range
    or repeated variables in a clause, empty clauses, clauses longer than
    three literals, unterminated clauses, and clause-count mismatches."""
    n_vars: Optional[int] = None
    n_clauses_declared: Optional[int] = None
    clauses: list = []
    current: list = []
    current_vars: set = set()
    clause_start = (1, 1)

    lines = text.splitlines()
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            if n_vars is not None:
                raise DimacsParseError("duplicate header", line_no, 1)
            parts = stripped.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsParseError("header must be 'p cnf <vars> <clauses>'",
                                       line_no, 1)
            try:
                n_vars, n_clauses_declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsParseError("header counts must be integers", line_no, 1)
            if n_vars < 0 or n_clauses_declared < 0:
                raise DimacsParseError("header counts must be nonnegative", line_no, 1)
            continue
        if n_vars is None:
            raise DimacsParseError("clause data before header", line_no, 1)
        scan_pos = 0
        for token in line.split():
            found_at = line.find(token, scan_pos)
            column = found_at + 1
            scan_pos = found_at + len(token)
            try:
                value = int(token)
            except ValueError:
                raise DimacsParseError(f"expected an integer, got {token!r}",
                                       line_no, column)
            if value == 0:
                if not current:
                    raise DimacsParseError("empty clause", line_no, column)
                clauses.append(tuple(current))
                current = []
                current_vars = set()
                continue
            if not current:
                clause_start = (line_no, column)
            variable = abs(value)
            if variable > n_vars:
                raise DimacsParseError(
                    f"variable {variable} out of range 1..{n_vars}", line_no, column
                )
            if variable in current_vars:
                raise DimacsParseError(
                    f"variable {variable} repeated in clause", line_no, column
                )
            if len(current) == 3:
                raise DimacsParseError("clause has more than 3 literals",
                                       line_no, column)
            current_vars.add(variable)
            current.append(Literal(variable, value < 0))
    if current:
        raise DimacsParseError("unterminated clause (missing 0)", *clause_start)
    if n_vars is None:
        raise DimacsParseError("missing 'p cnf' header", max(len(lines), 1), 1)
    if len(clauses) != n_clauses_declared:
        raise DimacsParseError(
            f"header declares {n_clauses_declared} clauses, found {len(clauses)}",
            max(len(lines), 1), 1,
        )
    return CnfFormula(n_vars, tuple(clauses))


def violation_polynomial(formula: CnfFormula) -> MultiPoly:
    """The clause-penalty polynomial described in the module docstring:
    total degree at most 3, value ``-(violated clause count)`` on vertices."""
    n = formula.n_vars
    total = MultiPoly(n)
    for clause in formula.clauses:
        product = MultiPoly.constant(n, 1)
        for lit in clause:
            x = MultiPoly.variable(n, lit.variable)
            product = product * (x if lit.negated else (1 - x))
        total = total - product
    return total


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


def _tile_bits(n: int) -> int:
    """``b = min(n, TILE_BITS)``: a scan over n variables visits 2^(n - b)
    tiles of 2^b consecutive vertex ids.  Raises ``TooLargeError`` past the
    enumeration cap, so every oracle refuses before it builds a table."""
    if n > ENUMERATION_LIMIT:
        raise TooLargeError(f"n={n} exceeds the enumeration cap {ENUMERATION_LIMIT}")
    return min(n, TILE_BITS)


def vertex_field_tiles(poly: MultiPoly, n: int):
    """Exact values of ``poly`` on all 2^n vertices as unsigned integer
    fields, one tile of 2^b consecutive vertex ids at a time: returns
    ``(tiles, offset, scale)``, where ``tiles`` yields each tile's fields in
    id order and vertex ``v`` has value ``(field - offset) / scale``.  The
    enumeration cap is checked when called.

    On 0/1 points a monomial contributes its coefficient exactly when
    every variable it touches is 1, so the value at vertex ``S`` is the
    sum of the coefficients of all terms whose variable mask is a subset
    of ``S`` (the zeta transform).  The coefficients are scaled to
    integers by the lcm of their denominators and summed per mask;
    ``offset``, the sum of their absolute values, is added at the empty
    mask, which every vertex contains, so each vertex value lands in
    ``[0, 2 * offset]``.  In the tile whose ids have high bits ``h`` (the
    bits from ``b`` up) those variables are fixed, so a term counts there
    iff the high part of its mask is a subset of ``h``, and the zeta
    transform runs over the low ``b`` bits alone.

    A tile's 2^b entries live in one integer, entry ``v`` in the field of
    ``width`` bits at bit ``v * width``.  A field keeps its entry modulo
    ``2^bits`` in its low ``bits`` bits, ``2^bits > 2 * offset``, and the
    carries out of them in the guard bits above, at least ``b.bit_length()``
    of them: a pass adds into a field at most once, so at most ``b``
    carries land there.  Pass ``i`` adds every field whose
    id lacks bit ``i`` into the field whose id has it, which is one
    whole-integer AND, shift and add (Yates' method on packed fields);
    one last AND clears the guard bits.  ``width`` is a whole number of
    bytes, a machine word size when the entries fit in one, so the fields
    are read from the integer's bytes into an ``array`` whose ``max`` and
    ``index`` run in C.
    """
    b = _tile_bits(n)
    scale = lcm(*(coeff.denominator for coeff in poly.terms.values()))
    scaled: dict = {}
    for exps, coeff in poly.terms.items():
        mask = sum(1 << i for i, e in enumerate(exps) if e)
        scaled[mask] = scaled.get(mask, 0) + coeff.numerator * (scale // coeff.denominator)
    offset = sum(map(abs, scaled.values()))
    scaled[0] = scaled.get(0, 0) + offset
    bits = (2 * offset).bit_length()
    value_mask = (1 << bits) - 1
    nbytes = max(1, -(-(bits + b.bit_length()) // 8))
    nbytes = min((k for k in _FIELD_TYPECODES if k >= nbytes), default=nbytes)
    width = 8 * nbytes
    by_high: dict = {}  # high part of a mask -> {low part: coefficient}
    for mask, coeff in scaled.items():
        by_high.setdefault(mask >> b, {})[mask & ((1 << b) - 1)] = coeff
    passes = list(_clear_bit_slots(value_mask, width, b))
    values = _repeat(value_mask, width, width << b)

    def tiles():
        for high in range(1 << (n - b)):
            summed: dict = {}
            for part, lows in by_high.items():
                if part & high == part:
                    for low, coeff in lows.items():
                        summed[low] = summed.get(low, 0) + coeff
            table = bytearray(nbytes << b)
            for low, coeff in summed.items():
                table[low * nbytes:(low + 1) * nbytes] = \
                    (coeff & value_mask).to_bytes(nbytes, "little")
            packed = int.from_bytes(table, "little")
            for i, low_ids in passes:
                packed += (packed & low_ids) << (width << i)
            yield _unpack(packed & values, nbytes, b)

    return tiles(), offset, scale


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


def brute_force_max(poly: MultiPoly, n: int) -> Tuple[Rational, tuple]:
    """Exact maximum of ``poly`` over all 2^n vertices and one argmax
    (the lowest vertex id attaining it).  Guarded by the enumeration cap.
    The maximum and its first index are taken over each tile's packed
    fields, which order the vertices as their values do; a later tile
    replaces the best only with a strictly larger value."""
    if poly.nvars != n:
        raise ValueError(f"polynomial has {poly.nvars} variables, not {n}")
    tiles, offset, scale = vertex_field_tiles(poly, n)
    top, best_vid, start = -1, 0, 0
    for fields in tiles:
        tile_top = max(fields)
        if tile_top > top:
            top, best_vid = tile_top, start + fields.index(tile_top)
        start += len(fields)
    bits = tuple((best_vid >> i) & 1 for i in range(n))
    return as_rational(Fraction(top - offset, scale)), bits


def _clause_tiles(formula: CnfFormula, b: int, width: int, combine):
    """For each tile of 2^b consecutive assignments, in id order, the
    ``combine`` (OR or add) of the clauses' violating sets there: integers
    whose slot ``a`` of ``width`` bits is 1 when assignment ``a`` of the
    tile violates the clause, else 0.

    A clause is violated in the tile with high bits ``h`` only if each of
    its literals on a variable from ``b`` up is false under ``h``, and
    then exactly where its low literals are all false: the AND over them
    of ``clear`` (1 where the variable is 0) or, for a negated one, its
    complement in ``ones``.  That low table is built once per clause, and
    clauses with the same high literals are combined once; each tile
    combines the groups its high bits violate.  Only the clauses are read,
    never the polynomial."""
    clear = dict(_clear_bit_slots(1, width, b))
    ones = _repeat(1, width, width << b)
    groups: dict = {}  # (high bits that must be 0, high bits that must be 1) -> table
    for clause in formula.clauses:
        violating, must_clear, must_set = ones, 0, 0
        for lit in clause:
            k = lit.variable - 1
            if k < b:
                violating &= ones ^ clear[k] if lit.negated else clear[k]
            elif lit.negated:
                must_set |= 1 << (k - b)
            else:
                must_clear |= 1 << (k - b)
        key = (must_clear, must_set)
        groups[key] = combine(groups.get(key, 0), violating)
    for high in range(1 << (formula.n_vars - b)):
        yield reduce(combine, (table for (must_clear, must_set), table in groups.items()
                               if not high & must_clear and high & must_set == must_set), 0)


def brute_force_sat(formula: CnfFormula) -> Tuple[bool, Optional[tuple]]:
    """Exhaustive truth-table satisfiability check; returns a witness
    assignment (bit tuple) when satisfiable.  The empty formula is
    vacuously satisfiable.  Guarded by the enumeration cap.

    Bit ``a`` of a 2^b-bit integer stands for assignment ``a`` of a tile.
    A tile's violating set is the OR of the clauses' one-bit tables
    (:func:`_clause_tiles`).  The first tile where the complement of that
    OR is nonzero holds a satisfying assignment, and its lowest set bit is
    the witness: the lowest satisfying id, the one a scan in id order
    would find first.
    """
    n = formula.n_vars
    b = _tile_bits(n)
    whole_tile = (1 << (1 << b)) - 1
    for high, violated in enumerate(_clause_tiles(formula, b, 1, or_)):
        satisfying = whole_tile & ~violated
        if satisfying:
            assignment = (high << b) + (satisfying & -satisfying).bit_length() - 1
            return True, tuple((assignment >> i) & 1 for i in range(n))
    return False, None


def violation_counts(formula: CnfFormula):
    """The number of clauses each assignment violates: an iterator over the
    tiles of 2^b consecutive vertex ids, each an ``array`` indexed by the
    id within the tile.  The enumeration cap is checked when called.  The
    clauses' tables (:func:`_clause_tiles`) are summed in fields of whole
    bytes, wide enough for the clause count, so no field carries into the
    next; no polynomial is read."""
    b = _tile_bits(formula.n_vars)
    bits = len(formula.clauses).bit_length()
    nbytes = min(k for k in _FIELD_TYPECODES if 8 * k >= bits)
    return (_unpack(table, nbytes, b) for table in _clause_tiles(formula, b, 8 * nbytes, add))


def violated_clause_count(formula: CnfFormula, bits: tuple) -> int:
    """Number of clauses the 0/1 assignment violates (clause semantics,
    no polynomials involved)."""
    count = 0
    for clause in formula.clauses:
        if all(
            (bits[lit.variable - 1] == 1) == lit.negated
            for lit in clause
        ):
            count += 1
    return count
