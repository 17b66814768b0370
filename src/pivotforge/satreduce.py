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
scans, used as independent oracles for the reduction.  They work on the
tiles of :mod:`pivotforge.tiles`: the 2^n vertex ids in tiles of 2^b
consecutive ids, ``b = min(n, TILE_BITS)``, a Python integer holding one
tile's vertices in fixed-width fields, worked on all at once (broadword
computing, Knuth, TAOCP 7.1.3).  Inside a tile the variables from ``b``
up are fixed by the ids' high bits, so a clause or a term there depends on
the low ``b`` variables alone.  The satisfiability check holds one bit per
assignment and combines clauses by AND and OR, the violated-clause counts
add the same clause tables in wider fields, and the vertex values come
from a subset-sum (zeta) transform over fixed-width integer fields packed
into one integer, one AND, shift and add per low variable.  Values and
counts packed at one width let a caller test ``value + scale * count ==
offset`` in every field of a tile with one big-integer operation.  A scan
holds one tile at a time, so its memory does not grow with n.  Every step
is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import add, or_
from typing import Optional, Tuple

from .boxes import bits_from_id
from .errors import DimacsParseError, TooLargeError
from .polynomials import MultiPoly
from .scalars import Rational, as_rational
from .tiles import _FIELD_TYPECODES, _clear_bit_slots, _repeat, _tile_bits, _unpack, argmax

ENUMERATION_LIMIT = 24  # 2^24 vertices is the most a brute-force scan will try


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


def _enumerable_bits(n: int) -> int:
    """The tile bits ``b`` of a scan over n variables (:func:`_tile_bits`).
    Raises ``TooLargeError`` past the enumeration cap, so every oracle
    refuses before it builds a table."""
    if n > ENUMERATION_LIMIT:
        raise TooLargeError(f"n={n} exceeds the enumeration cap {ENUMERATION_LIMIT}")
    return _tile_bits(n)


def vertex_field_tiles(poly: MultiPoly, n: int, spare: int = 0):
    """Exact values of ``poly`` on all 2^n vertices as unsigned integer
    fields, one tile of 2^b consecutive vertex ids at a time: returns
    ``(tiles, offset, scale, nbytes)``, where ``tiles`` yields each tile's
    fields packed in one integer, field ``v`` of ``nbytes`` bytes at byte
    ``v * nbytes`` (:func:`~pivotforge.tiles._unpack` reads them out), and
    vertex ``v`` has value ``(field - offset) / scale``.  The fields also
    hold ``2 * offset + scale * spare``, so that ``scale`` times a count of
    at most ``spare`` can be added to each without a carry.  The
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

    A field keeps its entry modulo ``2^bits`` in its low ``bits`` bits,
    ``2^bits > 2 * offset + scale * spare``, and the carries out of them in
    the guard bits above, at least ``b.bit_length()`` of them: a pass adds
    into a field at most once, so at most ``b`` carries land there.  Pass
    ``i`` adds every field whose id lacks bit ``i`` into the field whose id
    has it, which is one whole-integer AND, shift and add (Yates' method on
    packed fields); one last AND clears the guard bits.  ``nbytes`` is a
    machine word size when the entries fit in one, so the fields unpack
    into an ``array``.
    """
    b = _enumerable_bits(n)
    scale = lcm(*(coeff.denominator for coeff in poly.terms.values()))
    scaled: dict = {}
    for exps, coeff in poly.terms.items():
        mask = sum(1 << i for i, e in enumerate(exps) if e)
        scaled[mask] = scaled.get(mask, 0) + coeff.numerator * (scale // coeff.denominator)
    offset = sum(map(abs, scaled.values()))
    scaled[0] = scaled.get(0, 0) + offset
    bits = (2 * offset + scale * spare).bit_length()
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
            yield packed & values

    return tiles(), offset, scale, nbytes


def brute_force_max(poly: MultiPoly, n: int) -> Tuple[Rational, tuple]:
    """Exact maximum of ``poly`` over all 2^n vertices and one argmax
    (the lowest vertex id attaining it).  Guarded by the enumeration cap.
    The maximum and its first index are taken over each tile's unpacked
    fields, which order the vertices as their values do
    (:func:`~pivotforge.tiles.argmax`)."""
    if poly.nvars != n:
        raise ValueError(f"polynomial has {poly.nvars} variables, not {n}")
    tiles, offset, scale, nbytes = vertex_field_tiles(poly, n)
    b = _tile_bits(n)
    top, best_vid = argmax(_unpack(packed, nbytes, b) for packed in tiles)
    return as_rational(Fraction(top - offset, scale)), bits_from_id(best_vid, n)


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
    b = _enumerable_bits(n)
    whole_tile = (1 << (1 << b)) - 1
    for high, violated in enumerate(_clause_tiles(formula, b, 1, or_)):
        satisfying = whole_tile & ~violated
        if satisfying:
            assignment = (high << b) + (satisfying & -satisfying).bit_length() - 1
            return True, bits_from_id(assignment, n)
    return False, None


def violation_counts(formula: CnfFormula, nbytes: int):
    """The number of clauses each assignment violates: an iterator over the
    tiles of 2^b consecutive vertex ids, each the counts packed in one
    integer, field ``v`` of ``nbytes`` bytes for id ``v`` within the tile.
    The clauses' tables (:func:`_clause_tiles`) are summed in those fields,
    which must hold the clause count, so no field carries into the next; no
    polynomial is read.  The enumeration cap and the width are checked when
    called."""
    b = _enumerable_bits(formula.n_vars)
    if len(formula.clauses) >> (8 * nbytes):
        raise ValueError(f"{len(formula.clauses)} clauses overflow {nbytes}-byte fields")
    return _clause_tiles(formula, b, 8 * nbytes, add)


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
