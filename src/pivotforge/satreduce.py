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
scans, used as independent oracles for the reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Optional, Tuple

from .errors import DimacsParseError, TooLargeError
from .polynomials import MultiPoly
from .scalars import Rational, as_rational

ENUMERATION_LIMIT = 24  # 2^24 vertices is the most a brute-force scan will try
_CHUNK = 1 << 12  # most entries one slice of the zeta transform copies


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
    total = MultiPoly.zero(n)
    for clause in formula.clauses:
        product = MultiPoly.constant(n, 1)
        for lit in clause:
            x = MultiPoly.variable(n, lit.variable)
            product = product * (x if lit.negated else (1 - x))
        total = total - product
    return total


def _vertex_values(poly: MultiPoly, n: int) -> list:
    """Exact values of ``poly`` on all 2^n vertices, indexed by vertex id.

    On 0/1 points a monomial contributes its coefficient exactly when
    every variable it touches is 1, so the value at vertex ``S`` is the
    sum of the coefficients of all terms whose variable mask is a subset
    of ``S``.  Each coefficient is scattered onto its mask, and one
    in-place pass per bit, ``a[S | bit] += a[S]``, sums over subsets (the
    zeta transform, Yates' method): ``O(n * 2^n)`` exact additions instead
    of ``O(terms * 2^n)`` subset tests.  The passes work on slices of at
    most ``_CHUNK`` entries, so temporaries stay small next to the table.
    """
    size = 1 << n
    values = [0] * size
    for exps, coeff in poly.terms.items():
        mask = 0
        for i, e in enumerate(exps):
            if e:
                mask |= 1 << i
        values[mask] += coeff
    for i in range(n):
        bit = 1 << i
        step = bit << 1
        if bit >= size // step:
            # few wide blocks: add each block's low half to its high half
            width = min(_CHUNK, bit)
            for base in range(0, size, step):
                for lo in range(base, base + bit, width):
                    hi = lo + bit
                    values[hi:hi + width] = map(add, values[hi:hi + width],
                                                values[lo:lo + width])
        else:
            # many narrow blocks: one strided slice per offset inside a block
            span = step * _CHUNK
            for offset in range(bit):
                for lo in range(offset, size, span):
                    stop = min(lo + span, size)
                    values[lo + bit:stop:step] = map(add, values[lo + bit:stop:step],
                                                     values[lo:stop:step])
    return values


def brute_force_max(poly: MultiPoly, n: int) -> Tuple[Rational, tuple]:
    """Exact maximum of ``poly`` over all 2^n vertices and one argmax
    (the lowest vertex id attaining it).  Guarded by the enumeration cap."""
    if poly.nvars != n:
        raise ValueError(f"polynomial has {poly.nvars} variables, not {n}")
    if n > ENUMERATION_LIMIT:
        raise TooLargeError(f"n={n} exceeds the enumeration cap {ENUMERATION_LIMIT}")
    values = _vertex_values(poly, n)
    best = max(values)
    best_vid = values.index(best)
    bits = tuple((best_vid >> i) & 1 for i in range(n))
    return as_rational(best), bits


def brute_force_sat(formula: CnfFormula) -> Tuple[bool, Optional[tuple]]:
    """Exhaustive truth-table satisfiability check; returns a witness
    assignment (bit tuple) when satisfiable.  The empty formula is
    vacuously satisfiable."""
    n = formula.n_vars
    if n > ENUMERATION_LIMIT:
        raise TooLargeError(f"n={n} exceeds the enumeration cap {ENUMERATION_LIMIT}")
    clause_masks = []
    for clause in formula.clauses:
        positive = 0
        negative = 0
        for lit in clause:
            bit = 1 << (lit.variable - 1)
            if lit.negated:
                negative |= bit
            else:
                positive |= bit
        clause_masks.append((positive, negative))
    for assignment in range(1 << n):
        violated = False
        for positive, negative in clause_masks:
            if assignment & positive == 0 and assignment & negative == negative:
                violated = True
                break
        if not violated:
            return True, tuple((assignment >> i) & 1 for i in range(n))
    return False, None


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
