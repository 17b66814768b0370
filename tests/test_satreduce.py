import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pivotforge import (
    CnfFormula,
    DimacsParseError,
    Literal,
    MultiPoly,
    TooLargeError,
    brute_force_max,
    brute_force_sat,
    parse_dimacs,
    violation_counts,
    violation_polynomial,
)
from pivotforge.satreduce import _vertex_fields, violated_clause_count
from pivotforge.scalars import as_rational


def lit(v):
    return Literal(abs(v), v < 0)


def clause(*vs):
    return tuple(lit(v) for v in vs)


# ------------------------------------------------------------ parser --


def test_parse_basic_formula():
    formula = parse_dimacs("p cnf 3 1\n1 -2 3 0\n")
    assert formula.n_vars == 3
    assert formula.clauses == (clause(1, -2, 3),)


def test_parse_comments_and_contradictions():
    formula = parse_dimacs("c comment\np cnf 1 2\n1 0\n-1 0\n")
    assert formula.n_vars == 1
    assert formula.clauses == (clause(1), clause(-1))


def test_parse_clause_spanning_lines_and_padding():
    formula = parse_dimacs("c x\n\np cnf 4 2\n  1   -2\n3 0\n  4 0\n")
    assert formula.clauses == (clause(1, -2, 3), clause(4,))


def test_parse_errors_carry_positions():
    with pytest.raises(DimacsParseError) as err:
        parse_dimacs("p cnf 2 1\n1 3 0\n")
    assert err.value.line == 2 and err.value.column == 3
    with pytest.raises(DimacsParseError) as err:
        parse_dimacs("p cnf 2 1\n1 -1 0\n")
    assert "repeated" in str(err.value)
    with pytest.raises(DimacsParseError) as err:
        parse_dimacs("p cnf 4 1\n1 2 3 4 0\n")
    assert "more than 3" in str(err.value)
    with pytest.raises(DimacsParseError) as err:
        parse_dimacs("p cnf 2 1\n1 2\n")
    assert "unterminated" in str(err.value)
    with pytest.raises(DimacsParseError) as err:
        parse_dimacs("p cnf 2 1\n0\n")
    assert "empty clause" in str(err.value)
    with pytest.raises(DimacsParseError):
        parse_dimacs("1 0\n")  # clause before header
    with pytest.raises(DimacsParseError):
        parse_dimacs("p cnf 2 1\np cnf 2 1\n1 0\n")  # duplicate header
    with pytest.raises(DimacsParseError):
        parse_dimacs("p cnf 2 2\n1 0\n")  # count mismatch
    with pytest.raises(DimacsParseError):
        parse_dimacs("p cnf 2 1\n1 x 0\n")  # non-integer token
    with pytest.raises(DimacsParseError):
        parse_dimacs("c only a comment\n")  # missing header


def test_formula_invariants_enforced():
    with pytest.raises(ValueError):
        CnfFormula(2, (clause(1, 2, -1),))  # repeated variable
    with pytest.raises(ValueError):
        CnfFormula(2, (clause(3),))  # out of range
    with pytest.raises(ValueError):
        CnfFormula(2, ((),))  # empty clause


# --------------------------------------------------------- reduction --


def x(n, k):
    return MultiPoly.variable(n, k)


def test_reduction_of_a_single_clause():
    formula = CnfFormula(3, (clause(1, -2, 3),))
    poly = violation_polynomial(formula)
    expected = -((1 - x(3, 1)) * x(3, 2) * (1 - x(3, 3)))
    assert poly == expected
    assert poly.total_degree == 3


def test_reduction_of_short_clauses():
    assert violation_polynomial(CnfFormula(1, (clause(1),))) == -(1 - x(1, 1))
    contradiction = CnfFormula(1, (clause(1), clause(-1)))
    assert violation_polynomial(contradiction) == MultiPoly.constant(1, -1)


def test_reduction_degree_never_exceeds_three():
    rng = random.Random(41)
    for _ in range(80):
        formula = _random_formula(rng)
        assert violation_polynomial(formula).total_degree <= 3


# ------------------------------------------------------- brute force --


def test_brute_force_max_examples():
    poly = violation_polynomial(CnfFormula(3, (clause(1, -2, 3),)))
    best, argmax = brute_force_max(poly, 3)
    assert best == 0
    assert poly.eval(argmax) == 0
    best, _ = brute_force_max(
        violation_polynomial(CnfFormula(1, (clause(1), clause(-1)))), 1
    )
    assert best == -1
    assert brute_force_max(MultiPoly(2), 2) == (0, (0, 0))


def test_brute_force_max_matches_full_evaluation():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(1, 5)
        terms = {
            tuple(rng.randint(0, 2) for _ in range(n)):
                Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for _ in range(rng.randint(1, 6))
        }
        poly = MultiPoly(n, terms)
        best, argmax = brute_force_max(poly, n)
        values = [
            poly.eval(tuple((v >> i) & 1 for i in range(n)))
            for v in range(1 << n)
        ]
        assert best == max(values)
        assert poly.eval(argmax) == best


def _vertex_values(poly, n):
    """Exact values of ``poly`` on all 2^n vertices, indexed by vertex id
    (``int`` when integral, else ``Fraction``), read from the packed
    fields."""
    fields, offset, scale = _vertex_fields(poly, n)
    return [as_rational(Fraction(field - offset, scale)) for field in fields]


def _vertex_values_oracle(poly, n):
    """Per-term evaluation: a term counts at a vertex iff its variable mask
    is a subset of the vertex id."""
    masked = []
    for exps, coeff in poly.terms.items():
        mask = sum(1 << i for i, e in enumerate(exps) if e)
        masked.append((mask, coeff))
    return [sum(coeff for mask, coeff in masked if vid & mask == mask)
            for vid in range(1 << n)]


def _vertex_values_by_list_zeta(poly, n):
    """The earlier routine, kept as a reference: each coefficient scattered
    onto its variable mask of a list, then one in-place pass per bit,
    ``a[S | bit] += a[S]``, in exact ``int``/``Fraction`` arithmetic."""
    values = [0] * (1 << n)
    for exps, coeff in poly.terms.items():
        values[sum(1 << i for i, e in enumerate(exps) if e)] += coeff
    for i in range(n):
        bit = 1 << i
        for vid in range(1 << n):
            if vid & bit:
                values[vid] += values[vid ^ bit]
    return values


def _brute_force_max_by_list_zeta(poly, n):
    values = _vertex_values_by_list_zeta(poly, n)
    best = max(values)
    best_vid = values.index(best)
    return as_rational(best), tuple((best_vid >> i) & 1 for i in range(n))


def _brute_force_sat_by_loop(formula):
    """The earlier routine, kept as a reference: try the assignments in id
    order and return the first that violates no clause."""
    n = formula.n_vars
    clause_masks = []
    for clause in formula.clauses:
        positive = negative = 0
        for lit in clause:
            if lit.negated:
                negative |= 1 << (lit.variable - 1)
            else:
                positive |= 1 << (lit.variable - 1)
        clause_masks.append((positive, negative))
    for assignment in range(1 << n):
        if not any(assignment & positive == 0 and assignment & negative == negative
                   for positive, negative in clause_masks):
            return True, tuple((assignment >> i) & 1 for i in range(n))
    return False, None


_coefficients = st.one_of(
    st.integers(min_value=-10 ** 20, max_value=10 ** 20),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)


@given(st.integers(min_value=0, max_value=15), st.data())
@settings(max_examples=150, deadline=None)
def test_zeta_vertex_values_equal_per_term_evaluation(n, data):
    # few terms over many variables leave ties, so the lowest argmax matters
    exponents = st.tuples(*[st.integers(min_value=0, max_value=2)] * n)
    coefficients = data.draw(st.sampled_from([
        _coefficients,
        st.integers(min_value=-10 ** 20, max_value=10 ** 20),
        st.integers(min_value=-3, max_value=3),
        st.fractions(min_value=-50, max_value=50, max_denominator=12),
    ]))
    poly = MultiPoly(n, data.draw(st.dictionaries(exponents, coefficients, max_size=8)))
    values = _vertex_values(poly, n)
    reference = _vertex_values_by_list_zeta(poly, n)
    assert values == _vertex_values_oracle(poly, n) == reference
    assert [type(v) for v in values] == [type(as_rational(v)) for v in reference]
    vid = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    assert values[vid] == poly.eval(tuple((vid >> i) & 1 for i in range(n)))
    best, argmax = brute_force_max(poly, n)
    reference_best, reference_argmax = _brute_force_max_by_list_zeta(poly, n)
    assert (best, argmax) == (reference_best, reference_argmax)
    assert type(best) is type(reference_best)


@pytest.mark.parametrize("n", [14, 15])
def test_zeta_vertex_values_in_fields_across_a_width_boundary(n):
    # the sum of |coefficients| on either side of each field-width boundary:
    # 2 * offset takes k + 1 or k + 2 bits and 4 guard bits sit above them,
    # so the fields are 1 | 2, 2 | 4 and 4 | 8 bytes wide, and 8 | 9 bytes,
    # past every machine width; with one sign throughout, the all-ones
    # vertex takes the extreme value +offset or -offset
    rng = random.Random(61 + n)
    for k, below, above in ((3, 1, 2), (11, 2, 4), (27, 4, 8), (59, 8, 9)):
        for offset, width in ((2 ** k - 1, below), (2 ** k, above)):
            sign = rng.choice((1, -1))
            terms = {}
            while len(terms) < 5:
                exps = tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(n))
                if any(exps):
                    terms[exps] = sign * rng.randint(1, max(1, offset >> 3))
            terms[(0,) * n] = sign * (offset - sum(abs(c) for c in terms.values()))
            poly = MultiPoly(n, terms)
            fields, packed_offset, scale = _vertex_fields(poly, n)
            assert (packed_offset, scale) == (offset, 1)
            assert getattr(fields, "itemsize", 9) == width
            values = _vertex_values(poly, n)
            assert values == _vertex_values_oracle(poly, n)
            assert values[-1] == sign * offset
            assert brute_force_max(poly, n) == _brute_force_max_by_list_zeta(poly, n)
    assert _vertex_values(MultiPoly(0), 0) == [0]
    assert _vertex_values(MultiPoly.constant(0, Fraction(3, 7)), 0) == [Fraction(3, 7)]


def test_brute_force_max_returns_the_lowest_maximizing_vertex():
    x1, x2, x3 = (MultiPoly.variable(3, k) for k in (1, 2, 3))
    # x3 (1 - x1) + x2 + x1 x2 takes its maximum 2 at ids 3, 6 and 7 only
    poly = x3 * (1 - x1) + x2 + x1 * x2
    values = _vertex_values(poly, 3)
    assert [vid for vid in range(8) if values[vid] == 2] == [3, 6, 7]
    assert brute_force_max(poly, 3) == (2, (1, 1, 0))
    assert brute_force_max(MultiPoly(3), 3) == (0, (0, 0, 0))


def test_brute_force_sat_examples():
    satisfiable, witness = brute_force_sat(CnfFormula(3, (clause(1, -2, 3),)))
    assert satisfiable
    assert violated_clause_count(CnfFormula(3, (clause(1, -2, 3),)), witness) == 0
    satisfiable, witness = brute_force_sat(CnfFormula(1, (clause(1), clause(-1))))
    assert not satisfiable and witness is None
    for n in range(4):
        assert brute_force_sat(CnfFormula(n, ())) == (True, (0,) * n)

    def excluding(vid):  # the one clause that assignment ``vid`` alone violates
        return tuple(Literal(k + 1, bool(vid >> k & 1)) for k in range(3))

    # the witness is the lowest satisfying id, here the last one
    assert brute_force_sat(CnfFormula(3, tuple(map(excluding, range(7))))) == (True, (1, 1, 1))
    assert brute_force_sat(CnfFormula(3, tuple(map(excluding, range(8))))) == (False, None)


@st.composite
def _formulas(draw):
    n = draw(st.integers(min_value=0, max_value=14))
    literal_lists = st.lists(
        st.tuples(st.integers(min_value=1, max_value=max(n, 1)), st.booleans()),
        min_size=1, max_size=3, unique_by=lambda lit: lit[0])
    clauses = draw(st.lists(literal_lists, max_size=40 if n else 0))
    return CnfFormula(n, tuple(tuple(Literal(v, neg) for v, neg in c) for c in clauses))


@given(_formulas())
@settings(max_examples=200, deadline=None)
def test_truth_table_sat_matches_the_assignment_loop(formula):
    assert brute_force_sat(formula) == _brute_force_sat_by_loop(formula)
    n = formula.n_vars
    assert list(violation_counts(formula)) == [
        violated_clause_count(formula, tuple((vid >> i) & 1 for i in range(n)))
        for vid in range(1 << n)]


def test_violation_counts_fields_widen_with_the_clause_count():
    # 255 clauses fit one byte per vertex, 256 need two; every clause is
    # violated at the all-zeros vertex
    for clauses, itemsize in ((255, 1), (256, 2)):
        formula = CnfFormula(2, (clause(1, 2),) * clauses)
        counts = violation_counts(formula)
        assert counts.itemsize == itemsize
        assert list(counts) == [clauses, 0, 0, 0]


def test_enumeration_guards():
    with pytest.raises(TooLargeError):
        brute_force_max(MultiPoly(25), 25)
    with pytest.raises(TooLargeError):
        brute_force_sat(CnfFormula(25, ()))
    with pytest.raises(TooLargeError):
        violation_counts(CnfFormula(25, ()))


# --------------------------------------------------------- soundness --


def _random_formula(rng, max_vars=10, max_clauses=16):
    n_vars = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        width = rng.randint(1, min(3, n_vars))
        variables = rng.sample(range(1, n_vars + 1), width)
        clauses.append(tuple(Literal(v, rng.random() < 0.5) for v in variables))
    return CnfFormula(n_vars, tuple(clauses))


def test_reduction_soundness_on_random_formulas():
    rng = random.Random(47)
    for _ in range(120):
        formula = _random_formula(rng)
        poly = violation_polynomial(formula)
        best, _ = brute_force_max(poly, formula.n_vars)
        satisfiable, witness = brute_force_sat(formula)
        assert (best == 0) == satisfiable
        assert best <= 0
        if satisfiable:
            assert poly.eval(witness) == 0


def test_polynomial_counts_violated_clauses_on_every_vertex():
    rng = random.Random(53)
    for _ in range(40):
        formula = _random_formula(rng, max_vars=6)
        poly = violation_polynomial(formula)
        for vid in range(1 << formula.n_vars):
            bits = tuple((vid >> i) & 1 for i in range(formula.n_vars))
            assert poly.eval(bits) == -violated_clause_count(formula, bits)


def test_polynomial_nonpositive_at_interior_points():
    rng = random.Random(59)
    for _ in range(25):
        formula = _random_formula(rng, max_vars=5)
        poly = violation_polynomial(formula)
        for _ in range(12):
            point = tuple(
                Fraction(rng.randint(0, 24), 24) for _ in range(formula.n_vars)
            )
            assert poly.eval(point) <= 0
