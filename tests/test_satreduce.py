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
    multi_eval,
    parse_dimacs,
    violation_polynomial,
)
from pivotforge.satreduce import _vertex_values, violated_clause_count


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
    assert multi_eval(poly, argmax) == 0
    best, _ = brute_force_max(
        violation_polynomial(CnfFormula(1, (clause(1), clause(-1)))), 1
    )
    assert best == -1
    assert brute_force_max(MultiPoly.zero(2), 2) == (0, (0, 0))


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
            multi_eval(poly, tuple((v >> i) & 1 for i in range(n)))
            for v in range(1 << n)
        ]
        assert best == max(values)
        assert multi_eval(poly, argmax) == best


def _vertex_values_oracle(poly, n):
    """Per-term evaluation: a term counts at a vertex iff its variable mask
    is a subset of the vertex id."""
    masked = []
    for exps, coeff in poly.terms.items():
        mask = sum(1 << i for i, e in enumerate(exps) if e)
        masked.append((mask, coeff))
    return [sum(coeff for mask, coeff in masked if vid & mask == mask)
            for vid in range(1 << n)]


_coefficients = st.one_of(
    st.integers(min_value=-10 ** 20, max_value=10 ** 20),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)


@given(st.integers(min_value=0, max_value=15), st.data())
@settings(max_examples=120, deadline=None)
def test_zeta_vertex_values_equal_per_term_evaluation(n, data):
    exponents = st.tuples(*[st.integers(min_value=0, max_value=2)] * n)
    terms = data.draw(st.dictionaries(exponents, _coefficients, max_size=8))
    poly = MultiPoly(n, terms)
    values = _vertex_values(poly, n)
    assert values == _vertex_values_oracle(poly, n)
    vid = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    assert values[vid] == multi_eval(poly, tuple((vid >> i) & 1 for i in range(n)))


def test_zeta_vertex_values_through_the_chunked_passes():
    # from n = 14 on, the passes of the lowest and the highest bits are split
    # into slices of at most 2^12 entries
    rng = random.Random(47)
    for n in (14, 15):
        terms = {(0,) * n: Fraction(-5, 3)}
        for _ in range(10):
            terms[tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(n))] = \
                Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        poly = MultiPoly(n, terms)
        assert _vertex_values(poly, n) == _vertex_values_oracle(poly, n)
    assert _vertex_values(MultiPoly.zero(0), 0) == [0]
    assert _vertex_values(MultiPoly.constant(0, Fraction(3, 7)), 0) == [Fraction(3, 7)]


def test_brute_force_max_returns_the_lowest_maximizing_vertex():
    x1, x2, x3 = (MultiPoly.variable(3, k) for k in (1, 2, 3))
    # x3 (1 - x1) + x2 + x1 x2 takes its maximum 2 at ids 3, 6 and 7 only
    poly = x3 * (1 - x1) + x2 + x1 * x2
    values = _vertex_values(poly, 3)
    assert [vid for vid in range(8) if values[vid] == 2] == [3, 6, 7]
    assert brute_force_max(poly, 3) == (2, (1, 1, 0))
    assert brute_force_max(MultiPoly.zero(3), 3) == (0, (0, 0, 0))


def test_brute_force_sat_examples():
    satisfiable, witness = brute_force_sat(CnfFormula(3, (clause(1, -2, 3),)))
    assert satisfiable
    assert violated_clause_count(CnfFormula(3, (clause(1, -2, 3),)), witness) == 0
    satisfiable, witness = brute_force_sat(CnfFormula(1, (clause(1), clause(-1))))
    assert not satisfiable and witness is None
    assert brute_force_sat(CnfFormula(2, ())) == (True, (0, 0))


def test_enumeration_guards():
    with pytest.raises(TooLargeError):
        brute_force_max(MultiPoly.zero(25), 25)
    with pytest.raises(TooLargeError):
        brute_force_sat(CnfFormula(25, ()))


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
            assert multi_eval(poly, witness) == 0


def test_polynomial_counts_violated_clauses_on_every_vertex():
    rng = random.Random(53)
    for _ in range(40):
        formula = _random_formula(rng, max_vars=6)
        poly = violation_polynomial(formula)
        for vid in range(1 << formula.n_vars):
            bits = tuple((vid >> i) & 1 for i in range(formula.n_vars))
            assert multi_eval(poly, bits) == -violated_clause_count(formula, bits)


def test_polynomial_nonpositive_at_interior_points():
    rng = random.Random(59)
    for _ in range(25):
        formula = _random_formula(rng, max_vars=5)
        poly = violation_polynomial(formula)
        for _ in range(12):
            point = tuple(
                Fraction(rng.randint(0, 24), 24) for _ in range(formula.n_vars)
            )
            assert multi_eval(poly, point) <= 0
