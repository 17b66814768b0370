import random
from fractions import Fraction
from itertools import chain
from math import lcm

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
from pivotforge import cli, satreduce
from pivotforge import tiles as layer
from pivotforge.boxes import bits_from_id
from pivotforge.satreduce import vertex_field_tiles, violated_clause_count
from pivotforge.tiles import _FIELD_TYPECODES, _clear_bit_slots, _repeat, _unpack
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
    assert poly.terms == expected.terms
    assert poly.total_degree == 3


def test_reduction_of_short_clauses():
    assert violation_polynomial(CnfFormula(1, (clause(1),))).terms == (-(1 - x(1, 1))).terms
    contradiction = CnfFormula(1, (clause(1), clause(-1)))
    assert violation_polynomial(contradiction).terms == MultiPoly.constant(1, -1).terms


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


def _whole_vertex_fields(poly, n):
    """The whole-table routine, kept as a reference: the zeta transform of
    all 2^n vertices in one packed integer, ``n.bit_length()`` guard bits
    per field.  Returns ``(fields, offset, scale)``."""
    scale = lcm(*(coeff.denominator for coeff in poly.terms.values()))
    scaled = {}
    for exps, coeff in poly.terms.items():
        mask = sum(1 << i for i, e in enumerate(exps) if e)
        scaled[mask] = scaled.get(mask, 0) + coeff.numerator * (scale // coeff.denominator)
    offset = sum(map(abs, scaled.values()))
    scaled[0] = scaled.get(0, 0) + offset
    bits = (2 * offset).bit_length()
    value_mask = (1 << bits) - 1
    nbytes = max(1, -(-(bits + n.bit_length()) // 8))
    nbytes = min((k for k in _FIELD_TYPECODES if k >= nbytes), default=nbytes)
    width = 8 * nbytes
    table = bytearray(nbytes << n)
    for mask, coeff in scaled.items():
        table[mask * nbytes:(mask + 1) * nbytes] = \
            (coeff & value_mask).to_bytes(nbytes, "little")
    packed = int.from_bytes(table, "little")
    for i, low in _clear_bit_slots(value_mask, width, n):
        packed += (packed & low) << (width << i)
    packed &= _repeat(value_mask, width, width << n)
    return _unpack(packed, nbytes, n), offset, scale


def _whole_violation_counts(formula):
    """The whole-table routine, kept as a reference: each clause's
    violating set over all 2^n assignments in byte-wide slots, summed."""
    n = formula.n_vars
    bits = len(formula.clauses).bit_length()
    nbytes = min(k for k in _FIELD_TYPECODES if 8 * k >= bits)
    width = 8 * nbytes
    clear = dict(_clear_bit_slots(1, width, n))
    ones = _repeat(1, width, width << n)
    total = 0
    for clause in formula.clauses:
        violating = ones
        for lit in clause:
            zeros = clear[lit.variable - 1]
            violating &= ones ^ zeros if lit.negated else zeros
        total += violating
    return _unpack(total, nbytes, n)


def _fields(tiles, nbytes, n):
    """The fields of the packed tiles of a scan over n variables, in id
    order."""
    b = min(n, layer.TILE_BITS)
    return list(chain.from_iterable(_unpack(packed, nbytes, b) for packed in tiles))


def _counts(formula):
    """``violation_counts`` in the narrowest fields that hold the clause
    count, in id order."""
    nbytes = min(k for k in _FIELD_TYPECODES if 8 * k >= len(formula.clauses).bit_length())
    return _fields(violation_counts(formula, nbytes), nbytes, formula.n_vars)


def _vertex_values(poly, n):
    """Exact values of ``poly`` on all 2^n vertices, indexed by vertex id
    (``int`` when integral, else ``Fraction``), read from the packed
    field tiles."""
    tiles, offset, scale, nbytes = vertex_field_tiles(poly, n)
    return [as_rational(Fraction(field - offset, scale)) for field in _fields(tiles, nbytes, n)]


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
def test_zeta_vertex_values_in_fields_across_a_width_boundary(n, monkeypatch):
    # the sum of |coefficients| on either side of each field-width boundary:
    # 2 * offset takes k + 1 or k + 2 bits and 4 guard bits sit above them,
    # so the fields are 1 | 2, 2 | 4 and 4 | 8 bytes wide, and 8 | 9 bytes,
    # past every machine width; with one sign throughout, the all-ones
    # vertex takes the extreme value +offset or -offset.  At 8 and 12 tile
    # bits every tile has the width, and the tiles make up the whole table.
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
            whole = list(_whole_vertex_fields(poly, n)[0])
            reference = _brute_force_max_by_list_zeta(poly, n)
            for tile_bits in (8, 12):
                monkeypatch.setattr(layer, "TILE_BITS", tile_bits)
                tiles, packed_offset, scale, nbytes = vertex_field_tiles(poly, n)
                tiles = list(tiles)
                assert (packed_offset, scale, nbytes) == (offset, 1, width)
                assert len(tiles) == 1 << (n - tile_bits)
                assert {getattr(_unpack(packed, nbytes, tile_bits), "itemsize", 9)
                        for packed in tiles} == {width}
                assert _fields(tiles, nbytes, n) == whole
                values = _vertex_values(poly, n)
                assert values == _vertex_values_oracle(poly, n)
                assert values[-1] == sign * offset
                assert brute_force_max(poly, n) == reference
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
    assert _counts(formula) == [
        violated_clause_count(formula, tuple((vid >> i) & 1 for i in range(n)))
        for vid in range(1 << n)]


def test_violation_counts_fields_widen_with_the_clause_count():
    # 255 clauses fit one byte per vertex, 256 need two, and narrower fields
    # are refused; every clause is violated at the all-zeros vertex
    for clauses, nbytes in ((255, 1), (256, 2)):
        formula = CnfFormula(2, (clause(1, 2),) * clauses)
        counts, = violation_counts(formula, nbytes)
        assert list(_unpack(counts, nbytes, 2)) == [clauses, 0, 0, 0]
        with pytest.raises(ValueError):
            violation_counts(formula, nbytes - 1)


def test_enumeration_guards():
    with pytest.raises(TooLargeError):
        brute_force_max(MultiPoly(25), 25)
    with pytest.raises(TooLargeError):
        brute_force_sat(CnfFormula(25, ()))
    with pytest.raises(TooLargeError):
        violation_counts(CnfFormula(25, ()), 1)


# ------------------------------------------------------------- tiles --


def _poly_with_values(values, n):
    """The multilinear polynomial with ``values[v]`` at vertex id ``v``:
    its coefficients are the Moebius transform of the values."""
    coeffs = list(values)
    for i in range(n):
        for vid in range(1 << n):
            if vid >> i & 1:
                coeffs[vid] -= coeffs[vid ^ (1 << i)]
    return MultiPoly(n, {tuple((mask >> i) & 1 for i in range(n)): coeff
                         for mask, coeff in enumerate(coeffs) if coeff})


def _monomial(n, mask):
    return MultiPoly(n, {tuple((mask >> i) & 1 for i in range(n)): 1})


def _random_clauses(rng, n, count):
    clauses = []
    for _ in range(count):
        variables = rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
        clauses.append(tuple(Literal(v, rng.random() < 0.5) for v in variables))
    return tuple(clauses)


@pytest.mark.parametrize("tile_bits", [2, 3])
def test_tiles_match_the_whole_table_references(tile_bits, monkeypatch):
    monkeypatch.setattr(layer, "TILE_BITS", tile_bits)
    rng = random.Random(71 + tile_bits)
    for n in range(11):
        for _ in range(6):
            terms = {
                tuple(rng.randint(0, 2) for _ in range(n)):
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for _ in range(rng.randint(0, 8))
            }
            poly = MultiPoly(n, terms)
            tiles, offset, scale, nbytes = vertex_field_tiles(poly, n)
            tiles = list(tiles)
            whole, whole_offset, whole_scale = _whole_vertex_fields(poly, n)
            assert (offset, scale) == (whole_offset, whole_scale)
            assert [len(_unpack(packed, nbytes, min(n, tile_bits))) for packed in tiles] == \
                [1 << min(n, tile_bits)] * (1 << max(0, n - tile_bits))
            assert _fields(tiles, nbytes, n) == list(whole)
            assert brute_force_max(poly, n) == _brute_force_max_by_list_zeta(poly, n)

            formula = CnfFormula(n, _random_clauses(rng, n, rng.randint(0, 24)) if n else ())
            assert brute_force_sat(formula) == _brute_force_sat_by_loop(formula)
            assert _counts(formula) == \
                list(_whole_violation_counts(formula))
            assert cli.certify_formula(formula, rng.randrange(1 << n)) == (True, None)


def test_tiled_max_keeps_the_lowest_argmax_across_tile_boundaries(monkeypatch):
    monkeypatch.setattr(layer, "TILE_BITS", 2)
    # tiles of four ids: the maximum 3 sits at in-tile position 3 of tile 1
    # and position 0 of tiles 2 and 3; a lesser 2 comes first, in tile 0
    values = [0] * 16
    values[1], values[7], values[8], values[12] = 2, 3, 3, 3
    poly = _poly_with_values(values, 4)
    assert _vertex_values(poly, 4) == values
    assert brute_force_max(poly, 4) == (3, bits_from_id(7, 4))
    # a tie inside the last tile only
    values = [-1] * 16
    values[14] = values[15] = 0
    assert brute_force_max(_poly_with_values(values, 4), 4) == (0, bits_from_id(14, 4))


@pytest.mark.parametrize("tile_bits", [2, 3])
def test_tiled_sat_finds_a_witness_in_the_last_tile_and_refutes_unsat(tile_bits, monkeypatch):
    monkeypatch.setattr(layer, "TILE_BITS", tile_bits)
    for n in range(2, 11):
        # x2 .. xn all 1: the satisfying ids are the last two, in the last tile
        forced = tuple(clause(k) for k in range(2, n + 1))
        formula = CnfFormula(n, forced)
        assert brute_force_sat(formula) == (True, bits_from_id((1 << n) - 2, n))
        assert brute_force_max(violation_polynomial(formula), n) == \
            (0, bits_from_id((1 << n) - 2, n))
        assert cli.certify_formula(formula, (1 << n) - 1) == (True, None)
        # and x2 = 0 as well: nothing satisfies
        formula = CnfFormula(n, forced + (clause(-2),))
        assert brute_force_sat(formula) == (False, None)
        assert brute_force_max(violation_polynomial(formula), n)[0] == -1
        assert _counts(formula) == \
            list(_whole_violation_counts(formula))
        assert cli.certify_formula(formula, 1) == (True, None)


@pytest.mark.parametrize("tile_bits", [2, 3])
def test_certify_reports_the_lowest_lawless_vertex_across_tiles(tile_bits, monkeypatch):
    monkeypatch.setattr(layer, "TILE_BITS", tile_bits)
    n = 6
    formula = CnfFormula(n, (clause(1, 2), clause(-3, 5, 6)))  # id 1 satisfies it
    # coefficients off by -1: the values drop at every id that contains one
    # of their masks, so the lowest lawless id is the lowest mask
    for masks in ((0b000110,), (0b101000,), (0b110001,), (0b111000,),
                  (0b001011, 0b010001)):  # 11 and 17: tile positions 3 and 1
        off = sum((_monomial(n, mask) for mask in masks), MultiPoly(n))
        monkeypatch.setattr(cli, "violation_polynomial",
                            lambda f: violation_polynomial(f) - off)
        assert cli.certify_formula(formula, 0) == (
            False, {"reason": "per-vertex law violated",
                    "vertex": list(bits_from_id(min(masks), n))})


def test_certify_law_fields_hold_the_clause_count(monkeypatch):
    # a polynomial far narrower than its formula's counts: the zero
    # polynomial has offset 0, and x1 = 0 violates all 300 clauses, so the
    # law's fields must widen for the counts, not only for the values
    n = 3
    formula = CnfFormula(n, (clause(1),) * 300)
    monkeypatch.setattr(cli, "violation_polynomial", lambda f: MultiPoly(n))
    assert cli.certify_formula(formula, 5) == (
        False, {"reason": "per-vertex law violated", "vertex": [0, 0, 0]})
    tiles, offset, scale, nbytes = vertex_field_tiles(MultiPoly(n), n, 300)
    assert (offset, scale, nbytes) == (0, 1, 2)


def test_scans_hold_one_tile_at_a_time(monkeypatch):
    """At n = TILE_BITS + 4 no packed integer or field array the oracles
    build spans more than 2^TILE_BITS vertices."""
    n = layer.TILE_BITS + 4
    spans = []

    def recording(name, measure):
        original = getattr(satreduce, name)

        def wrapper(*args):
            spans.append((name, measure(*args)))
            return original(*args)
        monkeypatch.setattr(satreduce, name, wrapper)

    recording("_repeat", lambda block, period, length: length // period)
    recording("_clear_bit_slots", lambda slot, width, bits: 1 << bits)
    recording("_unpack", lambda packed, nbytes, bits:
              max(1 << bits, -(-packed.bit_length() // (8 * nbytes))))
    clause_tiles = satreduce._clause_tiles

    def counted_clause_tiles(formula, b, width, combine):
        for table in clause_tiles(formula, b, width, combine):
            spans.append(("_clause_tiles", -(-table.bit_length() // width)))
            yield table
    monkeypatch.setattr(satreduce, "_clause_tiles", counted_clause_tiles)

    rng = random.Random(73)
    formula = CnfFormula(n, _random_clauses(rng, n, 40) + (clause(n - 1, n),))
    poly = violation_polynomial(formula)
    brute_force_max(poly, n)
    assert [name for name, _ in spans].count("_unpack") == 16
    brute_force_sat(formula)
    list(violation_counts(formula, 1))
    assert cli.certify_formula(formula, (1 << n) - 1) == (True, None)
    assert {name for name, _ in spans} == \
        {"_repeat", "_clear_bit_slots", "_unpack", "_clause_tiles"}
    assert max(span for _, span in spans) == 1 << layer.TILE_BITS


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
