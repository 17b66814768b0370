import random
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ
from sympy.polys.rings import ring

from pivotforge import (
    AmbiguousImprovementError,
    AxisDirection,
    DimensionMismatchError,
    LinearObjective,
    LowerBoundPolynomial,
    MultiPoly,
    MultiPolyObjective,
    PaddedObjective,
    improving_dimension,
    lower_bound_terms,
)
from pivotforge.boxes import bits_from_id
from pivotforge import objectives
from pivotforge.objectives import _evaluate_value

small_rationals = st.fractions(min_value=-3, max_value=4, max_denominator=5).map(Fraction)


# Routes independent of the oracles: the recursion or an expanded polynomial
# run over sympy's ``QQ[mu]`` along a line, and differentiated there.
QQ_MU, mu = ring("mu", QQ)


def _line_coords(x: tuple, d: AxisDirection) -> tuple:
    """Coordinates of ``x + mu*d``, with coordinate ``d.coord`` the
    ``QQ[mu]`` element ``x_k + sign * mu``: evaluating an objective's
    recursion or expanded polynomial at them gives its restriction to the
    line."""
    k = d.coord - 1
    return x[:k] + (x[k] + d.sign * mu,) + x[k + 1:]


def _coefficients(p) -> tuple:
    """The ``QQ[mu]`` element ``p``'s coefficients, lowest power first."""
    return tuple(Fraction(int(c.numerator), int(c.denominator))
                 for c in reversed(p.to_dense()))


def _substituted_restriction(evaluate, x: tuple, d: AxisDirection) -> tuple:
    """Coefficients of the derivative of ``mu -> evaluate(x + mu*d)``, with
    ``evaluate`` run over ``QQ[mu]``."""
    return _coefficients(QQ_MU(evaluate(_line_coords(x, d))).diff(mu))


def partial_closed_form(n: int, k: int, bits: tuple) -> int:
    """Closed form of the k-th partial derivative at a 0/1 vertex, one k at
    a time (the oracle's vertex sweep gives every k in one pass):

        (1 - 2 a_{k+1}) * sum_{i=1..k} 2^{i-1} prod_{j=i..k-1} (1 - 2 x_j)
        - 2^k (1 - 2 x_k) (1 - x_{k-1} + sum_{i<=k-2} x_i),   x_0 := 1.

    For ``k = 1`` this collapses to ``1 - 2 a_2``."""
    assert len(bits) == n and 1 <= k <= n
    a_next = sum(bits[k:]) & 1  # a_{k+1}, the parity of x_{k+1} .. x_n
    t = sum((1 << (i - 1)) * prod(1 - 2 * bits[j - 1] for j in range(i, k))
            for i in range(1, k + 1))
    s = 1 - bits[k - 2] + sum(bits[:k - 2]) if k >= 2 else 0
    return (1 - 2 * a_next) * t - (1 << k) * (1 - 2 * bits[k - 1]) * s


def _forward(point: tuple, k: int) -> tuple:
    """``(value, k-th partial)`` of the recursion at ``point``: the
    recursion run at ``point + mu*e_k`` over ``QQ[mu]`` and its derivative
    in ``mu``, both at ``mu = 0`` (forward mode, as with a dual number)."""
    line = QQ_MU(_evaluate_value(_line_coords(point, AxisDirection(k, 1))))
    return line(0), line.diff(mu)(0)


def _at(g, x):
    """The restriction ``g`` evaluated at ``x``, in ``QQ[mu]``."""
    return QQ_MU.from_list([QQ.convert(c) for c in reversed(g.coeffs)])(x)


def _canonical(values) -> bool:
    """Every value is an int or a Fraction that is not integral."""
    return all(type(c) is int or c.denominator != 1 for c in values)


# ------------------------------------------------- recursion values --


def test_f_values_on_small_vertices():
    f2 = LowerBoundPolynomial(2)
    assert [f2.value(b) for b in [(0, 0), (1, 0), (1, 1), (0, 1)]] == [0, 1, 2, 3]
    assert LowerBoundPolynomial(3).value((0, 0, 1)) == 7
    assert f2.value((0, Fraction(1, 2))) == Fraction(1, 2)


def test_vertex_values_are_a_permutation(oracle_for):
    for n in range(1, 9):
        oracle = oracle_for(n)
        values = sorted(oracle.value(bits_from_id(v, n)) for v in range(1 << n))
        assert values == list(range(1 << n))


def test_unique_maximum_at_last_unit_vector(oracle_for):
    rng = random.Random(3)
    for n in range(1, 9):
        oracle = oracle_for(n)
        e_n = tuple(1 if i == n - 1 else 0 for i in range(n))
        top = 2**n - 1
        assert oracle.value(e_n) == top
        for vid in range(1 << n):
            bits = bits_from_id(vid, n)
            if bits != e_n:
                assert oracle.value(bits) < top
        for _ in range(40):  # interior points stay below the vertex maximum
            point = tuple(Fraction(rng.randint(0, 12), 12) for _ in range(n))
            assert oracle.value(point) <= top


# ------------------------------------------------ partial derivatives --


def test_partial_closed_form_examples():
    for n in (1, 2, 5, 9):
        assert partial_closed_form(n, 1, (0,) * n) == 1
    assert partial_closed_form(2, 2, (1, 0)) == 1
    assert partial_closed_form(3, 3, (0, 0, 0)) == -1


def test_closed_form_equals_forward_mode_on_all_vertices(oracle_for):
    for n in range(1, 9):
        oracle = oracle_for(n)
        for vid in range(1 << n):
            bits = bits_from_id(vid, n)
            for k in range(1, n + 1):
                assert partial_closed_form(n, k, bits) == oracle.partial(bits, k)


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=80, deadline=None)
def test_forward_mode_equals_boxed_dual_numbers(n, data):
    """The unboxed forward-mode partial must agree with differentiating the
    shared recursion over sympy's ``QQ[mu]`` along ``e_k``."""
    point = tuple(data.draw(small_rationals) for _ in range(n))
    k = data.draw(st.integers(1, n))
    oracle = LowerBoundPolynomial(n)
    assert oracle.partial(point, k) == _forward(point, k)[1]


def test_gradient_vector_and_memoization(oracle_for):
    oracle = oracle_for(2)
    assert oracle.gradient((0, 0)) == (1, -1)
    assert oracle.gradient((0, 0)) == LowerBoundPolynomial(2).gradient((0, 0))


mixed_scalars = st.one_of(st.integers(min_value=-4, max_value=5), small_rationals)


@given(st.integers(min_value=1, max_value=12), st.data())
@settings(max_examples=150, deadline=None)
def test_gradient_equals_dual_number_forward_mode(n, data):
    """The value and gradient must equal the recursion run over sympy's
    ``QQ[mu]`` along each coordinate and differentiated there, at any
    rational point, whatever mix of int and Fraction coordinates it has."""
    point = tuple(data.draw(mixed_scalars) for _ in range(n))
    value, grad = LowerBoundPolynomial(n).value_and_gradient(point)
    assert _canonical((value,) + grad)
    for k in range(1, n + 1):
        assert (value, grad[k - 1]) == _forward(point, k)


def test_vertex_sweep_and_forward_partials_equal_expanded_polynomial_gradient(expand):
    """The gradient, from the vertex sweep at int vertices and from the
    forward-mode partials elsewhere, equals the symbolic gradient of the
    expanded polynomial."""
    rng = random.Random(17)
    for n in range(1, 7):
        oracle = LowerBoundPolynomial(n)
        explicit = MultiPolyObjective(expand(n))
        points = [bits_from_id(v, n) for v in range(1 << n)]
        points += [
            tuple(rng.choice([rng.randint(-3, 4), Fraction(rng.randint(-9, 9), rng.randint(2, 7))])
                  for _ in range(n))
            for _ in range(40)
        ]
        for point in points:
            assert oracle.gradient(point) == explicit.gradient(point)


def _refuse(*args):
    raise AssertionError("this route must not run here")


def _refuse_forward_partials_at_int_vertices(monkeypatch):
    """Make ``_partial_forward`` fail on a point of ``int`` 0/1
    coordinates, which the vertex sweep alone must serve."""
    forward = objectives._partial_forward

    def guarded(coords, k):
        if all(type(c) is int and c in (0, 1) for c in coords):
            _refuse()
        return forward(coords, k)

    monkeypatch.setattr(objectives, "_partial_forward", guarded)


def _vertex_reference(bits: tuple) -> tuple:
    """``(value, gradient)`` at a vertex from the recursion and the closed
    form, neither of which is the vertex sweep."""
    n = len(bits)
    return _evaluate_value(bits), tuple(partial_closed_form(n, k, bits)
                                        for k in range(1, n + 1))


def test_vertex_sweep_equals_recursion_and_closed_form(monkeypatch):
    """At every vertex for n <= 10 the forward vertex sweep, which alone
    serves int 0/1 points, gives the recursion's value, and every partial
    is ``partial_closed_form``."""
    references = {}
    for n in range(1, 11):
        for vid in range(1 << n):
            bits = bits_from_id(vid, n)
            references[bits] = _vertex_reference(bits)
    _refuse_forward_partials_at_int_vertices(monkeypatch)
    for bits, (value, grad) in references.items():
        oracle = LowerBoundPolynomial(len(bits))
        assert oracle.value_and_gradient(bits) == (value, grad)
        assert oracle.gradient(bits) == grad
        assert all(type(c) is int for c in (value,) + grad)


def test_vertices_of_other_scalar_types_take_the_forward_partials(monkeypatch):
    """A point that is 0/1 by value but not made of ``int`` (here
    ``Fraction(0)`` and ``Fraction(1, 1)``, alone or mixed with ints) is
    not a vertex to the sweep choice: it takes the recursion and the
    forward-mode partials, and the replies equal those at the int vertex,
    in canonical form."""
    rng = random.Random(29)
    cases = []
    for n in range(1, 9):
        oracle = LowerBoundPolynomial(n)
        for vid in range(1 << n):
            bits = bits_from_id(vid, n)
            fractional = tuple(Fraction(b, 1) for b in bits)
            mixed = tuple(Fraction(b) if rng.random() < 0.5 else b for b in bits)
            if all(type(c) is int for c in mixed):
                mixed = (Fraction(bits[0]),) + bits[1:]
            cases.append((oracle, bits, oracle.value_and_gradient(bits), (fractional, mixed)))
    monkeypatch.setattr(objectives, "_vertex_sweep", _refuse)
    for oracle, bits, expected, points in cases:
        for point in points:
            value, grad = oracle.value_and_gradient(point)
            assert (value, grad) == expected
            assert oracle.gradient(point) == grad
            assert all(type(c) is int for c in (value,) + grad)


def test_padded_vertex_sweep_agrees(monkeypatch):
    """``PaddedObjective`` hands the head of a vertex to the sweep and
    gives what the recursion and the closed form give on the head, plus
    zeros."""
    _refuse_forward_partials_at_int_vertices(monkeypatch)
    for head in range(1, 6):
        inner = LowerBoundPolynomial(head)
        for n in (head, head + 3):
            padded = PaddedObjective(inner, n)
            for vid in range(1 << n):
                bits = bits_from_id(vid, n)
                value, grad = _vertex_reference(bits[:head])
                expected = (value, grad + (0,) * (n - head))
                assert padded.value_and_gradient(bits) == expected
                assert padded.gradient(bits) == expected[1]
                fractional = tuple(Fraction(b) for b in bits)
                assert padded.value_and_gradient(fractional) == expected


def test_improving_dimension_reads_its_predicates_not_the_oracle():
    """``improving_dimension`` cross-checks the oracle's gradient signs
    against predicates from its own prefix/parity sweep.  Given an oracle
    whose gradient is zero everywhere, the predicate side must still name
    the improving coordinate that the closed form gives."""

    class ZeroGradient(LowerBoundPolynomial):
        def gradient(self, x):
            return (0,) * self.n

    n = 6
    wrong = ZeroGradient(n)
    for vid in range(1 << n):
        bits = bits_from_id(vid, n)
        improving = [
            k for k, bit in enumerate(bits, start=1)
            if (partial_closed_form(n, k, bits) > 0, bit) in ((True, 0), (False, 1))
            and partial_closed_form(n, k, bits) != 0
        ]
        if not improving:
            assert improving_dimension(bits, wrong) is None
            continue
        with pytest.raises(AmbiguousImprovementError) as caught:
            improving_dimension(bits, wrong)
        assert caught.value.gradient_side == []
        assert caught.value.predicate_side == improving


def _oracles_at(n: int, data) -> list:
    """One oracle of each kind on n dimensions, with drawn coefficients."""
    terms = {}
    for _ in range(data.draw(st.integers(0, 6))):
        exps = tuple(data.draw(st.integers(0, 3)) for _ in range(n))
        terms[exps] = data.draw(mixed_scalars)
    head = data.draw(st.integers(1, n))
    return [
        LowerBoundPolynomial(n),
        LinearObjective(tuple(data.draw(mixed_scalars) for _ in range(n))),
        MultiPolyObjective(MultiPoly(n, terms)),
        PaddedObjective(LowerBoundPolynomial(head), n),
    ]


@given(st.integers(min_value=1, max_value=10), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_value_and_gradient_equals_value_and_gradient_calls(n, vertex, data):
    """The fused call the engine makes once per pass must return exactly
    ``(value(x), gradient(x))`` for all four oracles, at 0/1 vertices and
    at rational points off them."""
    if vertex:
        point = bits_from_id(data.draw(st.integers(0, (1 << n) - 1)), n)
    else:
        point = tuple(data.draw(mixed_scalars) for _ in range(n))
    oracles = _oracles_at(n, data)
    for oracle in oracles:
        value, grad = oracle.value_and_gradient(point)
        assert (value, grad) == (oracle.value(point), oracle.gradient(point))
        # canonical scalars: an integral value is an int, not a Fraction
        assert _canonical((value,) + grad)
    linear = oracles[1]
    unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    as_polynomial = MultiPolyObjective(MultiPoly(n, dict(zip(unit, linear.c))))
    assert linear.value_and_gradient(point) == as_polynomial.value_and_gradient(point)


@pytest.mark.parametrize("c", [
    (3, -1, 0),
    (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)),
    (4, Fraction(-3, 8), 0, Fraction(7, 12), -9),
    (Fraction(-1, 10**30), 10**40, Fraction(-10**25 - 1, 6)),
])
def test_linear_numerators_over_one_denominator_reproduce_c(c):
    objective = LinearObjective(c)
    den = objective._denominator
    assert type(den) is int and den == lcm(*(Fraction(ci).denominator for ci in c))
    assert all(type(num) is int for num in objective._numerators)
    assert tuple(Fraction(num, den) for num in objective._numerators) == tuple(c)


# ------------------------------------------------- edge restrictions --


def test_linear_edge_restriction_is_constant():
    objective = LinearObjective((3, Fraction(-1, 2)))
    g = objective.edge_restriction((0, 0), AxisDirection(1, 1))
    assert g.coeffs == (3,)
    g = objective.edge_restriction((1, 1), AxisDirection(2, -1))
    assert g.coeffs == (Fraction(1, 2),)
    assert objective.gradient((Fraction(1, 3), 1)) == (3, Fraction(-1, 2))


def test_improving_edge_restriction_is_constant_positive(oracle_for):
    for n in range(1, 7):
        oracle = oracle_for(n)
        for vid in range(1 << n):
            bits = bits_from_id(vid, n)
            k = improving_dimension(bits, oracle)
            if k is None:
                continue
            g = oracle.edge_restriction(bits, AxisDirection(k, 1 - 2 * bits[k - 1]))
            assert len(g.coeffs) == 1 and g.coeffs[0] > 0


def test_off_vertex_edge_restriction_depends_on_parameter(oracle_for):
    g = oracle_for(2).edge_restriction((0, Fraction(1, 2)), AxisDirection(2, 1))
    assert g.degree >= 1


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=80, deadline=None)
def test_edge_restriction_matches_generic_polynomial_ring_route(n, data):
    """The oracle's affine restriction must agree with running the
    recursion over sympy's ``QQ[mu]`` along the edge."""
    point = tuple(data.draw(small_rationals) for _ in range(n))
    k = data.draw(st.integers(1, n))
    s = data.draw(st.sampled_from([1, -1]))
    d = AxisDirection(k, s)
    expected = _substituted_restriction(_evaluate_value, point, d)
    oracle = LowerBoundPolynomial(n)
    assert oracle.edge_restriction(point, d).coeffs == expected
    # the engine's route: the directional derivative from the gradient
    slope = s * oracle.gradient(point)[k - 1]
    assert oracle.edge_restriction(point, d, slope).coeffs == expected


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=100, deadline=None)
def test_edge_restriction_matches_gradient_along_edge(n, data):
    """For each of the four oracles, the restriction along ``d`` is the
    directional derivative along the edge; handed ``slope = grad f(x)^T d``,
    as the engine hands it, the reply is the same polynomial.  Points lie
    off the vertices, and every coefficient is canonical: an int, or a
    Fraction that is not integral."""
    point = tuple(data.draw(mixed_scalars) for _ in range(n))
    if all(c in (0, 1) for c in point):
        point = (Fraction(1, 2),) + point[1:]
    k = data.draw(st.integers(1, n))
    c = data.draw(st.sampled_from([1, -1]))
    d = AxisDirection(k, c)
    for oracle in _oracles_at(n, data):
        g = oracle.edge_restriction(point, d)
        assert _canonical(g.coeffs)
        for step in (Fraction(0), Fraction(1, 3), Fraction(-2), Fraction(5, 2)):
            shifted = tuple(
                point[i] + c * step if i == k - 1 else point[i] for i in range(n)
            )
            assert _at(g, step) == c * oracle.gradient(shifted)[k - 1]
            if isinstance(oracle, LowerBoundPolynomial):
                assert _at(g, step) == c * oracle.partial(shifted, k)
        slope = c * oracle.gradient(point)[k - 1]
        with_slope = oracle.edge_restriction(point, d, slope)
        assert with_slope.coeffs == g.coeffs and _canonical(with_slope.coeffs)


def test_edge_restriction_off_the_vertices_is_canonical():
    g = LowerBoundPolynomial(3).edge_restriction(
        (Fraction(1, 2), Fraction(1, 2), 0), AxisDirection(3, 1))
    assert g.coeffs == (-4, 16) and _canonical(g.coeffs)
    explicit = MultiPolyObjective(MultiPoly(1, {(2,): Fraction(1, 3)}))
    g = explicit.edge_restriction((Fraction(3, 2),), AxisDirection(1, 1))
    assert g.coeffs == (1, Fraction(2, 3)) and _canonical(g.coeffs)


# ------------------------------------------------------- expansion --


def test_expansion_degrees(expand):
    assert expand(1).total_degree == 1
    assert expand(2).total_degree == 3
    for n in (3, 4, 5, 6, 7):
        assert expand(n).total_degree == n


def test_expansion_of_one_variable_is_identity(expand):
    poly = expand(1)
    assert poly.terms == {(1,): 1}


def test_expansion_matches_recursive_values(oracle_for, expand):
    rng = random.Random(11)
    for n in range(1, 9):
        oracle = oracle_for(n)
        poly = expand(n)
        for vid in range(1 << n):
            bits = bits_from_id(vid, n)
            assert poly.eval(bits) == oracle.value(bits)
        # 500 random rational points at the largest size, fewer below
        for _ in range(500 if n == 8 else 60):
            point = tuple(
                Fraction(rng.randint(-8, 12), rng.randint(1, 7)) for _ in range(n)
            )
            assert poly.eval(point) == oracle.value(point)


def test_expanded_f2_at_example_point(expand):
    assert expand(2).eval((0, 1)) == 3


def test_expansion_equals_the_recursion_over_sympy(expand):
    """``expand`` runs the recursion over ``MultiPoly``; run over sympy's
    ``QQ[x_1..x_n]`` instead, it has the same terms, and so has the closed
    form.  Every variable's exponent is at most 2, so each partial is
    affine along its own axis: ``verify constancy`` compares it at an
    edge's two ends only."""
    for n in range(1, 11):
        _, *xs = ring(",".join(f"x{i}" for i in range(1, n + 1)), QQ)
        f = _evaluate_value(tuple(xs))
        assert dict(f.items()) == expand(n).terms == dict(lower_bound_terms(n))
        assert max(f.degree(x) for x in xs) <= 2


def test_closed_form_terms_are_the_sorted_expansion(expand):
    """``lower_bound_terms`` yields the recursion's terms in graded-lex
    order: ``2^n - 1`` sets of variables and ``i`` b-terms of degree 2 and
    3 for each ``i >= 2`` that no set shares."""
    for n in range(1, 13):
        terms = list(lower_bound_terms(n))
        assert terms == expand(n).sorted_terms()
        assert len(terms) == 2 ** n - 1 + (n - 1) * (n + 2) // 2


# ---------------------------------------------------------- padding --


def test_padding_reads_only_the_head(oracle_for):
    padded = PaddedObjective(oracle_for(2), 4)
    assert padded.value((0, 1, 1, 1)) == 3
    grad = padded.gradient((0, 1, 1, 0))
    assert grad[2:] == (0, 0)
    assert grad[:2] == oracle_for(2).gradient((0, 1))
    g = padded.edge_restriction((0, 0, 1, 0), AxisDirection(4, 1))
    assert g.coeffs == ()
    g = padded.edge_restriction((0, 0, 1, 0), AxisDirection(1, 1))
    assert g.coeffs == oracle_for(2).edge_restriction((0, 0), AxisDirection(1, 1)).coeffs


def test_padding_to_same_dimension_is_identity(oracle_for):
    oracle = oracle_for(3)
    padded = PaddedObjective(oracle, 3)
    for vid in range(8):
        bits = bits_from_id(vid, 3)
        assert padded.value(bits) == oracle.value(bits)
        assert padded.gradient(bits) == oracle.gradient(bits)


def test_padding_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        PaddedObjective(LowerBoundPolynomial(4), 2)


# ------------------------------------------- polynomial-backed oracle --


def test_multipoly_objective_agrees_with_recursive_oracle(oracle_for, expand):
    oracle = oracle_for(3)
    explicit = MultiPolyObjective(expand(3))
    rng = random.Random(5)
    for _ in range(60):
        point = tuple(Fraction(rng.randint(-4, 8), rng.randint(1, 5)) for _ in range(3))
        assert explicit.value(point) == oracle.value(point)
        assert explicit.gradient(point) == oracle.gradient(point)
        k = rng.randint(1, 3)
        sign = rng.choice([1, -1])
        d = AxisDirection(k, sign)
        assert explicit.edge_restriction(point, d).coeffs == \
            oracle.edge_restriction(point, d).coeffs


# The integer common-denominator oracle against its references: ``value``
# (generic evaluation), ``gradient`` (symbolic partials) and the restriction
# by substitution over sympy's ``QQ[mu]``.

coefficients = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**12),
)
point_scalars = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-6, max_value=6, max_denominator=60),
)


@st.composite
def polynomials(draw, n: int):
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        exps = tuple(draw(st.integers(0, 4)) for _ in range(n))
        terms[exps] = draw(coefficients)
    return MultiPoly(n, terms)


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=120, deadline=None)
def test_multipoly_value_and_gradient_equals_references(n, data):
    poly = data.draw(polynomials(n))
    point = tuple(data.draw(point_scalars) for _ in range(n))
    objective = MultiPolyObjective(poly)
    value, grad = objective.value_and_gradient(point)
    assert value == objective.value(point)
    assert grad == objective.gradient(point)
    assert _canonical((value,) + grad)


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=120, deadline=None)
def test_multipoly_edge_restriction_equals_substitution(n, data):
    """Along a unit direction ``±e_k``, with and without ``slope``, the
    Taylor-shift restriction is the derivative of the polynomial evaluated
    on the line."""
    poly = data.draw(polynomials(n))
    point = tuple(data.draw(point_scalars) for _ in range(n))
    k = data.draw(st.integers(1, n))
    sign = data.draw(st.sampled_from([1, -1]))
    d = AxisDirection(k, sign)
    objective = MultiPolyObjective(poly)
    expected = _substituted_restriction(poly.eval, point, d)
    g = objective.edge_restriction(point, d)
    assert g.coeffs == expected
    assert _canonical(g.coeffs)
    slope = sign * objective.gradient(point)[k - 1]
    assert objective.edge_restriction(point, d, slope).coeffs == expected


def test_multipoly_zero_and_constant_polynomials():
    for n in (1, 3):
        for poly in (MultiPoly(n), MultiPoly.constant(n, Fraction(-7, 3))):
            objective = MultiPolyObjective(poly)
            for point in ((0,) * n, (Fraction(1, 2),) + (-3,) * (n - 1)):
                value, grad = objective.value_and_gradient(point)
                assert value == (Fraction(-7, 3) if poly.terms else 0)
                assert grad == (0,) * n and _canonical((value,) + grad)
                for d in (AxisDirection(1, 1), AxisDirection(n, -1)):
                    assert objective.edge_restriction(point, d).coeffs == ()


def test_multipoly_oracle_refuses_float_coordinates():
    objective = MultiPolyObjective(MultiPoly(2, {(2, 1): Fraction(1, 3), (0, 1): 2}))
    for point in ((0.5, 0), (0, 1.0)):
        with pytest.raises(TypeError):
            objective.value_and_gradient(point)
        with pytest.raises(TypeError):
            objective.edge_restriction(point, AxisDirection(1, 1))
