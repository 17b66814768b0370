import dataclasses
import io
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pivotforge import (
    AxisDirection,
    BoxProgram,
    DegenerateVertexError,
    InfeasiblePointError,
    LinearObjective,
    MultiPoly,
    MultiPolyObjective,
    NotAVertexError,
    PaddedObjective,
    active_set_run,
    active_set_steps,
    equivalence_check,
    improving_candidates,
    make_rule,
    simplex_run,
)
from pivotforge.engine import (
    OUTCOME_CRITICAL_POINT,
    OUTCOME_ERROR,
    RULE_NAMES,
    SPOOL_BATCH,
    STOP_MAX_ITER,
    STOP_NOT_REPRESENTABLE,
    Candidate,
    LowestIndexRule,
    Walk,
    write_spliced,
    write_walk_json,
)
from pivotforge import engine
from pivotforge.scalars import format_rational


def cube(n):
    return BoxProgram.unit_cube(n)


# a tight row left behind: f = 2x1 - x1^2 + x2 from the origin.  Moving x1
# first reaches its upper bound at the objective's root, so no row is added
# and row 1 stays tight but inactive; the next pass moves x2 to its bound
# and must offer rows 1 and 2, not only the moved coordinate's
STALE = MultiPolyObjective(MultiPoly(2, {(1, 0): 2, (2, 0): -1, (0, 1): 1}))


# ------------------------------------------------------- candidates --


def test_candidates_unique_on_hard_objective(oracle_for):
    program = cube(2)
    oracle = oracle_for(2)
    active = frozenset({3, 4})
    cands = improving_candidates(program, (0, 0), active, oracle.gradient((0, 0)))
    assert len(cands) == 1
    assert cands[0].direction == AxisDirection(1, 1)
    assert cands[0].overlap == 1
    assert cands[0].slope == 1


def test_candidates_empty_at_the_optimum(oracle_for):
    for n in (1, 3, 5):
        program = cube(n)
        e_n = tuple(1 if i == n - 1 else 0 for i in range(n))
        active = program.eq_set(e_n)
        assert improving_candidates(program, e_n, active, oracle_for(n).gradient(e_n)) == []


def test_candidates_tie_for_symmetric_linear_objective():
    program = cube(2)
    objective = LinearObjective((1, 1))
    cands = improving_candidates(program, (0, 0), frozenset({3, 4}),
                                 objective.gradient((0, 0)))
    assert [c.direction for c in cands] == [AxisDirection(1, 1), AxisDirection(2, 1)]


def test_candidates_are_the_box_unit_directions():
    program = BoxProgram((0, -1, 2), (2, 1, 5))
    assert program.unit_directions == tuple(
        (AxisDirection(k, 1), AxisDirection(k, -1)) for k in (1, 2, 3))
    objective = LinearObjective((1, -1, 0))
    cands = improving_candidates(program, (1, 0, 3), frozenset(), objective.gradient((1, 0, 3)))
    assert [c.direction for c in cands] == [AxisDirection(1, 1), AxisDirection(2, -1)]
    assert cands[0].direction is program.unit_directions[0][0]
    assert cands[1].direction is program.unit_directions[1][1]


def test_candidates_prefer_maximum_overlap():
    # at (1/2, 1) with active {2}: moving in coordinate 1 keeps row 2 tight
    # (overlap 1), moving down in coordinate 2 drops it (overlap 0)
    program = cube(2)
    objective = LinearObjective((1, -1))
    point = (Fraction(1, 2), 1)
    cands = improving_candidates(program, point, frozenset({2}), objective.gradient(point))
    assert [c.direction for c in cands] == [AxisDirection(1, 1)]


def _reference_candidates(program, x, active, grad):
    """``improving_candidates`` by its definition, with plain ``>`` and
    ``<`` on each gradient component."""
    n = program.n
    found = []
    for k in range(1, n + 1):
        lo, xk, hi, gk = program.lower[k - 1], x[k - 1], program.upper[k - 1], grad[k - 1]
        overlap = len(active) - (k in active) - (k + n in active)
        if gk > 0 and xk != hi:
            found.append(Candidate(AxisDirection(k, 1), gk, overlap))
        elif gk < 0 and xk != lo:
            found.append(Candidate(AxisDirection(k, -1), -gk, overlap))
    best = max((c.overlap for c in found), default=0)
    return found if len(found) < 2 else [c for c in found if c.overlap == best]


_TINY = Fraction(1, 10**30)
_components = st.one_of(
    st.sampled_from([0, _TINY, -_TINY, Fraction(0), 10**40 + 1, -(10**40) - 1,
                     Fraction(10**40 + 1, 3), Fraction(-(10**40) - 1, 7)]),
    st.integers(-5, 5),
    st.fractions(max_denominator=10**6).map(Fraction),
)


@st.composite
def _box_point_gradient(draw):
    n = draw(st.integers(1, 6))
    lower = tuple(draw(st.integers(-3, 3)) for _ in range(n))
    upper = tuple(lo + draw(st.sampled_from([1, 2, Fraction(1, 3), Fraction(7, 2)]))
                  for lo in lower)
    program = BoxProgram(lower, upper)
    at_vertex = draw(st.booleans())
    x = tuple(
        draw(st.sampled_from([lo, hi])) if at_vertex
        else draw(st.sampled_from([lo, hi, lo + (hi - lo) * Fraction(1, 3)]))
        for lo, hi in zip(lower, upper))
    tight = sorted(program.eq_set(x))
    active = frozenset(draw(st.sets(st.sampled_from(tight))) if tight else ())
    grad = tuple(draw(_components) for _ in range(n))
    return program, x, active, grad


@given(_box_point_gradient())
def test_candidate_signs_read_off_numerators_match_plain_comparisons(case):
    program, x, active, grad = case
    found = improving_candidates(program, x, active, grad)
    expected = _reference_candidates(program, x, active, grad)
    assert found == expected
    assert [type(c.slope) for c in found] == [type(c.slope) for c in expected]


# ------------------------------------------------------------ rules --


def _fake_candidates(coords):
    return [Candidate(AxisDirection(k, 1), slope, 0) for k, slope in coords]


def test_index_rules():
    cands = _fake_candidates([(1, 5), (3, 7)])
    assert make_rule("lowest-index").choose_direction(cands).direction.coord == 1
    assert make_rule("highest-index").choose_direction(cands).direction.coord == 3
    assert make_rule("highest-index").choose_addition([2, 5]) == 5


def test_steepest_rule_breaks_ties_by_lowest_coord():
    rule = make_rule("steepest")
    cands = _fake_candidates([(1, 5), (2, 7), (3, 7)])
    assert rule.choose_direction(cands).direction.coord == 2


def test_seeded_random_rule_reproducible():
    cands = _fake_candidates([(1, 1), (2, 1), (3, 1), (4, 1)])
    picks_a = [make_rule("random", 99).choose_direction(cands).direction.coord
               for _ in range(5)]
    picks_b = [make_rule("random", 99).choose_direction(cands).direction.coord
               for _ in range(5)]
    assert picks_a == picks_b
    rule = make_rule("random", 99)
    stream = [rule.choose_direction(cands).direction.coord for _ in range(20)]
    assert len(set(stream)) > 1  # actually uses its entropy


def test_seeded_random_rule_draws_as_a_generator_seeded_when_built():
    """The rule draws the stream of ``random.Random(seed)`` made with it,
    over interleaved direction and row picks."""
    for seed in range(100):
        rule, eager = make_rule("random", seed), random.Random(seed)
        shape = random.Random(-seed)  # which pick, among how many options
        for _ in range(12):
            size = shape.randint(1, 6)
            if shape.random() < 0.5:
                cands = _fake_candidates([(k, 1) for k in range(1, size + 1)])
                assert rule.choose_direction(cands) == cands[eager.randrange(size)]
            else:
                rows = list(range(10, 10 + size))
                assert rule.choose_addition(rows) == rows[eager.randrange(size)]


class CountingLowestIndexRule(LowestIndexRule):
    """The lowest-index rule, logging every call the engine makes to it."""

    def __init__(self):
        self.calls = []

    def choose_direction(self, candidates):
        self.calls.append(("direction", len(candidates)))
        return super().choose_direction(candidates)

    def choose_addition(self, rows):
        self.calls.append(("addition", tuple(rows)))
        return super().choose_addition(rows)


def test_forced_moves_do_not_call_the_rule(oracle_for):
    """Every pass of the n = 8 walk of F_n offers one direction, one
    blocking row and one entering row, and the engine takes each without
    asking the rule; so does the simplex loop on a single improving edge."""
    rule = CountingLowestIndexRule()
    assert active_set_run(cube(8), oracle_for(8), (0,) * 8, rule).iterations == 255
    assert simplex_run(cube(2), LinearObjective((1, -1)), (0, 0), rule).iterations == 1
    assert rule.calls == []


def test_the_rule_is_asked_whenever_it_has_a_choice():
    """``STALE`` offers two directions at the origin and two entering rows
    after its second pass: the rule picks both times."""
    rule = CountingLowestIndexRule()
    assert active_set_run(cube(2), STALE, (0, 0), rule).final_point == (1, 1)
    assert rule.calls == [("direction", 2), ("addition", (1, 2))]
    rule = CountingLowestIndexRule()
    simplex_run(cube(2), LinearObjective((1, 1)), (0, 0), rule)
    assert rule.calls == [("direction", 2)]


def test_builtin_rules_registry():
    for name in RULE_NAMES:
        assert make_rule(name).name == name
    with pytest.raises(ValueError):
        make_rule("nonsense")


# -------------------------------------------------- active-set runs --


def test_hard_objective_walks_every_vertex_of_the_square(oracle_for):
    program = cube(2)
    trajectory = active_set_run(program, oracle_for(2), (0, 0),
                                make_rule("lowest-index"))
    assert trajectory.outcome == OUTCOME_CRITICAL_POINT
    assert trajectory.iterations == 3
    assert trajectory.points() == [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert [program.vertex_id_or_none(p) for p in trajectory.points()] == [0, 1, 3, 2]
    assert all(r.num_candidates == 1 for r in trajectory.records)


def test_active_set_tracks_tight_rows_and_increases_value(oracle_for):
    program = cube(4)
    oracle = oracle_for(4)
    trajectory = active_set_run(program, oracle, (0,) * 4, make_rule("steepest"))
    previous = oracle.value((0,) * 4)
    active = set(program.eq_set((0,) * 4))
    for record in trajectory.records:
        assert tuple(sorted(active)) == record.active_before
        value = oracle.value(record.x_after)
        assert value > previous
        previous = value
        active.discard(record.removed_row)
        if record.added_row is not None:
            active.add(record.added_row)
        assert active == set(program.eq_set(record.x_after))


def test_all_rules_agree_on_the_hard_objective(oracle_for):
    # every pass offers exactly one candidate, so the four rules produce
    # identical trajectories record for record
    for n in range(1, 13):
        program = cube(n)
        oracle = oracle_for(n)
        reference = None
        for name in RULE_NAMES:
            trajectory = active_set_run(program, oracle, (0,) * n, make_rule(name, 3))
            assert all(r.num_candidates == 1 for r in trajectory.records)
            snapshot = [
                (r.x_before, r.active_before, r.direction, r.removed_row,
                 r.step, r.x_after, r.added_row)
                for r in trajectory.records
            ]
            if reference is None:
                reference = snapshot
            else:
                assert snapshot == reference


def test_zero_iteration_run():
    program = cube(3)
    trajectory = active_set_run(program, LinearObjective((-1, -2, -3)), (0, 0, 0),
                                make_rule("lowest-index"))
    assert trajectory.iterations == 0
    assert trajectory.outcome == OUTCOME_CRITICAL_POINT
    assert trajectory.points() == [(0, 0, 0)]


def test_max_iter_guard(oracle_for):
    trajectory = active_set_run(cube(2), oracle_for(2), (0, 0),
                                make_rule("lowest-index"), max_iter=1)
    assert trajectory.outcome == OUTCOME_ERROR
    assert trajectory.stop_reason == STOP_MAX_ITER
    assert trajectory.iterations == 1
    assert trajectory.records[-1].stop_reason == STOP_MAX_ITER


def test_interior_objective_stop_without_new_row():
    # x - x^2 on [0, 1]: the walk stops at the interior maximum 1/2
    poly = MultiPoly(1, {(1,): 1, (2,): -1})
    trajectory = active_set_run(cube(1), MultiPolyObjective(poly), (0,),
                                make_rule("lowest-index"))
    assert trajectory.outcome == OUTCOME_CRITICAL_POINT
    assert trajectory.points() == [(0,), (Fraction(1, 2),)]
    record = trajectory.records[0]
    assert record.added_row is None
    assert record.step == Fraction(1, 2)


def test_irrational_stop_reported_as_error():
    # gradient 2 - 3x^2 vanishes at sqrt(2/3) inside [0, 2]
    poly = MultiPoly(1, {(1,): 2, (3,): -1})
    program = BoxProgram((0,), (2,))
    trajectory = active_set_run(program, MultiPolyObjective(poly), (0,),
                                make_rule("lowest-index"))
    assert trajectory.outcome == OUTCOME_ERROR
    assert trajectory.stop_reason == STOP_NOT_REPRESENTABLE
    assert trajectory.records[-1].stop_reason == STOP_NOT_REPRESENTABLE
    assert trajectory.final_point == (0,)  # no move was recorded


def test_scaled_box_walk(oracle_for):
    # off the unit cube the objective's gradient may vanish inside an edge;
    # the walk must still end at a genuine critical point, monotonically
    program = BoxProgram((0, 0), (2, 3))
    oracle = oracle_for(2)
    trajectory = active_set_run(program, oracle, (0, 0), make_rule("lowest-index"))
    assert trajectory.outcome == OUTCOME_CRITICAL_POINT
    final = trajectory.final_point
    assert improving_candidates(program, final, program.eq_set(final),
                                oracle.gradient(final)) == []
    values = [oracle.value(p) for p in trajectory.points()]
    assert all(a < b for a, b in zip(values, values[1:]))


# ------------------------------------------------------ simplex runs --


def test_simplex_single_pivot():
    trajectory = simplex_run(cube(2), LinearObjective((1, 0)), (0, 0),
                             make_rule("lowest-index"))
    assert trajectory.iterations == 1
    assert trajectory.points() == [(0, 0), (1, 0)]


def test_simplex_steepest_path():
    trajectory = simplex_run(cube(2), LinearObjective((2, 1)), (0, 0),
                             make_rule("steepest"))
    assert trajectory.points() == [(0, 0), (1, 0), (1, 1)]


def test_simplex_zero_iterations_when_start_optimal():
    trajectory = simplex_run(cube(3), LinearObjective((-2, -1, -5)), (0, 0, 0),
                             make_rule("highest-index"))
    assert trajectory.iterations == 0


def test_simplex_rejects_non_vertex_start_and_nonlinear_objective(oracle_for):
    with pytest.raises(NotAVertexError):
        simplex_run(cube(2), LinearObjective((1, 1)), (Fraction(1, 2), 0),
                    make_rule("lowest-index"))
    for outside in [(2, 0), (0, -1), (Fraction(-1, 10**30), 1)]:
        with pytest.raises(NotAVertexError, match=r"simplex must start at a vertex, got \("):
            simplex_run(cube(2), LinearObjective((1, 1)), outside, make_rule("lowest-index"))
    with pytest.raises(TypeError):
        simplex_run(cube(2), oracle_for(2), (0, 0), make_rule("lowest-index"))


def test_simplex_reaches_the_linear_optimum():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 6)
        program = cube(n)
        c = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
        objective = LinearObjective(c)
        start = tuple(rng.randint(0, 1) for _ in range(n))
        trajectory = simplex_run(program, objective, start, make_rule("random", 5))
        best = max(objective.value(v) for v in itertools.product((0, 1), repeat=n))
        assert objective.value(trajectory.final_point) == best


def _simplex_from_origin():
    return simplex_run(cube(2), LinearObjective((1, 0)), (0, 0), make_rule("lowest-index"))


def test_simplex_names_the_vertex_of_an_edge_off_the_basis(monkeypatch):
    real = engine.improving_candidates
    monkeypatch.setattr(engine, "improving_candidates", lambda *args: [
        c._replace(overlap=c.overlap - 1) for c in real(*args)])
    with pytest.raises(DegenerateVertexError, match="n - 1 basis rows") as info:
        _simplex_from_origin()
    assert info.value.vertex == (0, 0)


def test_simplex_names_the_vertex_of_a_blocking_row_off_the_basis(monkeypatch):
    # -e_1 at the origin: its blocking row, coordinate 1's upper bound, is not tight
    monkeypatch.setattr(engine, "improving_candidates", lambda *args: [
        Candidate(AxisDirection(1, -1), 1, 1)])
    with pytest.raises(DegenerateVertexError, match="blocking row 1") as info:
        _simplex_from_origin()
    assert info.value.vertex == (0, 0)


def test_simplex_names_the_vertex_of_a_step_that_ends_off_a_vertex(monkeypatch):
    monkeypatch.setattr(BoxProgram, "step_to_boundary", lambda self, x, d: Fraction(1, 2))
    with pytest.raises(DegenerateVertexError, match="not a vertex") as info:
        _simplex_from_origin()
    assert info.value.vertex == (0, 0)


def test_simplex_names_the_vertex_of_a_step_that_leaves_the_box(monkeypatch):
    monkeypatch.setattr(BoxProgram, "move", lambda self, x, d, mu: (2, 0))
    with pytest.raises(DegenerateVertexError, match=r"ends at \(2, 0\), not a vertex") as info:
        _simplex_from_origin()
    assert info.value.vertex == (0, 0)


@pytest.mark.parametrize("start", [(0, -1), (2, 1), (Fraction(1, 2), 1 + Fraction(1, 10**30)),
                                   (Fraction(-1, 10**30), 0)])
def test_active_set_rejects_a_start_outside_the_box(start):
    message = f"point {start} violates a bound"
    with pytest.raises(InfeasiblePointError) as info:
        active_set_run(cube(2), LinearObjective((1, 1)), start, make_rule("lowest-index"))
    assert str(info.value) == message


def test_simplex_names_the_vertex_of_two_entering_rows(monkeypatch):
    # a move that flips both coordinates leaves rows 1 and 2 newly tight
    monkeypatch.setattr(BoxProgram, "move", lambda self, x, d, mu: (1, 1))
    with pytest.raises(DegenerateVertexError, match=r"2 entering rows \[1, 2\]") as info:
        _simplex_from_origin()
    assert info.value.vertex == (0, 0)


# ------------------------------------------------------- equivalence --


def test_equivalence_on_named_example():
    same, divergence = equivalence_check(
        cube(3), LinearObjective((3, 1, 2)), (0, 0, 0),
        lambda: make_rule("lowest-index"),
    )
    assert same and divergence is None


def test_equivalence_on_zero_objective():
    same, _ = equivalence_check(
        cube(2), LinearObjective((0, 0)), (0, 0), lambda: make_rule("lowest-index")
    )
    assert same


def test_equivalence_on_random_objectives():
    rng = random.Random(23)
    for trial in range(50):
        n = rng.randint(2, 8)
        c = []
        while True:
            c = tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 6))
                      for _ in range(n))
            sums = [Fraction(0)]
            for ci in c:
                sums += [s + ci for s in sums]
            if len(set(sums)) == len(sums):
                break
        start = tuple(rng.randint(0, 1) for _ in range(n))
        name = RULE_NAMES[trial % len(RULE_NAMES)]
        seed = rng.randrange(10**6)
        same, divergence = equivalence_check(
            cube(n), LinearObjective(c), start, lambda: make_rule(name, seed)
        )
        assert same, divergence


# ------------------------------------------- axis-direction sufficiency --


def _brute_has_improving_direction(program, objective, x):
    """Grid search over feasible directions with components in {-1,0,1}."""
    eq = program.eq_set(x)
    grad = objective.gradient(x)
    n = program.n
    for direction in itertools.product((-1, 0, 1), repeat=n):
        if all(c == 0 for c in direction):
            continue
        feasible = True
        for row in eq:
            coord = (row - 1) % n + 1
            component = direction[coord - 1] if row <= n else -direction[coord - 1]
            if component > 0:
                feasible = False
                break
        if not feasible:
            continue
        if sum(g * d for g, d in zip(grad, direction)) > 0:
            return True
    return False


def test_objective_strictly_increases_across_moving_passes():
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(1, 4)
        program = cube(n)
        terms = {
            tuple(rng.randint(0, 2) for _ in range(n)):
                Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            for _ in range(rng.randint(1, 5))
        }
        objective = MultiPolyObjective(MultiPoly(n, terms))
        start = tuple(rng.choice([0, 1, Fraction(1, 2)]) for _ in range(n))
        trajectory = active_set_run(program, objective, start, make_rule("random", 9))
        previous = objective.value(start)
        for record in trajectory.records:
            if record.step is None:
                continue  # a pass aborted by an irrational stopping point
            value = objective.value(record.x_after)
            assert value > previous
            previous = value


def test_no_axis_improvement_means_no_improvement_at_all():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 4)
        program = cube(n)
        terms = {
            tuple(rng.randint(0, 2) for _ in range(n)):
                Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            for _ in range(rng.randint(1, 5))
        }
        objective = MultiPolyObjective(MultiPoly(n, terms))
        point = tuple(rng.choice([0, 1, Fraction(1, 2), Fraction(1, 3)])
                      for _ in range(n))
        axis = bool(improving_candidates(program, point, program.eq_set(point),
                                         objective.gradient(point)))
        assert axis == _brute_has_improving_direction(program, objective, point)


# ---------------------------------------------- reference implementation --


def _row_dot(d, row, n):
    """Inner product of constraint row ``row`` (``1..n`` the upper bounds,
    ``n+1..2n`` the negated lower bounds) with the axis direction ``d``."""
    if row <= n:
        return d.sign if row == d.coord else 0
    return -d.sign if row - n == d.coord else 0


def test_row_dot_convention():
    d = AxisDirection(2, 1)
    n = 3
    assert _row_dot(d, 2, n) == 1    # upper-bound row of coordinate 2
    assert _row_dot(d, 5, n) == -1   # lower-bound row of coordinate 2
    assert _row_dot(d, 1, n) == 0
    assert _row_dot(d, 4, n) == 0
    down = AxisDirection(2, -1)
    assert _row_dot(down, 2, n) == -1
    assert _row_dot(down, 5, n) == 1


def _reference_active_set_run(program, objective, start, rule, max_iter=None):
    """Definition-level reimplementation: every set is computed by scanning
    all 2n rows with explicit inner products.  Used to pin the production
    engine's constant-time shortcuts; each pass's entry starts with the
    active set before the pass, sorted."""
    from pivotforge.polynomials import first_nonpositive

    n = program.n
    if max_iter is None:
        max_iter = 2 ** (n + 1)
    active = set(program.eq_set(start))
    x = start
    trace = []
    while True:
        eq = program.eq_set(x)
        grad = objective.gradient(x)
        raw = []
        for k in range(1, n + 1):
            for sign in (1, -1):
                d = AxisDirection(k, sign)
                if any(_row_dot(d, row, n) > 0 for row in eq):
                    continue
                slope = sign * grad[k - 1]
                if slope <= 0:
                    continue
                overlap = sum(1 for row in active if _row_dot(d, row, n) == 0)
                raw.append(Candidate(d, slope, overlap))
        if not raw:
            return trace, "critical_point"
        best = max(c.overlap for c in raw)
        candidates = [c for c in raw if c.overlap == best]
        if len(trace) >= max_iter:
            return trace, "max_iter_exceeded"
        chosen = rule.choose_direction(candidates)
        d = chosen.direction
        before = tuple(sorted(active))
        removed = None
        violating = sorted(r for r in active if _row_dot(d, r, n) < 0)
        if violating:
            # on a box an axis direction has one blocking row
            assert len(violating) == 1
            removed = violating[0]
            active.discard(removed)
        # and once it is dropped no active row blocks the move: no pass
        # only drops a row
        assert all(_row_dot(d, r, n) == 0 for r in active)
        mu_boundary = program.step_to_boundary(x, d)
        g = objective.edge_restriction(x, d)
        try:
            mu_objective = first_nonpositive(g, mu_boundary)
        except Exception:
            trace.append((before, d, removed, None, x, None, len(candidates)))
            return trace, "not_representable"
        mu = mu_boundary if mu_objective is None else mu_objective
        x_new = tuple(
            c + (mu * d.sign if i == d.coord - 1 else 0)
            for i, c in enumerate(x)
        )
        added = None
        if sum(c * mu ** i for i, c in enumerate(g.coeffs)) > 0:  # g(mu) > 0
            options = sorted(program.eq_set(x_new) - active)
            added = rule.choose_addition(options)
            active.add(added)
        x = x_new
        trace.append((before, d, removed, mu, x, added, len(candidates)))


def test_engine_matches_definition_level_reference(oracle_for):
    rng = random.Random(83)
    cases = []
    for n in (2, 3, 4):
        cases.append((cube(n), oracle_for(n), (0,) * n))
    for _ in range(30):
        n = rng.randint(1, 4)
        terms = {
            tuple(rng.randint(0, 2) for _ in range(n)):
                Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            for _ in range(rng.randint(1, 5))
        }
        objective = MultiPolyObjective(MultiPoly(n, terms))
        start = tuple(rng.choice([0, 1, Fraction(1, 2)]) for _ in range(n))
        cases.append((cube(n), objective, start))
    cases.append((cube(2), STALE, (0, 0)))
    for _ in range(10):  # boxes with non-unit Fraction bounds
        n = rng.randint(1, 4)
        lower = tuple(Fraction(rng.randint(-6, 3), rng.randint(1, 4)) for _ in range(n))
        upper = tuple(lo + Fraction(rng.randint(1, 6), rng.randint(1, 4)) for lo in lower)
        terms = {
            tuple(rng.randint(0, 2) for _ in range(n)):
                Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            for _ in range(rng.randint(1, 5))
        }
        start = tuple(rng.choice([lo, hi, (lo + hi) / 2]) for lo, hi in zip(lower, upper))
        cases.append((BoxProgram(lower, upper), MultiPolyObjective(MultiPoly(n, terms)), start))
    for program, objective, start in cases:
        for rule_name in RULE_NAMES:
            trajectory = active_set_run(program, objective, start,
                                        make_rule(rule_name, 2))
            expected, expected_stop = _reference_active_set_run(
                program, objective, start, make_rule(rule_name, 2)
            )
            assert trajectory.stop_reason == expected_stop
            assert len(trajectory.records) == len(expected)
            for record, (before, d, removed, step, x_after, added, n_cands) in zip(
                trajectory.records, expected
            ):
                assert record.active_before == before
                assert record.direction == d
                assert record.removed_row == removed
                assert record.step == step
                assert record.x_after == x_after
                assert record.added_row == added
                assert record.num_candidates == n_cands
    for rule_name, added in (("lowest-index", (None, 1)), ("highest-index", (2, None))):
        trajectory = active_set_run(cube(2), STALE, (0, 0), make_rule(rule_name))
        assert tuple(r.added_row for r in trajectory.records) == added
        assert trajectory.final_point == (1, 1)


# ------------------------------------------------------ serialization --


def test_trajectory_json_is_deterministic_and_exact(oracle_for):
    program = cube(3)
    oracle = oracle_for(3)
    runs = [
        active_set_run(program, oracle, (0,) * 3, make_rule("lowest-index"))
        for _ in range(2)
    ]
    payloads = [
        json.dumps(t.to_json_dict(oracle, rule_name="lowest-index"), sort_keys=True)
        for t in runs
    ]
    assert payloads[0] == payloads[1]
    data = json.loads(payloads[0])
    assert data["iterations"] == 7
    assert data["final"]["objective_value"] == "7/1"
    assert data["final"]["vertex_id"] == 4
    first = data["records"][0]
    assert first["direction"] == {"coord": 1, "sign": 1}
    assert first["step"] == "1/1"
    assert first["active_rows"] == [4, 5, 6]
    assert first["removed_row"] == 4
    assert first["added_row"] == 1
    assert data["records"][-1]["stop_reason"] == "critical_point"


def test_trajectory_approx_fields_are_marked_lossy(oracle_for):
    program = cube(2)
    oracle = oracle_for(2)
    t = active_set_run(program, oracle, (0, 0), make_rule("lowest-index"))
    data = t.to_json_dict(oracle, approx=True)
    assert data["final"]["objective_value_approx_lossy"] == 3.0
    walk = Walk(program, (0, 0), active_set_steps(program, oracle, (0, 0),
                                                  make_rule("lowest-index")))
    for _ in walk:
        pass
    row = walk.summary_row(oracle, "lowest-index", approx=True)
    assert row["final_value"] == "3/1"
    assert row["final_value_approx_lossy"] == 3.0
    assert row["final_vertex_id"] == 2


def _reference_json(trajectory, objective, **options):
    return json.dumps(trajectory.to_json_dict(objective, **options),
                      indent=2, sort_keys=True) + "\n"


def _replay(trajectory):
    """The records of ``trajectory`` as a record generator, like
    ``active_set_steps``."""
    yield from trajectory.records
    return trajectory.stop_reason


class _CountingSpool(io.StringIO):
    """A spool that counts the writer's calls to ``write``."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def _streamed_json(trajectory, objective, **options):
    """The writer's text for ``trajectory``, checking on the way that it
    made one spool write per batch of ``SPOOL_BATCH`` records."""
    buffer, spool = io.StringIO(), _CountingSpool()
    walk = Walk(trajectory.program, trajectory.start, _replay(trajectory))
    write_walk_json(buffer, spool, walk, objective, **options)
    assert spool.writes == -(-trajectory.iterations // SPOOL_BATCH)
    return buffer.getvalue()


def _walk_inputs(oracle_for):
    """``(program, objective, start, (rule name, seed), max_iter)`` of each
    active-set walk the writer and the generator are tested on."""
    hard = oracle_for(3)
    padded = PaddedObjective(oracle_for(3), 5)
    # separable: first zeros 1/3 and 2/5, so steps and iterates are fractional
    fractional = MultiPolyObjective(MultiPoly(2, {
        (2, 0): -1, (1, 0): Fraction(2, 3), (0, 2): -1, (0, 1): Fraction(4, 5)}))
    irrational = MultiPolyObjective(MultiPoly(1, {(1,): 2, (3,): -1}))
    lowest = ("lowest-index", 0)
    # the n = 7 walk, of 127 records, cut by max_iter next to batch edges
    cut = (cube(7), oracle_for(7), (0,) * 7, lowest)
    return {
        "empty": (cube(3), hard, (0,) * 3, lowest, 0),
        "max_iter": (cube(3), hard, (0,) * 3, lowest, 4),
        "hard": (cube(3), hard, (0,) * 3, lowest, None),
        "random": (cube(3), hard, (0,) * 3, ("random", 7), None),
        "fractional": (BoxProgram((0, 0), (1, 1)), fractional, (0, 0), lowest, None),
        "not_representable": (BoxProgram((0,), (2,)), irrational, (0,), lowest, None),
        "padded": (cube(5), padded, (0,) * 5, ("steepest", 0), None),
        "batch-1": cut + (SPOOL_BATCH - 1,),
        "batch": cut + (SPOOL_BATCH,),
        "batch+1": cut + (SPOOL_BATCH + 1,),
        "two_batches+1": cut + (2 * SPOOL_BATCH + 1,),
    }


def _writer_cases(oracle_for):
    cases = {}
    for name, (program, objective, start, rule, max_iter) in _walk_inputs(oracle_for).items():
        trajectory = active_set_run(program, objective, start, make_rule(*rule),
                                    max_iter=max_iter)
        cases[name] = (trajectory, objective)
    walk = cases["hard"][0]
    # every other record, so no x_before equals the previous x_after
    cases["gapped"] = (dataclasses.replace(walk, records=walk.records[1::2]), cases["hard"][1])
    linear = LinearObjective((Fraction(2, 3), -1, 3))
    program = BoxProgram((0, Fraction(1, 2), -1), (Fraction(5, 4), 2, Fraction(1, 3)))
    cases["simplex"] = (simplex_run(program, linear, (0, 2, -1), make_rule("steepest")),
                        linear)
    cases["simplex_at_optimum"] = (
        simplex_run(program, linear, (Fraction(5, 4), Fraction(1, 2), Fraction(1, 3)),
                    make_rule("lowest-index")), linear)
    hard = cases["hard"][1]

    def moved(record, x_after):
        return dataclasses.replace(record, x_after=x_after, value_after=hard.value(x_after))

    # records 1, 2 and 4 move along coordinates 2, 1 and 1:
    # (1,0,0) -> (1,1,0) -> (0,1,0), then (0,1,1) -> (1,1,1)
    records = list(walk.records)
    records[1] = moved(records[1], (0, 1, 0))  # also a coordinate below the direction's
    records[2] = moved(records[2], (0, 1, 1))  # also one above it
    records[4] = moved(records[4], (1, Fraction(1, 2), 1))  # off the vertices
    cases["off_direction"] = (dataclasses.replace(walk, records=records), hard)
    records = list(walk.records)
    records[1] = moved(records[1], records[1].x_before)  # the direction's coordinate stays
    cases["unchanged"] = (dataclasses.replace(walk, records=records), hard)
    # (1/2, 1/2) -> (1, 1/2) -> (1, 0): inside the box, on a face, onto a vertex
    tilted = LinearObjective((1, -1))
    cases["onto_vertex"] = (active_set_run(cube(2), tilted, (Fraction(1, 2), Fraction(1, 2)),
                                           make_rule("lowest-index")), tilted)
    # from (1/2, 1/2) to the interior zeros 2/3 and 1/4: no row is ever active
    bowl = MultiPolyObjective(MultiPoly(2, {
        (2, 0): -1, (1, 0): Fraction(4, 3), (0, 2): -1, (0, 1): Fraction(1, 2)}))
    cases["interior"] = (active_set_run(cube(2), bowl, (Fraction(1, 2), Fraction(1, 2)),
                                        make_rule("lowest-index")), bowl)
    return cases


WALK_CASES = ["empty", "max_iter", "hard", "random", "fractional", "not_representable",
              "padded", "batch-1", "batch", "batch+1", "two_batches+1"]
WRITER_CASES = WALK_CASES + ["gapped", "simplex", "simplex_at_optimum", "off_direction",
                             "unchanged", "onto_vertex", "interior"]


@pytest.mark.parametrize("case", WRITER_CASES)
def test_streamed_json_is_byte_identical_to_the_reference(oracle_for, case):
    trajectory, objective = _writer_cases(oracle_for)[case]
    for rule_name in (None, "lowest-index", "random(seed=7)", '"records": [] \\ é'):
        for approx in (False, True):
            options = {"rule_name": rule_name, "approx": approx}
            assert _streamed_json(trajectory, objective, **options) == \
                _reference_json(trajectory, objective, **options)


def test_writer_cases_cover_what_they_name(oracle_for):
    cases = _writer_cases(oracle_for)
    assert sorted(cases) == sorted(WRITER_CASES)
    assert sorted(_walk_inputs(oracle_for)) == sorted(WALK_CASES)
    assert cases["empty"][0].records == []
    assert cases["max_iter"][0].stop_reason == STOP_MAX_ITER
    assert cases["max_iter"][0].iterations == 4
    assert cases["fractional"][0].final_point == (Fraction(1, 3), Fraction(2, 5))
    assert cases["not_representable"][0].stop_reason == STOP_NOT_REPRESENTABLE
    assert cases["padded"][0].iterations == 7
    assert [cases[name][0].iterations for name in ("batch-1", "batch", "batch+1",
                                                  "two_batches+1")] == \
        [SPOOL_BATCH - 1, SPOOL_BATCH, SPOOL_BATCH + 1, 2 * SPOOL_BATCH + 1]
    assert 2 * SPOOL_BATCH + 1 < 2 ** 7 - 1  # every cut ends before the walk does
    assert cases["simplex"][0].iterations == 3
    assert cases["simplex"][0].final_point == (Fraction(5, 4), Fraction(1, 2), Fraction(1, 3))
    assert cases["simplex_at_optimum"][0].records == []
    hard = cases["hard"][0].records
    assert [(r.x_before, r.x_after, r.direction.coord) for r in hard[1:5]] == [
        ((1, 0, 0), (1, 1, 0), 2), ((1, 1, 0), (0, 1, 0), 1),
        ((0, 1, 0), (0, 1, 1), 3), ((0, 1, 1), (1, 1, 1), 1)]
    off = cases["off_direction"][0].records
    assert [off[i].x_after != off[i + 1].x_before for i in range(6)] == \
        [False, True, True, False, True, False]
    unchanged = cases["unchanged"][0].records[1]
    assert unchanged.x_after == unchanged.x_before and unchanged.direction is not None
    onto = cases["onto_vertex"][0]
    assert [onto.program.vertex_id_or_none(p) for p in onto.points()] == [None, None, 1]
    assert [r.direction.coord for r in onto.records] == [1, 2]
    interior = cases["interior"][0]
    assert [r.active_before for r in interior.records] == [(), ()]
    assert interior.final_point == (Fraction(2, 3), Fraction(1, 4))


@pytest.mark.parametrize("case", WALK_CASES)
def test_steps_yield_complete_records_that_collect_to_the_run(oracle_for, case):
    """Every record leaves the generator complete: a copy taken when it is
    yielded equals the record of ``active_set_run``, carries the value at
    its ``x_after``, and only the last carries the stop reason.  A
    :class:`Walk` over the same generator reports what the trajectory
    reports."""
    program, objective, start, rule, max_iter = _walk_inputs(oracle_for)[case]
    steps = active_set_steps(program, objective, start, make_rule(*rule), max_iter)
    yielded = []
    while True:
        try:
            yielded.append(dataclasses.replace(next(steps)))
        except StopIteration as done:
            returned = done.value
            break
    trajectory = active_set_run(program, objective, start, make_rule(*rule),
                                max_iter=max_iter)
    assert yielded == trajectory.records
    assert returned == trajectory.stop_reason
    assert all(r.value_after == objective.value(r.x_after) for r in yielded)
    assert [r.stop_reason for r in yielded] == \
        [None] * (len(yielded) - 1) + [returned] * bool(yielded)

    walk = Walk(program, start, active_set_steps(program, objective, start,
                                                 make_rule(*rule), max_iter))
    assert (walk.stop_reason, walk.outcome) == (None, None)
    assert sum(1 for _ in walk) == trajectory.iterations
    assert (walk.iterations, walk.final_point, walk.outcome, walk.stop_reason) == \
        (trajectory.iterations, trajectory.final_point, trajectory.outcome,
         trajectory.stop_reason)
    assert walk.final_value(objective) == objective.value(trajectory.final_point)
    final_id = program.vertex_id_or_none(trajectory.final_point)
    value = objective.value(trajectory.final_point)
    assert walk.summary_row(objective, "r", approx=True) == {
        "n": program.n, "rule": "r", "iterations": trajectory.iterations,
        "final_vertex_id": "" if final_id is None else final_id,
        "final_value": format_rational(value), "final_value_approx_lossy": float(value)}


@pytest.mark.parametrize("empty", [[], {}], ids=["list", "object"])
@pytest.mark.parametrize("count", [0, 1, 3])
def test_only_the_top_level_member_takes_the_spliced_pieces(empty, count):
    """The streamed key also names a nested member and appears, quoted and
    after a line break, inside string values; ``write_spliced`` fills only
    the top-level member, as ``json.dumps`` of the filled document would."""
    if empty == []:
        filled = [f"entry {i}" for i in range(count)]
        texts = [f'    "entry {i}"' for i in range(count)]
    else:
        filled = {f"entry {i}": i for i in range(count)}
        texts = [f'    "entry {i}": {i}' for i in range(count)]
    doc = {"a": {"records": empty, "z": [empty]}, "records": empty,
           "rule": '"records": []', "text": '\n  "records": []'}
    pieces = [("\n" if i == 0 else ",\n") + text for i, text in enumerate(texts)]
    buffer = io.StringIO()
    assert write_spliced(buffer, doc, "records", iter(pieces)) == count
    assert buffer.getvalue() == json.dumps({**doc, "records": filled},
                                           indent=2, sort_keys=True) + "\n"
