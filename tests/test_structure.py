import itertools
import random
from fractions import Fraction

import pytest

from pivotforge import (
    BoxProgram,
    Face,
    LinearObjective,
    LowerBoundPolynomial,
    Orientation,
    TieError,
    active_set_run,
    bits_from_id,
    combed_dimension,
    combed_in_top_dimensions,
    faces,
    hamiltonian_path,
    improving_dimension,
    induce_orientation,
    is_decomposable,
    is_uso,
    make_rule,
    pp,
    reflected_gray_ids,
    s_parity,
    sink_find_decomposable,
)
from pivotforge.structure import FORWARD, FREE, _outmaps_separate_all_pairs, sinks_in_face


# ------------------------------------------------------- predicates --


def test_prefix_product_examples():
    assert pp((1, 1, 0), 1) == 1
    assert pp((0, 0, 1), 1) == 1
    assert pp((1, 0, 0), 2) == 1
    assert pp((1, 0, 0), 3) == 0
    assert pp((0, 1, 0), 3) == 1


def test_suffix_parity_examples():
    assert s_parity((0, 0, 0), 2) == 0
    assert s_parity((0, 1, 1), 1) == 0
    assert s_parity((0, 0, 1), 2) == 1
    assert s_parity((1, 1, 1), 3) == 0


def test_improving_dimension_examples(oracle_for):
    assert improving_dimension((0, 0, 0), oracle_for(3)) == 1
    assert improving_dimension((1, 0, 0), oracle_for(3)) == 2
    for n in (1, 2, 5):
        e_n = tuple(1 if i == n - 1 else 0 for i in range(n))
        assert improving_dimension(e_n, oracle_for(n)) is None


def test_improving_dimension_unique_on_every_vertex(oracle_for):
    for n in range(1, 9):
        oracle = oracle_for(n)
        e_n = tuple(1 if i == n - 1 else 0 for i in range(n))
        for vid in range(1 << n):
            bits = bits_from_id(vid, n)
            k = improving_dimension(bits, oracle)  # raises if conditions disagree
            assert (k is None) == (bits == e_n)
            by_definition = [j for j in range(1, n + 1)
                             if pp(bits, j) == 1 and s_parity(bits, j) == bits[j - 1]]
            assert by_definition == ([] if k is None else [k])


def test_improving_dimension_rejects_non_bits():
    with pytest.raises(ValueError):
        improving_dimension((0, Fraction(1, 2)))


# ------------------------------------------------------------- path --


def test_path_small_cases(oracle_for):
    assert hamiltonian_path(1, oracle_for(1)).vertex_ids == (0, 1)
    assert hamiltonian_path(2, oracle_for(2)).vertex_ids == (0, 1, 3, 2)
    path3 = hamiltonian_path(3, oracle_for(3))
    assert [bits_from_id(v, 3) for v in path3.vertex_ids] == [
        (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
        (0, 1, 1), (1, 1, 1), (1, 0, 1), (0, 0, 1),
    ]


def test_path_is_the_reflected_gray_code(oracle_for):
    for n in range(1, 11):
        assert list(hamiltonian_path(n, oracle_for(n)).vertex_ids) == \
            reflected_gray_ids(n)
        # and matches the closed-form ranking i ^ (i >> 1)
        assert reflected_gray_ids(n) == [i ^ (i >> 1) for i in range(1 << n)]


def test_path_half_reflection_law(oracle_for):
    for n in range(2, 10):
        ids = list(hamiltonian_path(n, oracle_for(n)).vertex_ids)
        half = 1 << (n - 1)
        assert ids[half:] == [v | half for v in reversed(ids[:half])]


def test_path_visits_values_in_order(oracle_for):
    for n in range(1, 13):
        oracle = oracle_for(n)
        ids = hamiltonian_path(n, oracle_for(n)).vertex_ids
        for position, vid in enumerate(ids):
            assert oracle.value(bits_from_id(vid, n)) == position


def test_path_matches_engine_trajectory(oracle_for):
    for n in range(1, 9):
        oracle = oracle_for(n)
        trajectory = active_set_run(
            BoxProgram.unit_cube(n), oracle, (0,) * n, make_rule("highest-index")
        )
        assert trajectory.vertex_ids() == list(hamiltonian_path(n, oracle).vertex_ids)


# ------------------------------------------------------ orientation --


class TableObjective:
    """Objective defined by an explicit vertex-value table."""

    def __init__(self, n, values):
        self.n = n
        self._values = dict(values)

    def value(self, x):
        return self._values[tuple(int(c) for c in x)]


def test_induced_orientation_of_the_hard_objective(oracle_for):
    orientation = induce_orientation(oracle_for(2), 2)
    # sink of the whole square is the optimum (0, 1), id 2
    assert sinks_in_face(orientation, Face((FREE, FREE))) == [2]
    masks = orientation.outgoing_masks()
    assert masks[2] == 0


def test_induced_orientation_of_a_linear_objective():
    orientation = induce_orientation(LinearObjective((1, 2)), 2)
    assert sinks_in_face(orientation, Face((FREE, FREE))) == [3]
    assert orientation.edge_direction(0, 1) == "forward"
    assert orientation.points_away_from(3, 1) is False


def test_constant_objective_has_no_orientation():
    with pytest.raises(TieError):
        induce_orientation(LinearObjective((0, 0)), 2)


def test_orientation_is_consistent_from_both_endpoints(oracle_for):
    orientation = induce_orientation(oracle_for(3), 3)
    for low in range(8):
        for coord in (1, 2, 3):
            high = low | (1 << (coord - 1))
            if high == low:
                continue
            assert orientation.edge_direction(low, coord) == \
                orientation.edge_direction(high, coord)
            assert orientation.points_away_from(low, coord) != \
                orientation.points_away_from(high, coord)


@pytest.mark.parametrize("masks", [
    [1, 2, 2],        # too few vertices
    [1, 2, 2, 1, 0],  # too many vertices
    [3, 2, 2, 1],     # the coordinate-2 edge 0-2 leaves both endpoints
    [0, 2, 2, 1],     # the coordinate-1 edge 0-1 leaves neither endpoint
    [1, 2, 2, 5],     # coordinate 3 does not exist in the square
    [1, 2, 2, -1],    # masks are not negative
])
def test_orientation_rejects_what_is_not_an_outmap(masks):
    with pytest.raises(ValueError):
        Orientation(2, masks)


def test_orientation_json_lists_outgoing_coords(oracle_for):
    # vertex values are 0, 1, 3, 2 at ids 0, 1, 2, 3: both neighbors of the
    # origin are larger, so both its edges point away
    data = induce_orientation(oracle_for(2), 2).to_json_dict()
    assert data["n"] == 2
    assert data["outgoing"] == {"0": [1, 2], "1": [2], "2": [], "3": [1]}


# -------------------------------------------------------- USO checks --


def _outmap(n, forward):
    """Outgoing masks of the orientation given as ``{(low, coord): forward}``."""
    masks = [0] * (1 << n)
    for (low, coord), is_forward in forward.items():
        bit = 1 << (coord - 1)
        masks[low if is_forward else low | bit] |= bit
    return masks


def cyclic_square():
    # 00 -> 10 -> 11 -> 01 -> 00: no sink anywhere in the full face
    return Orientation(2, _outmap(2, {(0, 1): True, (1, 2): True, (2, 1): False,
                                      (0, 2): False}))


def test_hard_objective_induces_uso_and_decomposable(oracle_for):
    for n in range(1, 7):
        orientation = induce_orientation(oracle_for(n), n)
        ok, witness = is_uso(orientation)
        assert ok, witness
        ok, witness = is_decomposable(orientation)
        assert ok, witness


def test_cyclic_orientation_is_neither():
    ok, witness = is_uso(cyclic_square())
    assert not ok
    assert witness["face"] == ["*", "*"]
    assert witness["sinks"] == []
    ok, witness = is_decomposable(cyclic_square())
    assert not ok


def test_linear_objectives_induce_usos():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 5)
        while True:
            c = tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 5))
                      for _ in range(n))
            sums = [Fraction(0)]
            for ci in c:
                sums += [s + ci for s in sums]
            if len(set(sums)) == len(sums):
                break
        ok, witness = is_uso(induce_orientation(LinearObjective(c), n))
        assert ok, witness


def test_combed_dimensions():
    orientation = induce_orientation(LinearObjective((1, 1)), 2)
    assert combed_dimension(orientation, Face((FREE, FREE))) == {1, 2}
    with pytest.raises(ValueError):
        combed_dimension(orientation, Face((0, 1)))


def test_hard_objective_combed_in_highest_free_dimension(oracle_for):
    for n in range(1, 7):
        orientation = induce_orientation(oracle_for(n), n)
        for face in faces(n, min_dimension=1):
            combed = combed_dimension(orientation, face)
            assert max(face.free_coords) in combed
    # the whole 3-cube is combed exactly in its top dimension
    orientation = induce_orientation(oracle_for(3), 3)
    assert combed_dimension(orientation, Face((FREE, FREE, FREE))) == {3}


def _naive_face_scan(values, n):
    """Independent recomputation: faces by filtering all vertex ids, sinks
    and combedness straight from the value table."""
    uso = True
    decomposable = True
    for pattern in itertools.product((0, 1, None), repeat=n):
        members = [
            v for v in range(1 << n)
            if all(p is None or ((v >> i) & 1) == p for i, p in enumerate(pattern))
        ]
        free = [i for i, p in enumerate(pattern) if p is None]
        sinks = 0
        for v in members:
            outgoing = False
            for i in free:
                w = v ^ (1 << i)
                if values[w] > values[v]:
                    outgoing = True
                    break
            if not outgoing:
                sinks += 1
        if sinks != 1:
            uso = False
        if free:
            combed_any = False
            for i in free:
                directions = {
                    values[v] < values[v | (1 << i)]
                    for v in members if not (v >> i) & 1
                }
                if len(directions) == 1:
                    combed_any = True
                    break
            if not combed_any:
                decomposable = False
    return uso, decomposable


def test_random_value_tables_match_naive_face_scan():
    rng = random.Random(37)
    for _ in range(30):
        n = rng.randint(2, 4)
        table = list(range(1 << n))
        rng.shuffle(table)
        values = {bits_from_id(v, n): table[v] for v in range(1 << n)}
        orientation = induce_orientation(TableObjective(n, values), n)
        expected_uso, expected_decomposable = _naive_face_scan(table, n)
        assert is_uso(orientation)[0] == expected_uso
        assert is_decomposable(orientation)[0] == expected_decomposable


def _is_uso_by_face_scan(orientation):
    """The reference USO test: the sinks of every face, in faces() order."""
    for face in faces(orientation.n):
        sinks = sinks_in_face(orientation, face)
        if len(sinks) != 1:
            return False, {"face": face.json_pattern(), "sinks": sinks}
    return True, None


def _top_combed_by_face_scan(orientation):
    return all(max(face.free_coords) in combed_dimension(orientation, face)
               for face in faces(orientation.n, min_dimension=1))


def _edge_keys(n):
    return [(low, coord) for low in range(1 << n) for coord in range(1, n + 1)
            if not (low >> (coord - 1)) & 1]


def _random_orientation(rng):
    """A random value table, fully random edges, or the lower-bound
    orientation with one or two edges flipped."""
    n = rng.randint(1, 5)
    kind = rng.randrange(3)
    if kind == 0:
        table = list(range(1 << n))
        rng.shuffle(table)
        values = {bits_from_id(v, n): table[v] for v in range(1 << n)}
        return kind, induce_orientation(TableObjective(n, values), n)
    if kind == 1:
        return kind, Orientation(n, _outmap(n, {edge: rng.random() < 0.5
                                                 for edge in _edge_keys(n)}))
    hard = induce_orientation(LowerBoundPolynomial(n), n)
    edges = {edge: hard.edge_direction(*edge) == FORWARD for edge in _edge_keys(n)}
    for edge in rng.sample(sorted(edges), min(rng.randint(1, 2), len(edges))):
        edges[edge] = not edges[edge]
    return kind, Orientation(n, _outmap(n, edges))


def test_pair_criterion_and_slice_test_agree_with_face_scans():
    rng = random.Random(53)
    seen = set()
    for _ in range(600):
        kind, orientation = _random_orientation(rng)
        expected = _is_uso_by_face_scan(orientation)
        # a too-strict pair test would still give is_uso's answer, through
        # the face scan it falls back to
        assert _outmaps_separate_all_pairs(orientation) == expected[0]
        assert is_uso(orientation) == expected
        top = _top_combed_by_face_scan(orientation)
        assert combed_in_top_dimensions(orientation) == top
        if top:
            assert is_decomposable(orientation) == (True, None)
        seen.add((kind, expected[0], top))
    # every kind produced both verdicts of both tests
    both = {(kind, verdict) for kind in range(3) for verdict in (True, False)}
    assert {(kind, uso) for kind, uso, _ in seen} == both
    assert {(kind, top) for kind, _, top in seen} == both


# ------------------------------------------------------- sink finder --


def test_sink_finder_small_cases(oracle_for):
    oracle = oracle_for(3)
    vid, queries = sink_find_decomposable(lambda b: oracle.value(b), 3)
    assert vid == 4  # the optimum (0, 0, 1)
    assert queries <= 6


def test_sink_finder_beats_enumeration(oracle_for):
    oracle = oracle_for(10)
    vid, queries = sink_find_decomposable(lambda b: oracle.value(b), 10)
    values = [oracle.value(bits_from_id(v, 10)) for v in range(1 << 10)]
    assert vid == max(range(1 << 10), key=lambda v: values[v])
    assert queries <= 20


def test_sink_finder_one_dimension():
    vid, queries = sink_find_decomposable(lambda b: {(0,): 0, (1,): 5}[b], 1)
    assert vid == 1
    assert queries == 2


# ------------------------------------------------------------ faces --


def test_face_enumeration_counts():
    assert sum(1 for _ in faces(3)) == 27
    assert sum(1 for _ in faces(3, min_dimension=1)) == 27 - 8


def test_face_membership_and_vertices():
    face = Face((1, FREE, 0))
    assert face.dimension == 1
    assert face.free_coords == (2,)
    assert face.vertex_ids() == [1, 3]
    assert face.contains(3) and not face.contains(5)
    assert face.json_pattern() == [1, "*", 0]


def test_gray_path_json(oracle_for):
    data = hamiltonian_path(2, oracle_for(2)).to_json_dict()
    assert data == {"n": 2, "path": [0, 1, 3, 2]}
