from fractions import Fraction

import pytest

from pivotforge import (
    AxisDirection,
    BoxProgram,
    DimensionMismatchError,
    InfeasiblePointError,
    NotAVertexError,
    bits_from_id,
    bits_to_id,
)


def edge_directions(box, x):
    """The ``n`` feasible unit axis directions at a vertex, each signed
    away from its coordinate's tight bound."""
    return [AxisDirection(k, 1 - 2 * b)
            for k, b in enumerate(box.bits_of_vertex(x), start=1)]


def vertices(box):
    """All ``2^n`` vertices of ``box`` in id order."""
    return [box.vertex_from_bits(bits_from_id(vid, box.n)) for vid in range(1 << box.n)]


def test_axis_directions_are_unit():
    assert AxisDirection(2, -1).sign == -1
    for sign in (2, 0, Fraction(1, 2), -3):
        with pytest.raises(ValueError):
            AxisDirection(1, sign)


def test_eq_set_row_indexing():
    box = BoxProgram.unit_cube(2)
    assert box.eq_set((0, 0)) == {3, 4}
    assert box.eq_set((1, 1)) == {1, 2}
    assert box.eq_set((Fraction(1, 2), 1)) == {2}
    assert box.eq_set((Fraction(1, 3), Fraction(2, 3))) == frozenset()


def test_eq_set_rejects_infeasible_points():
    box = BoxProgram.unit_cube(2)
    with pytest.raises(InfeasiblePointError):
        box.eq_set((2, 0))
    with pytest.raises(InfeasiblePointError):
        box.eq_set((0, Fraction(-1, 5)))
    with pytest.raises(DimensionMismatchError):
        box.eq_set((0, 0, 0))


def test_degenerate_boxes_rejected():
    with pytest.raises(ValueError):
        BoxProgram((0, 0), (1, 0))
    with pytest.raises(DimensionMismatchError):
        BoxProgram((0,), (1, 1))


def test_vertex_from_bits():
    cube = BoxProgram.unit_cube(3)
    assert cube.vertex_from_bits((0, 0, 0)) == (0, 0, 0)
    assert cube.vertex_from_bits((0, 0, 1)) == (0, 0, 1)
    box = BoxProgram((0, -1), (2, 1))
    assert box.vertex_from_bits((1, 0)) == (2, -1)
    with pytest.raises(ValueError):
        cube.vertex_from_bits((0, 2, 0))


def test_edge_directions_on_unit_cubes():
    cube2 = BoxProgram.unit_cube(2)
    assert edge_directions(cube2, (0, 0)) == [AxisDirection(1, 1), AxisDirection(2, 1)]
    assert edge_directions(cube2, (1, 0)) == [AxisDirection(1, -1), AxisDirection(2, 1)]
    cube3 = BoxProgram.unit_cube(3)
    assert edge_directions(cube3, (1, 1, 1)) == [
        AxisDirection(1, -1), AxisDirection(2, -1), AxisDirection(3, -1)
    ]
    with pytest.raises(NotAVertexError):
        edge_directions(cube2, (Fraction(1, 2), 0))


def test_edge_steps_scale_with_the_box():
    """On a box that is not the unit cube the directions stay unit, and
    the step to an edge's far end is the edge's length."""
    box = BoxProgram((0, -1), (2, 1))
    assert edge_directions(box, (0, 1)) == [AxisDirection(1, 1), AxisDirection(2, -1)]
    assert [box.step_to_boundary((0, 1), d) for d in edge_directions(box, (0, 1))] == [2, 2]


def test_step_to_boundary():
    cube = BoxProgram.unit_cube(2)
    assert cube.step_to_boundary((0, 0), AxisDirection(1, 1)) == 1
    assert cube.step_to_boundary((Fraction(1, 2), 0), AxisDirection(1, 1)) == Fraction(1, 2)
    box = BoxProgram((0, 0), (2, 1))
    assert box.step_to_boundary((0, 0), AxisDirection(1, 1)) == 2
    with pytest.raises(ValueError):
        cube.step_to_boundary((1, 0), AxisDirection(1, 1))  # already tight


def test_every_unit_cube_vertex_has_full_independent_eq_set():
    for n in range(1, 7):
        cube = BoxProgram.unit_cube(n)
        for x in vertices(cube):
            rows = cube.eq_set(x)
            assert len(rows) == n
            # one row per coordinate: the 2n-row system restricted to these
            # rows is a signed permutation, hence linearly independent
            coords = {(r - 1) % n for r in rows}
            assert coords == set(range(n))


def test_edge_steps_land_on_adjacent_vertices():
    for box in (BoxProgram.unit_cube(3), BoxProgram((0, -1, 2), (2, 1, Fraction(7, 2)))):
        for x in vertices(box):
            for d in edge_directions(box, x):
                mu = box.step_to_boundary(x, d)
                assert mu == box.upper[d.coord - 1] - box.lower[d.coord - 1]
                y = box.move(x, d, mu)
                assert box.is_vertex(y)
                differing = [i for i in range(box.n) if x[i] != y[i]]
                assert differing == [d.coord - 1]


def test_eq_set_matches_bits():
    cube = BoxProgram.unit_cube(4)
    for vid in range(16):
        bits = bits_from_id(vid, 4)
        rows = cube.eq_set(cube.vertex_from_bits(bits))
        for i, b in enumerate(bits, start=1):
            assert (i in rows) == (b == 1)
            assert (i + 4 in rows) == (b == 0)


def test_vertex_id_round_trip():
    cube = BoxProgram.unit_cube(5)
    for vid in range(32):
        assert cube.vertex_id(cube.vertex_from_bits(bits_from_id(vid, 5))) == vid
    assert bits_to_id((1, 0, 1)) == 5
    assert bits_from_id(5, 3) == (1, 0, 1)
    with pytest.raises(ValueError):
        bits_from_id(8, 3)
