"""Acceptance criteria, one test per numbered claim, all at exact equality.

Where ``pivotforge verify`` certifies the same property, the test calls
that check from ``pivotforge.cli`` over its own n-range, so each property
has one implementation:

- 02 ``check_uniqueness`` (``verify uniqueness``), n = 1..12
- 03 ``check_gradient`` (``verify gradient``), n = 1..10
- 05 ``check_path`` (``verify path``), n = 1..12
- 06 ``check_constancy`` (``verify constancy``), n = 1..12
- 09 ``check_uso`` (``verify uso``), n = 1..8
- 10 ``check_sink`` (``verify sink``), n = 1..12
- 08 keeps its own loop (origin start, seeds ``1000 + n``) and draws its
  objectives with ``_random_linear_objective``, as ``verify equivalence``
  does.
- 11 draws its random formulas with ``_random_formula`` and certifies
  each with ``certify_formula``, as ``verify sat`` does.
- 12 reads the degree that ``export polynomial`` prints and writes, and
  the degree of the tests' recursion ``expand``.

Tests 01, 04 and 07 have no ``verify`` counterpart.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion (with wall time); without ``-s`` the lines appear only for
failing criteria.
"""

import io
import json
import random
import time
from contextlib import contextmanager, redirect_stdout

from pivotforge import (
    BoxProgram,
    CnfFormula,
    Literal,
    PaddedObjective,
    active_set_run,
    bits_from_id,
    equivalence_check,
    make_rule,
)
from pivotforge.cli import (
    _random_formula,
    _random_linear_objective,
    certify_formula,
    check_constancy,
    check_gradient,
    check_path,
    check_sink,
    check_uniqueness,
    check_uso,
    main,
)
from pivotforge.engine import RULE_NAMES


@contextmanager
def report(label):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {label}: PASS ({time.perf_counter() - started:.1f}s)",
          flush=True)


def unit_vector_bits(n):
    return tuple(1 if i == n - 1 else 0 for i in range(n))


def test_01_iteration_count_for_every_rule(oracle_for):
    with report("01 iteration-count 2^n-1 for n=3..14, all rules"):
        for n in range(3, 15):
            oracle = oracle_for(n)
            program = BoxProgram.unit_cube(n)
            for rule_name in RULE_NAMES:
                trajectory = active_set_run(
                    program, oracle, (0,) * n, make_rule(rule_name, 7)
                )
                assert trajectory.outcome == "critical_point"
                assert trajectory.iterations == 2**n - 1
                points = trajectory.points()
                assert len(set(points)) == 2**n
                assert trajectory.final_point == unit_vector_bits(n)
                assert oracle.value(trajectory.final_point) == 2**n - 1


def test_02_unique_improving_dimension():
    with report("02 unique improving dimension, both conditions, n=1..12"):
        for n in range(1, 13):
            ok, witness = check_uniqueness(n)
            assert ok, witness


def test_03_closed_form_partials():
    with report("03 closed-form vertex partials = forward mode, n=1..10"):
        for n in range(1, 11):
            ok, witness = check_gradient(n)
            assert ok, witness


def test_04_unique_maximum_and_value_permutation(oracle_for):
    with report("04 argmax is the last unit vector; values are 0..2^n-1"):
        for n in range(1, 13):
            oracle = oracle_for(n)
            values = {}
            for vid in range(1 << n):
                values[vid] = oracle.value(bits_from_id(vid, n))
            assert sorted(values.values()) == list(range(1 << n))
            top = [vid for vid, v in values.items() if v == 2**n - 1]
            assert top == [1 << (n - 1)]  # id of the last unit vector


def test_05_hamiltonian_path():
    with report("05 Hamiltonian path = engine trajectory = reflected Gray code"):
        for n in range(1, 13):
            ok, witness = check_path(n)
            assert ok, witness


def test_06_partial_constant_along_improving_edge():
    with report("06 improving partial constant along its edge; degree-0 restriction"):
        for n in range(1, 13):
            ok, witness = check_constancy(n)
            assert ok, witness


def test_07_padding_preserves_the_count(oracle_for):
    with report("07 padded objectives run for exactly 2^d - 1 iterations"):
        for d, n in [(4, 16), (5, 20), (8, 16)]:
            objective = PaddedObjective(oracle_for(d), n)
            program = BoxProgram.unit_cube(n)
            trajectory = active_set_run(
                program, objective, (0,) * n, make_rule("lowest-index")
            )
            assert trajectory.iterations == 2**d - 1
            assert objective.value(trajectory.final_point) == 2**d - 1


def test_08_simplex_equivalence():
    with report("08 active-set = simplex on 100 random linear objectives, n=2..10"):
        for n in range(2, 11):
            program = BoxProgram.unit_cube(n)
            rng = random.Random(1000 + n)
            for trial in range(100):
                objective = _random_linear_objective(rng, n)
                rule_name = RULE_NAMES[trial % len(RULE_NAMES)]
                seed = rng.randrange(2**30)
                same, divergence = equivalence_check(
                    program, objective, (0,) * n,
                    lambda: make_rule(rule_name, seed),
                )
                assert same, (n, trial, objective.c, divergence)


def test_09_orientation_is_a_decomposable_uso():
    with report("09 induced orientation: USO, decomposable, top-dimension combed"):
        for n in range(1, 9):
            ok, witness = check_uso(n)
            assert ok, witness


def test_10_sink_finding_in_linear_queries():
    with report("10 sink finder: correct vertex with at most 2n queries, n=1..12"):
        for n in range(1, 13):
            ok, witness = check_sink(n)
            assert ok, witness


def _edge_case_formulas():
    def clause(*vs):
        return tuple(Literal(abs(v), v < 0) for v in vs)

    return [
        CnfFormula(1, ()),                                        # empty: vacuous
        CnfFormula(1, (clause(1),)),
        CnfFormula(1, (clause(-1),)),
        CnfFormula(1, (clause(1), clause(-1))),                   # contradiction
        CnfFormula(3, (clause(1, -2, 3),)),
        CnfFormula(2, (clause(1, 2), clause(-1, 2),
                       clause(1, -2), clause(-1, -2))),           # all sign patterns
        CnfFormula(2, (clause(1), clause(-2))),
        CnfFormula(3, (clause(-1, 2), clause(-2, 3), clause(1))),
        CnfFormula(2, (clause(1, 2), clause(1, 2))),              # repeated clause
        CnfFormula(2, (clause(1, 2), clause(-1, -2))),
        CnfFormula(3, tuple(
            clause(*(v if bit else -v for v, bit in zip((1, 2, 3), pattern)))
            for pattern in [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        )),                                                       # 8 patterns: unsat
        CnfFormula(12, (clause(5, -9, 12),)),
        CnfFormula(4, (clause(1), clause(2), clause(3), clause(4),)),
        CnfFormula(4, (clause(-1), clause(-2), clause(-3), clause(-4),)),
        CnfFormula(3, (clause(1, 2, 3), clause(-1, -2, -3))),
        CnfFormula(5, (clause(1, -2), clause(2, -3), clause(3, -4),
                       clause(4, -5), clause(5, -1))),
        CnfFormula(2, (clause(1,), clause(1, 2), clause(1, -2))),
        CnfFormula(6, (clause(1, 2, 3), clause(4, 5, 6),
                       clause(-1, -4), clause(-2, -5), clause(-3, -6))),
        CnfFormula(3, (clause(2,), clause(-2, 1), clause(-1, 3), clause(-3,))),
        CnfFormula(1, (clause(1), clause(1))),
    ]


def test_11_reduction_soundness():
    with report("11 clause-penalty reduction: max 0 iff satisfiable, exact counts"):
        rng = random.Random(2024)
        formulas = list(_edge_case_formulas())
        while len(formulas) < 220:
            formulas.append(_random_formula(rng, 12))
        assert len(formulas) >= 220
        for formula in formulas:
            ok, witness = certify_formula(formula, rng.randrange(1 << formula.n_vars))
            assert ok, (formula, witness)


def test_12_expansion_degrees(tmp_path, expand):
    with report("12 expanded total degree: n for n in {1,3..8}, 3 for n=2"):
        for n in range(1, 9):
            degree = 3 if n == 2 else n
            out = tmp_path / f"polynomial_n{n}.json"
            with redirect_stdout(io.StringIO()) as printed:
                assert main(["export", "polynomial", "--n", str(n), "--out", str(out)]) == 0
            assert printed.getvalue().startswith(f"degree={degree} ")
            assert json.loads(out.read_text())["total_degree"] == degree
            assert expand(n).total_degree == degree
