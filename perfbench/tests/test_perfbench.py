"""The benchmark's own checks: seeded inputs, constructed verdicts, the
output hash gate and span self-time arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import random

import pytest

from perfbench import inputs, tracing, workloads
from pivotforge.satreduce import brute_force_sat, parse_dimacs, violation_polynomial


def test_same_seed_gives_identical_inputs():
    for seed in (0, 7):
        assert inputs.walk_ops(seed) == inputs.walk_ops(seed)
        assert inputs.certify_cnf_files(seed) == inputs.certify_cnf_files(seed)
        assert (inputs.serialize(inputs.linesearch_pool(seed))
                == inputs.serialize(inputs.linesearch_pool(seed)))
    assert inputs.certify_cnf_files(0) != inputs.certify_cnf_files(7)
    assert inputs.serialize(inputs.linesearch_pool(0)) != inputs.serialize(inputs.linesearch_pool(7))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("satisfiable", (True, False))
def test_constructed_formulas_have_intended_verdict(seed, satisfiable):
    text = inputs.cnf_file(random.Random(seed), satisfiable, n_vars=8, n_terms=None)
    formula = parse_dimacs(text)
    assert brute_force_sat(formula)[0] is satisfiable
    if satisfiable:
        planted = [int(b) for b in text.split("\n", 1)[0].split()[-1]]
        assert all(inputs._satisfies(planted, clause) for clause in inputs.dimacs_clauses(text))


def test_term_count_agrees_with_pivotforge():
    rng = random.Random(3)
    for satisfiable in (True, False):
        text = inputs.cnf_file(rng, satisfiable)
        poly = violation_polynomial(parse_dimacs(text))
        assert inputs.penalty_term_count(inputs.dimacs_clauses(text)) == len(poly.terms)
        assert abs(len(poly.terms) - inputs.CNF_TERMS) <= inputs.CNF_TERM_SLACK


def test_hash_gate_rejects_a_one_byte_change(tmp_path):
    path = tmp_path / "out.json"
    path.write_bytes(b'{"n": 3, "records": []}\n')
    recorded = workloads.sha256_file(path)
    assert workloads.hash_gate(path, recorded) is None
    data = bytearray(path.read_bytes())
    data[6] ^= 1
    path.write_bytes(bytes(data))
    assert workloads.hash_gate(path, recorded) is not None


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    root = tracer.record("op", 0, 100)
    a = tracer.record("a", 10, 50, root)
    tracer.record("b", 20, 30, a)
    tracer.record("b", 60, 90, root)
    assert tracer.layer_times() == {
        "op": (1, 100, 30),
        "a": (1, 40, 30),
        "b": (2, 40, 40),
    }


def test_linesearch_ops_end_as_constructed(tmp_path):
    ops = workloads.build("linesearch", 5, tmp_path)(0)
    assert sum(" irrational" in op.label for op in ops) == inputs.LS_IRRATIONAL_PER_CYCLE
    for op in ops:
        assert op.check(op.call()) is None, op.label


def test_first_order_check_rejects_a_wrong_point():
    coord = inputs.linesearch_op(random.Random(1), irrational=False)["coords"][0]
    r1, r2, _ = coord["roots"]
    assert workloads.first_order_ok(coord, r1)
    assert not workloads.first_order_ok(coord, (r1 + r2) / 2)


def test_tracing_restores_every_rebound_name():
    import pivotforge.cli as cli
    import pivotforge.engine as engine
    from pivotforge.objectives import LowerBoundPolynomial

    before = (engine.first_nonpositive, cli.main, LowerBoundPolynomial.gradient)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert engine.first_nonpositive is not before[0]
        with tracer.op_span():
            code, _ = workloads.cli_call(["verify", "uniqueness", "--n", "4"])
    assert code == 0
    assert (engine.first_nonpositive, cli.main, LowerBoundPolynomial.gradient) == before
    times = tracer.layer_times()
    assert times["cli.main"][0] == 1
    assert times["structure.improving_dimension"][0] == 16


def test_benchmark_json_lists_every_metric():
    import json

    from perfbench import run

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.per_layer_spec()]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.SETUP)


def test_end_to_end_scales_every_time_by_the_reference():
    from perfbench import run
    from perfbench.reference import REFERENCE_S

    # a machine running at half speed: the reference takes twice REFERENCE_S
    report = {"cycles": [[1.0, 3.0, 2.0], [2.0, 2.5, 1.5], [9.0, 0.5, 4.0]],
              "reference": [[2 * REFERENCE_S]] * 3,
              "setup_s": 0.2, "peak_rss_mb": 50.0}
    setups = [{"setup_s": 0.4, "reference_s": 4 * REFERENCE_S},
              {"setup_s": 0.3, "reference_s": 2 * REFERENCE_S}]
    values, wall, ref_s = run.end_to_end(report, setups)
    assert ref_s == 2 * REFERENCE_S
    # cycle medians 2.0, 2.0, 4.0
    assert wall == {"ops_per_s": 9 / 25.5, "op_s_p50": 2.0, "setup_s": 0.3}
    assert values["ops_per_s"] == pytest.approx(18 / 25.5)
    assert values["op_s_p50"] == pytest.approx(1.0)
    assert values["setup_s"] == pytest.approx(0.1)  # median of 0.1, 0.15, 0.1
    assert values["peak_rss_mb"] == 50.0


def test_reference_is_fixed_work():
    from perfbench.reference import reference

    assert reference() == reference()
