import dataclasses
import itertools
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from pivotforge import (
    BoxProgram,
    LowerBoundPolynomial,
    Trajectory,
    Walk,
    active_set_run,
    cli,
    engine,
    hamiltonian_path,
    make_rule,
    pad,
    violation_polynomial,
)
from pivotforge.structure import (
    Orientation,
    combed_dimension,
    faces,
    induce_orientation,
    is_decomposable,
    sinks_in_face,
)


def run_cli(args):
    return cli.main(args)


def test_run_writes_trajectory_and_summary(tmp_path, capsys):
    out = tmp_path / "traj.json"
    code = run_cli(["run", "--n", "4", "--rule", "lowest-index", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "n=4 rule=lowest-index iterations=15 final=8 value=15/1" in printed
    data = json.loads(out.read_text())
    assert data["iterations"] == 15
    assert data["final"]["vertex_id"] == 8
    assert data["final"]["objective_value"] == "15/1"
    assert len(data["records"]) == 15


def test_run_is_byte_deterministic(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        run_cli(["run", "--n", "5", "--rule", "random", "--seed", "11",
                 "--out", str(p)])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_run_padding(tmp_path, capsys):
    out = tmp_path / "pad.json"
    code = run_cli(["run", "--n", "4", "--pad-to", "12", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "iterations=15" in printed and "pad_to=12" in printed
    assert json.loads(out.read_text())["n"] == 12


@pytest.mark.parametrize("argv, n, ambient, rule, label, approx", [
    (["--n", "4", "--rule", "random", "--seed", "3", "--approx"], 4, 4,
     "random", "random(seed=3)", True),
    (["--n", "3", "--pad-to", "6", "--rule", "steepest"], 3, 6,
     "steepest", "steepest", False),
])
def test_run_json_bytes_equal_the_reference_document(tmp_path, capsys, argv, n, ambient,
                                                     rule, label, approx):
    out = tmp_path / "traj.json"
    assert run_cli(["run"] + argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    objective = LowerBoundPolynomial(n)
    if ambient > n:
        objective = pad(objective, ambient)
    trajectory = active_set_run(BoxProgram.unit_cube(ambient), objective,
                                (0,) * ambient, make_rule(rule, 3))
    reference = json.dumps(trajectory.to_json_dict(objective, rule_name=label, approx=approx),
                           indent=2, sort_keys=True) + "\n"
    assert out.read_bytes() == reference.encode("utf-8")


@pytest.mark.parametrize("argv", [
    ["run", "--n", "3"],
    ["run", "--n", "3", "--format", "csv"],
    ["export", "path", "--n", "3"],
])
def test_unwritable_out_path_exits_2_with_one_line(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "out.json"
    with pytest.raises(SystemExit) as err:
        run_cli(argv + ["--out", str(out)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_run_reports_unwritable_out_path_before_the_walk(tmp_path, capsys, monkeypatch, fmt):
    def must_not_walk(*args, **kwargs):
        raise AssertionError("the walk ran before --out was opened")

    monkeypatch.setattr(cli, "active_set_steps", must_not_walk)
    out = tmp_path / "missing" / f"out.{fmt}"
    with pytest.raises(SystemExit) as err:
        run_cli(["run", "--n", "15", "--format", fmt, "--out", str(out)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1


def _failing_after(passes: int, error):
    """``cli.active_set_steps`` that raises ``error`` after ``passes`` records."""
    steps = cli.active_set_steps

    def failing(*args, **kwargs):
        yield from itertools.islice(steps(*args, **kwargs), passes)
        raise error("stopped in the middle of the walk")

    return failing


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_failed_run_leaves_no_output_and_no_spool(tmp_path, capsys, monkeypatch, fmt, error):
    monkeypatch.setattr(cli, "active_set_steps", _failing_after(5, error))
    out = tmp_path / f"out.{fmt}"
    out.write_text("an earlier run's output\n")
    with pytest.raises(error):
        run_cli(["run", "--n", "6", "--format", fmt, "--out", str(out)])
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_failed_run_removes_only_a_file_the_out_path_names(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "active_set_steps", _failing_after(5, RuntimeError))
    target = tmp_path / "target.json"
    link = tmp_path / "link.json"
    link.symlink_to(target)
    with pytest.raises(RuntimeError):
        run_cli(["run", "--n", "6", "--out", str(link)])
    assert link.is_symlink() and target.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_run_memory_does_not_grow_with_the_walk(tmp_path, capsys, fmt):
    """``run --n 12`` walks eight times as many passes as ``run --n 9``;
    the peak of traced allocations may grow by less than 128 KiB (holding
    the records grows it by about 1.6 MB)."""
    def peak(n: int) -> int:
        tracemalloc.start()
        try:
            assert run_cli(["run", "--n", str(n), "--format", fmt,
                            "--out", str(tmp_path / f"n{n}.{fmt}")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a first run at each size fills caches that do not grow with the walk,
    # such as the interpreter's free lists of n-tuples
    peak(9), peak(12)
    small, large = peak(9), peak(12)
    capsys.readouterr()
    assert large - small < 128 * 1024, (small, large)


def _check_path_on_the_trajectory(n: int):
    """The walk part of ``check_path`` as it was when it held the whole
    trajectory, with the walk taken from ``cli.active_set_steps``: the
    oracle for the witness bytes.  (The path checks before it are
    unchanged.)"""
    program = BoxProgram.unit_cube(n)
    ids = list(hamiltonian_path(n).vertex_ids)
    start = (0,) * n
    walk = Walk(program, start, cli.active_set_steps(program, LowerBoundPolynomial(n), start,
                                                     make_rule("lowest-index")))
    trajectory = Trajectory(program, start, list(walk), walk.outcome, walk.stop_reason)
    if trajectory.vertex_ids() != ids:
        return False, {"reason": "engine trajectory differs from the path",
                       "engine": trajectory.vertex_ids(), "path": ids}
    return True, None


def _diverging_steps(kind: str):
    """``active_set_steps`` altered to stray from the Gray-code path."""
    def steps(*args, **kwargs):
        for record in engine.active_set_steps(*args, **kwargs):
            n = len(record.x_after)
            if kind == "short" and record.index == (1 << n) - 2:
                return "critical_point", "critical_point"
            if kind == "first" and record.index == 1:
                record = dataclasses.replace(record, x_after=(0,) * (n - 1) + (1,))
            if kind == "detour" and record.index == 6:
                record = dataclasses.replace(record, x_after=record.x_before)
            if kind == "off_vertex" and record.index == 9:
                record = dataclasses.replace(record, x_after=(Fraction(1, 2),) * n)
            yield record
        if kind == "long":
            yield dataclasses.replace(record, index=record.index + 1, x_before=record.x_after,
                                      x_after=(0,) * n)
        return "critical_point", "critical_point"
    return steps


@pytest.mark.parametrize("kind", ["none", "short", "long", "first", "detour", "off_vertex"])
def test_verify_path_witness_bytes_on_a_diverging_walk(capsys, monkeypatch, kind):
    monkeypatch.setattr(cli, "active_set_steps", _diverging_steps(kind))
    n = 4
    ok, witness = _check_path_on_the_trajectory(n)
    assert ok == (kind == "none")
    assert cli.check_path(n) == (ok, witness)
    code = run_cli(["verify", "path", "--n", str(n)])
    out = capsys.readouterr().out
    if ok:
        assert (code, out) == (0, f"check=path n={n} result=pass\n")
    else:
        expected = {"check": "path", "result": "fail", "witness": witness}
        assert (code, out) == (1, json.dumps(expected, indent=2, sort_keys=True) + "\n")


def test_reduce_unwritable_out_path_exits_2_with_one_line(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 1\n1 -2 0\n")
    out = tmp_path / "missing" / "f.poly.json"
    with pytest.raises(SystemExit) as err:
        run_cli(["reduce", str(cnf), "--check", "--out", str(out)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1


def test_run_engine_error_exits_nonzero(tmp_path, capsys):
    out = tmp_path / "t.json"
    code = run_cli(["run", "--n", "3", "--max-iter", "1", "--out", str(out)])
    assert code == 1
    assert "outcome=error" in capsys.readouterr().out
    assert json.loads(out.read_text())["stop_reason"] == "max_iter_exceeded"


def test_run_csv_summary(tmp_path):
    out = tmp_path / "run.csv"
    run_cli(["run", "--n", "3", "--format", "csv", "--approx", "--out", str(out)])
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,rule,iterations,final_vertex_id,final_value,final_value_approx_lossy"
    assert lines[1] == "3,lowest-index,7,4,7/1,7.0"


def test_verify_checks_pass(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for check, n in [("uniqueness", "6"), ("gradient", "5"), ("path", "6"),
                     ("constancy", "5"), ("uso", "5"), ("sink", "8")]:
        assert run_cli(["verify", check, "--n", n]) == 0
        assert capsys.readouterr().out == f"check={check} n={n} result=pass\n"
    assert run_cli(["verify", "equivalence", "--n", "5", "--trials", "20",
                    "--seed", "3"]) == 0
    assert capsys.readouterr().out == (
        "check=equivalence n=5 trials=20 seed=3 result=pass\n")
    assert run_cli(["verify", "sat", "--trials", "30", "--seed", "3"]) == 0
    assert capsys.readouterr().out == "check=sat n=12 trials=30 seed=3 result=pass\n"


def test_verify_sat_draws_at_most_n_variables(capsys, monkeypatch):
    drawn = []

    def recording(formula):
        drawn.append(formula.n_vars)
        return violation_polynomial(formula)

    monkeypatch.setattr(cli, "violation_polynomial", recording)
    assert run_cli(["verify", "sat", "--n", "2", "--trials", "40"]) == 0
    assert capsys.readouterr().out == "check=sat n=2 trials=40 seed=0 result=pass\n"
    assert sorted(set(drawn)) == [1, 2]


def test_verify_sat_past_the_enumeration_limit_exits_2(capsys, monkeypatch):
    # seed 6 draws a 26-variable formula first, which no oracle may enumerate
    monkeypatch.setenv("PIVOTFORGE_MAX_N", "30")
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", "sat", "--n", "26", "--trials", "1", "--seed", "6"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n=26 exceeds the enumeration cap 24\n"


@pytest.mark.parametrize("check, trials", [("equivalence", "0"), ("sat", "-3")])
def test_verify_trials_below_one_exit_2(check, trials, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", check, "--trials", trials])
    assert err.value.code == 2
    assert capsys.readouterr() == ("", f"error: --trials must be at least 1, got {trials}\n")


def test_verify_failure_emits_witness_json(capsys, monkeypatch):
    monkeypatch.setitem(
        cli.CHECKS, "uso",
        cli.CHECKS["uso"]._replace(run=lambda n: (False, {"face": ["*"], "sinks": []})),
    )
    code = run_cli(["verify", "uso", "--n", "2"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["check"] == "uso"
    assert payload["result"] == "fail"
    assert payload["witness"]["face"] == ["*"]


def _check_uso_by_face_scans(orientation):
    """The reference ``check_uso``: the unique-sink, decomposability and
    highest-free-dimension face scans, in this order."""
    for face in faces(orientation.n):
        sinks = sinks_in_face(orientation, face)
        if len(sinks) != 1:
            return False, {"reason": "face without a unique sink",
                           "face": face.json_pattern(), "sinks": sinks}
    ok, witness = is_decomposable(orientation)
    if not ok:
        return False, {"reason": "uncombed subcube", **witness}
    for face in faces(orientation.n, min_dimension=1):
        if max(face.free_coords) not in combed_dimension(orientation, face):
            return False, {"reason": "not combed in the highest free dimension",
                           "face": face.json_pattern()}
    return True, None


def test_verify_uso_witness_bytes_equal_the_face_scans(capsys, monkeypatch):
    rng = random.Random(59)
    reasons = set()
    for _ in range(300):
        n = rng.randint(1, 4)
        hard = induce_orientation(LowerBoundPolynomial(n), n)
        edges = [(low, coord) for low in range(1 << n) for coord in range(1, n + 1)
                 if not (low >> (coord - 1)) & 1]
        masks = list(hard.outgoing_masks())
        for low, coord in rng.sample(edges, rng.randint(0, len(edges))):
            bit = 1 << (coord - 1)  # reverse the edge: it leaves the other endpoint
            masks[low] ^= bit
            masks[low | bit] ^= bit
        orientation = Orientation(n, masks)
        monkeypatch.setattr(cli, "induce_orientation", lambda objective, n: orientation)
        ok, witness = _check_uso_by_face_scans(orientation)
        code = run_cli(["verify", "uso", "--n", str(n)])
        out = capsys.readouterr().out
        if ok:
            assert (code, out) == (0, f"check=uso n={n} result=pass\n")
        else:
            expected = {"check": "uso", "result": "fail", "witness": witness}
            assert (code, out) == (1, json.dumps(expected, indent=2, sort_keys=True) + "\n")
            reasons.add(witness["reason"])
    assert reasons == {"face without a unique sink", "uncombed subcube",
                       "not combed in the highest free dimension"}


def test_verify_help_names_each_claim(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", "--help"])
    assert err.value.code == 0
    text = capsys.readouterr().out
    for check in cli.CHECKS:
        assert check in text
    assert "Hamiltonian path" in text


def test_caps_and_override(monkeypatch, capsys):
    assert cli.DEFAULT_CAPS == {"run": 20, "pair-test": 16, "expansion": 18, "sat": 24}
    for argv in (["verify", "uso", "--n", "17"], ["export", "orientation", "--n", "17"],
                 ["export", "polynomial", "--n", "19"], ["run", "--n", "21"],
                 ["verify", "path", "--n", "21"]):
        with pytest.raises(SystemExit) as err:
            run_cli(argv)
        assert err.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: n=17 exceeds the 'uso' cap 16 (set PIVOTFORGE_MAX_N to override)",
        "error: n=17 exceeds the orientation cap 16 (set PIVOTFORGE_MAX_N to override)",
        "error: n=19 exceeds the expansion cap 18 (set PIVOTFORGE_MAX_N to override)",
        "error: n=21 exceeds the engine-run cap 20 (set PIVOTFORGE_MAX_N to override)",
        "error: n=21 exceeds the 'path' cap 20 (set PIVOTFORGE_MAX_N to override)",
    ]
    with pytest.raises(SystemExit) as err:
        run_cli(["--help"])
    assert err.value.code == 0
    assert " ".join(capsys.readouterr().out.split()).endswith(
        "dimension caps: engine runs and vertex scans n <= 20; the pair test of "
        "'verify uso' and 'export orientation' n <= 16; 'export polynomial' n <= 18; "
        "SAT enumeration <= 24 variables. The environment variable PIVOTFORGE_MAX_N "
        "replaces each cap with its value.")
    monkeypatch.setenv("PIVOTFORGE_MAX_N", "3")
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", "uniqueness", "--n", "5"])
    assert err.value.code == 2
    monkeypatch.setenv("PIVOTFORGE_MAX_N", "11")
    assert run_cli(["verify", "uniqueness", "--n", "5"]) == 0
    capsys.readouterr()


def test_export_polynomial_degrees(tmp_path, capsys):
    out = tmp_path / "p.json"
    run_cli(["export", "polynomial", "--n", "5", "--out", str(out)])
    assert "degree=5" in capsys.readouterr().out
    run_cli(["export", "polynomial", "--n", "2", "--out", str(out)])
    assert "degree=3" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert data["total_degree"] == 3
    assert all("/" in term["coefficient"] for term in data["terms"])


def test_export_path_and_orientation(tmp_path, capsys):
    path_file = tmp_path / "path.json"
    run_cli(["export", "path", "--n", "3", "--out", str(path_file)])
    assert json.loads(path_file.read_text()) == {
        "n": 3, "path": [0, 1, 3, 2, 6, 7, 5, 4]
    }
    orient_file = tmp_path / "orient.json"
    run_cli(["export", "orientation", "--n", "3", "--out", str(orient_file)])
    data = json.loads(orient_file.read_text())
    assert data["n"] == 3
    assert data["outgoing"]["4"] == []  # the optimum has no outgoing edges
    capsys.readouterr()


def test_reduce_round_trip(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("c demo\np cnf 3 1\n1 -2 3 0\n")
    out = tmp_path / "f.poly.json"
    code = run_cli(["reduce", str(cnf), "--check", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "degree=3" in printed
    assert "verdict=SAT max=0/1" in printed
    assert json.loads(out.read_text())["total_degree"] == 3


def test_reduce_unsat_verdict(tmp_path, capsys):
    cnf = tmp_path / "c.cnf"
    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    code = run_cli(["reduce", str(cnf), "--check"])
    assert code == 0
    assert "verdict=UNSAT max=-1/1" in capsys.readouterr().out


def test_reduce_past_the_enumeration_limit_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PIVOTFORGE_MAX_N", "30")
    cnf = tmp_path / "wide.cnf"
    cnf.write_text("p cnf 25 1\n1 -13 25 0\n")
    out = tmp_path / "w.json"
    with pytest.raises(SystemExit) as err:
        run_cli(["reduce", str(cnf), "--check", "--out", str(out)])
    assert err.value.code == 2
    assert capsys.readouterr() == ("", "error: n=25 exceeds the enumeration cap 24\n")
    assert not out.exists()


def test_reduce_check_over_the_sat_cap_writes_nothing(tmp_path, capsys):
    cnf = tmp_path / "wide.cnf"
    cnf.write_text("p cnf 25 1\n1 -13 25 0\n")
    with pytest.raises(SystemExit) as err:
        run_cli(["reduce", str(cnf), "--check"])
    assert err.value.code == 2
    assert capsys.readouterr() == ("", "error: n=25 exceeds the SAT enumeration cap\n")
    assert not (tmp_path / "wide.poly.json").exists()


def test_reduce_parse_error_exits_2(tmp_path, capsys):
    cnf = tmp_path / "bad.cnf"
    cnf.write_text("p cnf 2 1\n1 3 0\n")
    code = run_cli(["reduce", str(cnf)])
    assert code == 2
    assert "line 2" in capsys.readouterr().err
    assert run_cli(["reduce", str(tmp_path / "missing.cnf")]) == 2
    capsys.readouterr()


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["run"])  # missing --n
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", "bogus"])
    assert err.value.code == 2
    capsys.readouterr()
