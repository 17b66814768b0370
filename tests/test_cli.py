import json
import random

import pytest

from pivotforge import (
    BoxProgram,
    LowerBoundPolynomial,
    active_set_run,
    cli,
    make_rule,
    pad,
    violation_polynomial,
)
from pivotforge.structure import (
    FORWARD,
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

    monkeypatch.setattr(cli, "active_set_run", must_not_walk)
    out = tmp_path / "missing" / f"out.{fmt}"
    with pytest.raises(SystemExit) as err:
        run_cli(["run", "--n", "15", "--format", fmt, "--out", str(out)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1


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
        edges = {(low, coord): hard.edge_direction(low, coord) == FORWARD
                 for low in range(1 << n) for coord in range(1, n + 1)
                 if not (low >> (coord - 1)) & 1}
        flips = rng.sample(sorted(edges), rng.randint(0, len(edges)))
        for edge in flips:
            edges[edge] = not edges[edge]
        orientation = Orientation(n, edges)
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
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", "uso", "--n", "11"])
    assert err.value.code == 2
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
    with pytest.raises(SystemExit) as err:
        run_cli(["reduce", str(cnf), "--check", "--out", str(tmp_path / "w.json")])
    assert err.value.code == 2
    assert capsys.readouterr().err == "error: n=25 exceeds the enumeration cap 24\n"


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
