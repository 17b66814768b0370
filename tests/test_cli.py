import dataclasses
import hashlib
import itertools
import json
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from pivotforge import (
    BoxProgram,
    CnfFormula,
    Literal,
    LowerBoundPolynomial,
    MultiPoly,
    PaddedObjective,
    Trajectory,
    UniPoly,
    Walk,
    active_set_run,
    bits_from_id,
    cli,
    engine,
    format_rational,
    hamiltonian_path,
    make_rule,
    reflected_gray_ids,
    tiles,
    violation_polynomial,
)
from pivotforge.objectives import _is_int_vertex
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


#: sha256 of small ``run`` outputs, recorded before the writer reused
#: coordinate text and the line search reused the pass's slope (the
#: steepest and ``--approx`` pins before the vertex gradient sweep and the
#: incremental entering rows, the ``--max-iter`` and ``--pad-to 12`` pins
#: before the writer took row texts from a table): output bytes are the
#: contract, so these must never change.
RUN_SHA256 = {
    "--n 8": "93069d4ce2a4bac0085f8ff8cbf1e51e875847b1a5ba101f9734620cc2ac3950",
    "--n 8 --rule random --seed 3":
        "0fbd34c71d640261fc96c072b1db27920560f672cce0cc853948be5edebed2b6",
    "--n 8 --format csv": "ba5583c09a4917f1050f8a69594eaa6da707aa333f594f791ae07d8ff5bef36c",
    "--n 6 --pad-to 9": "b24f3c62fe38d5d8af41e1ee1e5d1a6b0c8281f1621cf9b5cf368623bdabb7d5",
    "--n 8 --rule steepest":
        "401af616348c0cab7ad370f0623ac52df65ce8c1f9a2c990edcad2129a5b8db7",
    "--n 8 --rule highest-index --approx":
        "ba0ad364a8baeb78ec1b9784739ac564b822a68265b9ad75b137e747f6750c28",
    "--n 8 --max-iter 100":  # an error stop, exit 1
        "509413c53ef85732ab3414c25157b56e09031fc46d599446c428ac63ee12f858",
    "--n 7 --pad-to 12 --rule highest-index":  # two-digit rows up to 24
        "bbf62c06dc199b81d874debd3fdc9d7d05e22d1369fb1bc810117caa74698a84",
}


@pytest.mark.parametrize("argv", sorted(RUN_SHA256))
def test_run_output_bytes_are_pinned(tmp_path, capsys, argv):
    out = tmp_path / "out"
    stopped = "--max-iter" in argv
    assert run_cli(["run", *argv.split(), "--out", str(out)]) == (1 if stopped else 0)
    expected_err = "error: walk stopped after 100 passes: max_iter_exceeded\n" if stopped else ""
    assert capsys.readouterr().err == expected_err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RUN_SHA256[argv]


#: sha256 of small ``export`` and ``reduce --check`` outputs, recorded while
#: each document was still built as one string before it was written (the
#: ``export orientation`` pins at n = 11 and 12, whose keys run to 4 digits,
#: while that document was still built whole and encoded by ``json``; the
#: ``export polynomial --n 13`` pin while the recursion was still expanded
#: over ``MultiPoly`` and the document encoded by ``json``)
WRITE_SHA256 = {
    "export polynomial --n 6": "d62c8bba57fd8a1db1b5b0ceee0ddbd8d254e54ae95c3e1f7afa720b29b6b518",
    "export polynomial --n 13": "051a16357326d65658d00bfce31907c9e6af5b188cf844ffa5eafff12e41d82a",
    "export orientation --n 5": "906140446a5710e29d788e20dd9541fea0d58ee291c3f14960dfdf178c3424a3",
    "export orientation --n 11": "eb4c08eb218d5bdc94e9d88408cad5f97d18b4530014f87fb41d9e38a367f110",
    "export orientation --n 12": "0f021b987989079dc921067111eb3f01fd331bc341a05120641aa944315d8143",
    "export path --n 6": "ddf5bf48c3c5593a537ca34fda60edfbcebf61183d85579877c0134ceef68617",
    # recorded while the walk made one improving_dimension call per vertex;
    # n = 13 crosses a tile boundary at the default TILE_BITS
    "export path --n 13": "5132e801df2538c91cb1dcc8733c6c5dc50f8edab4a73c15b0bc45dba3bc1595",
    "reduce CNF --check": "9f69ab6191e5e595e59f103586e2c83903900c25cb4cc334b11f6d3188947437",
}


@pytest.mark.parametrize("argv", sorted(WRITE_SHA256))
def test_export_and_reduce_output_bytes_are_pinned(tmp_path, capsys, argv):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 4 3\n1 -2 3 0\n-1 4 0\n2 -3 -4 0\n")
    out = tmp_path / "out"
    assert run_cli(argv.replace("CNF", str(cnf)).split() + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WRITE_SHA256[argv]


def _polynomial_document(nvars: int, terms: list, total_degree: int) -> str:
    """The text of a polynomial file as ``json`` encodes the whole
    document: the byte reference of ``export polynomial`` and ``reduce``."""
    doc = {"nvars": nvars, "total_degree": total_degree, "terms": [
        {"exponents": list(exps), "coefficient": format_rational(c)} for exps, c in terms]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_export_polynomial_bytes_equal_the_expanded_document(tmp_path, capsys, expand):
    for n in range(1, 11):
        poly = expand(n)
        out = tmp_path / f"n{n}.json"
        assert run_cli(["export", "polynomial", "--n", str(n), "--out", str(out)]) == 0
        assert capsys.readouterr().out == \
            f"degree={poly.total_degree} terms={len(poly.terms)} file={out}\n"
        assert out.read_text() == _polynomial_document(n, poly.sorted_terms(),
                                                       poly.total_degree)


def test_reduce_bytes_equal_the_whole_document(tmp_path, capsys):
    rng = random.Random(29)
    formulas = [cli._random_formula(rng, 6) for _ in range(20)]
    formulas += [CnfFormula(0, ()), CnfFormula(3, ())]  # "terms": [] twice
    for i, formula in enumerate(formulas):
        cnf, out = tmp_path / f"f{i}.cnf", tmp_path / f"f{i}.json"
        cnf.write_text(f"p cnf {formula.n_vars} {len(formula.clauses)}\n" + "".join(
            " ".join(str(-lit.variable if lit.negated else lit.variable) for lit in clause)
            + " 0\n" for clause in formula.clauses))
        assert run_cli(["reduce", str(cnf), "--out", str(out)]) == 0
        capsys.readouterr()
        poly = violation_polynomial(formula)
        assert out.read_text() == _polynomial_document(formula.n_vars, poly.sorted_terms(),
                                                       poly.total_degree)


def test_decimal_key_order_is_sort_keys_order():
    for size in (1 << k for k in range(15)):
        assert list(cli._decimal_key_order(size)) == sorted(range(size), key=str)


def test_cli_runs_without_site_packages():
    """The package has no runtime dependency: with only its source on the
    path and no site directory, the command still imports and checks."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import pivotforge.cli; "
            "sys.exit(pivotforge.cli.main(['verify', 'uniqueness', '--n', '3']))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, "check=uniqueness n=3 result=pass\n", "")


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
        objective = PaddedObjective(objective, ambient)
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


@pytest.mark.parametrize("argv", [["run", "--format", "json"], ["run", "--format", "csv"],
                                  ["export", "path"]], ids=["json", "csv", "export-path"])
def test_run_memory_does_not_grow_with_the_walk(tmp_path, capsys, monkeypatch, argv):
    """``run --n 12`` walks eight times as many passes as ``run --n 9``,
    and ``export path --n 12`` writes eight times as many ids; the peak of
    traced allocations may grow by less than 128 KiB (holding the records
    grows it by about 1.6 MB, and holding the ids by about 490 KB).  The
    path's vertex table holds one tile of 2^TILE_BITS ids, a size that
    stops growing at n = TILE_BITS; at 6 tile bits both walks cross tiles
    of the same size."""
    monkeypatch.setattr(tiles, "TILE_BITS", 6)
    def peak(n: int) -> int:
        tracemalloc.start()
        try:
            assert run_cli([*argv, "--n", str(n), "--out", str(tmp_path / f"n{n}")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a first run at each size fills caches that do not grow with the walk,
    # such as the interpreter's free lists of n-tuples
    peak(9), peak(12)
    small, large = peak(9), peak(12)
    capsys.readouterr()
    assert large - small < 128 * 1024, (small, large)


def _traced_peaks(tmp_path, argv) -> tuple:
    """The traced peaks of ``argv`` at n = 12 and n = 14, each from a
    second run, after a first at each size has filled caches that do not
    grow with n, as in the walk's memory test."""
    def peak(n: int) -> int:
        out = ["--out", str(tmp_path / f"n{n}")] if argv[0] == "export" else []
        tracemalloc.start()
        try:
            assert run_cli([*argv, "--n", str(n), *out]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(12), peak(14)
    return peak(12), peak(14)


@pytest.mark.parametrize("argv", [["verify", "uso"], ["export", "orientation"]],
                         ids=["verify-uso", "export-orientation"])
def test_orientation_memory_grows_by_under_16_bytes_per_vertex(tmp_path, capsys, argv):
    """From n = 12 to n = 14 the traced peak of ``verify uso`` and ``export
    orientation`` grows by less than 16 bytes per added vertex.  Both hold
    the values in an array of 4 bytes per vertex and the outmap in one of
    2; holding the values as Python integers, or the outmap as a list,
    grows it by far more."""
    small, large = _traced_peaks(tmp_path, argv)
    capsys.readouterr()
    assert large - small < 16 * ((1 << 14) - (1 << 12)), (small, large)


def test_polynomial_memory_grows_by_under_16_bytes_per_term(tmp_path, capsys):
    """From n = 12 to n = 14 ``export polynomial`` writes 12,315 more
    terms, and its traced peak grows by less than 16 bytes per added term:
    it holds one term and the O(n^3) terms of degree at most 3.  Holding
    every term, as an expansion in memory does, grows it by hundreds of
    bytes per term."""
    added = 2 ** 14 - 2 ** 12 + (13 * 16 - 11 * 14) // 2  # 12,315
    small, large = _traced_peaks(tmp_path, ["export", "polynomial"])
    capsys.readouterr()
    assert large - small < 16 * added, (small, large)


def _check_path_on_the_trajectory(n: int):
    """The walk part of ``check_path`` as it was when it held the whole
    trajectory, with the walk taken from ``cli.active_set_steps``: the
    oracle for the witness bytes.  (The path checks before it are
    unchanged.)"""
    program = BoxProgram.unit_cube(n)
    ids = list(hamiltonian_path(n))
    start = (0,) * n
    walk = Walk(program, start, cli.active_set_steps(program, LowerBoundPolynomial(n), start,
                                                     make_rule("lowest-index")))
    trajectory = Trajectory(program, start, list(walk), walk.stop_reason)
    engine_ids = [program.vertex_id_or_none(p) for p in trajectory.points()]
    if engine_ids != ids:
        return False, {"reason": "engine trajectory differs from the path",
                       "engine": engine_ids, "path": ids}
    return True, None


def _diverging_steps(kind: str):
    """``active_set_steps`` altered to stray from the Gray-code path."""
    def steps(*args, **kwargs):
        for record in engine.active_set_steps(*args, **kwargs):
            n = len(record.x_after)
            if kind == "short" and record.index == (1 << n) - 2:
                return "critical_point"
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
        return "critical_point"
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


def _path_checks_on_lists(n: int, ids: list):
    """The path part of ``check_path`` as it was when it listed the walk,
    its sorted copy and the Gray code: the oracle for the witness bytes.
    ``None`` when every path check passes."""
    if sorted(ids) != list(range(1 << n)) or ids[-1] != 1 << (n - 1):
        return False, {"reason": "not a Hamiltonian path to the optimum", "path": ids}
    for a, b in zip(ids, ids[1:]):
        if bin(a ^ b).count("1") != 1:
            return False, {"reason": "non-adjacent step", "from": a, "to": b}
    if ids != reflected_gray_ids(n):
        return False, {"reason": "differs from the reflected Gray code",
                       "path": ids, "gray": reflected_gray_ids(n)}
    half = 1 << (n - 1)
    if n >= 2 and ids[half:] != [v | half for v in reversed(ids[:half])]:
        return False, {"reason": "half-reflection law violated", "path": ids}
    return None


PATH_WALKS = {  # walks over the 3-cube that the Gray path could be swapped for
    "gray": [0, 1, 3, 2, 6, 7, 5, 4],
    "short": [0, 1, 3, 2, 6, 7, 5],
    "long": [0, 1, 3, 2, 6, 7, 5, 4, 0],
    "repeat": [0, 1, 3, 2, 3, 7, 5, 4],
    "wrong_end": [4, 5, 7, 6, 2, 3, 1, 0],
    "non_adjacent": [0, 3, 1, 2, 6, 7, 5, 4],
    "not_gray": [0, 2, 3, 1, 5, 7, 6, 4],
}


@pytest.mark.parametrize("kind", sorted(PATH_WALKS))
def test_verify_path_witness_bytes_on_a_wrong_path(capsys, monkeypatch, kind):
    ids = PATH_WALKS[kind]
    monkeypatch.setattr(cli, "hamiltonian_path", lambda n: iter(ids))
    expected = _path_checks_on_lists(3, ids)
    assert (expected is None) == (kind == "gray")
    assert cli.check_path(3) == (expected or (True, None))
    code = run_cli(["verify", "path", "--n", "3"])
    out = capsys.readouterr().out
    if expected is None:
        assert (code, out) == (0, "check=path n=3 result=pass\n")
    else:
        document = {"check": "path", "result": "fail", "witness": expected[1]}
        assert (code, out) == (1, json.dumps(document, indent=2, sort_keys=True) + "\n")


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


@pytest.mark.parametrize("max_iter", ["-5", "-1"])
def test_run_negative_max_iter_exits_2_without_output(tmp_path, capsys, max_iter):
    out = tmp_path / "t.json"
    with pytest.raises(SystemExit) as err:
        run_cli(["run", "--n", "3", "--max-iter", max_iter, "--out", str(out)])
    assert err.value.code == 2
    assert capsys.readouterr() == ("", f"error: --max-iter must be at least 0, got {max_iter}\n")
    assert not out.exists()


def test_run_max_iter_zero_stops_before_the_first_pass(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert run_cli(["run", "--n", "3", "--max-iter", "0", "--out", str(out)]) == 1
    data = json.loads(out.read_text())
    assert (data["iterations"], data["stop_reason"]) == (0, "max_iter_exceeded")
    assert "iterations=0" in capsys.readouterr().out


def test_run_csv_summary(tmp_path):
    out = tmp_path / "run.csv"
    run_cli(["run", "--n", "3", "--format", "csv", "--approx", "--out", str(out)])
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,rule,iterations,final_vertex_id,final_value,final_value_approx_lossy"
    assert lines[1] == "3,lowest-index,7,4,7/1,7.0"


def test_random_linear_objective_separates_every_vertex():
    # the claim of ``verify equivalence``: distinct values on all 2^n vertices
    for n in range(1, 11):
        for seed in range(30):
            c = cli._random_linear_objective(random.Random(seed), n).c
            sums = [Fraction(0)]
            for ci in c:
                sums += [s + ci for s in sums]
            assert len(set(sums)) == len(sums)


def test_random_linear_objective_draws_two_integers_per_coordinate():
    # no redraw (at seed 1, n = 8 and seed 4, n = 10 a sampler that rejects
    # ties draws again), and each coefficient is the two-Fraction sum that
    # the one-fraction construction must equal
    for seed in range(100):
        for n in range(1, 13):
            rng, reference = random.Random(seed), random.Random(seed)
            c = cli._random_linear_objective(rng, n).c
            expected = tuple(
                Fraction(reference.randint(-60, 60), reference.randint(1, 9))
                + Fraction(1 << i, 2520 << n) for i in range(n))
            assert rng.getstate() == reference.getstate()
            assert c == expected
            assert all(type(ci) is Fraction for ci in c)


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


def _off_at(name: str, vid: int, mutate):
    """``LowerBoundPolynomial``'s method ``name`` with its reply at the
    vertex ``vid`` of the 5-cube passed through ``mutate(reply, *args)``."""
    original = getattr(LowerBoundPolynomial, name)
    point = bits_from_id(vid, 5)

    def mutant(self, x, *args):
        reply = original(self, x, *args)
        return mutate(reply, *args) if tuple(x) == point else reply
    return mutant


# At n = 5 the improving edge of vertex 22 is along x_3, to vertex 18, and
# that of vertex 13 along x_2; the partial in x_4 at vertex 26 is 23.
DERIVATIVE_MUTANTS = {
    "partial off by 1 at the far vertex": (
        "constancy", "partial", _off_at("partial", 18, lambda d, k: d + 1 if k == 3 else d),
        '{\n  "check": "constancy",\n  "result": "fail",\n  "witness": {\n'
        '    "k": 3,\n    "mu": "1/1",\n    "vertex_id": 22\n  }\n}\n'),
    "edge restriction with a mu term": (
        "constancy", "edge_restriction",
        _off_at("edge_restriction", 13, lambda g, *_: UniPoly(g.coeffs + (1,))),
        '{\n  "check": "constancy",\n  "result": "fail",\n  "witness": {\n'
        '    "k": 2,\n    "restriction_degree": 1,\n    "vertex_id": 13\n  }\n}\n'),
    "gradient with one sign flipped": (
        "gradient", "gradient", _off_at("gradient", 26, lambda g: g[:3] + (-g[3],) + g[4:]),
        '{\n  "check": "gradient",\n  "result": "fail",\n  "witness": {\n'
        '    "closed_form": "-23/1",\n    "forward_mode": "23/1",\n    "k": 4,\n'
        '    "vertex_id": 26\n  }\n}\n'),
}


@pytest.mark.parametrize("mutant", sorted(DERIVATIVE_MUTANTS))
def test_derivative_checks_name_the_mutated_vertex(capsys, monkeypatch, mutant):
    check, name, method, expected = DERIVATIVE_MUTANTS[mutant]
    monkeypatch.setattr(LowerBoundPolynomial, name, method)
    assert run_cli(["verify", check, "--n", "5"]) == 1
    assert capsys.readouterr().out == expected


def test_verify_reads_the_lower_bound_objective_only_at_vertices(capsys, monkeypatch):
    """Every ``verify`` check evaluates F_n at ``int`` 0/1 points only."""
    points = []

    def recording(original):
        def method(self, x, *args):
            points.append(x)
            return original(self, x, *args)
        return method

    for name in ("value", "partial", "value_and_gradient", "edge_restriction"):
        monkeypatch.setattr(LowerBoundPolynomial, name,
                            recording(getattr(LowerBoundPolynomial, name)))
    for check in cli.CHECKS:
        assert run_cli(["verify", check, "--n", "4"]) == 0
    capsys.readouterr()
    assert points
    assert [x for x in points if not _is_int_vertex(x)] == []


def test_verify_sat_draws_at_most_n_variables(capsys, monkeypatch):
    drawn = []

    def recording(formula):
        drawn.append(formula.n_vars)
        return violation_polynomial(formula)

    monkeypatch.setattr(cli, "violation_polynomial", recording)
    assert run_cli(["verify", "sat", "--n", "2", "--trials", "40"]) == 0
    assert capsys.readouterr().out == "check=sat n=2 trials=40 seed=0 result=pass\n"
    assert sorted(set(drawn)) == [1, 2]


def test_verify_sat_witness_is_the_lowest_vertex_off_the_law(monkeypatch):
    """A polynomial that keeps its degree, its maximum and the satisfying
    witness, but not the value at every vertex, is refused at the lowest
    vertex whose value is not minus its violated-clause count."""
    formula = CnfFormula(3, ((Literal(1, False), Literal(2, False), Literal(3, False)),))
    x2, x3 = MultiPoly.variable(3, 2), MultiPoly.variable(3, 3)
    # off by -1 at ids 6 and 7 only; still 0 at id 1, the lowest satisfying one
    monkeypatch.setattr(cli, "violation_polynomial", lambda f: violation_polynomial(f) - x2 * x3)
    assert cli.certify_formula(formula, 0) == (
        False, {"reason": "per-vertex law violated", "vertex": [0, 1, 1]})
    monkeypatch.setattr(cli, "violation_polynomial", violation_polynomial)
    assert cli.certify_formula(formula, 0) == (True, None)


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
        oracle = LowerBoundPolynomial(n)
        hard = induce_orientation(n, [oracle.value(bits_from_id(v, n)) for v in range(1 << n)])
        edges = [(low, coord) for low in range(1 << n) for coord in range(1, n + 1)
                 if not (low >> (coord - 1)) & 1]
        masks = list(hard.outgoing_masks())
        for low, coord in rng.sample(edges, rng.randint(0, len(edges))):
            bit = 1 << (coord - 1)  # reverse the edge: it leaves the other endpoint
            masks[low] ^= bit
            masks[low | bit] ^= bit
        orientation = Orientation(n, masks)
        monkeypatch.setattr(cli, "induce_orientation", lambda n, values: orientation)
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


def test_module_docstring_states_the_caps():
    doc = " ".join(cli.__doc__.split())
    caps = cli.DEFAULT_CAPS
    for phrase in (f"engine runs and vertex scans n <= {caps['run']}",
                   "``verify uso``", "all three exports, ``export polynomial`` included",
                   f"SAT enumeration <= {caps['sat']} variables"):
        assert phrase in doc


def test_caps_and_override(monkeypatch, capsys):
    assert cli.DEFAULT_CAPS == {"run": 20, "sat": 24}
    for argv in (["verify", "uso", "--n", "21"], ["export", "orientation", "--n", "21"],
                 ["export", "polynomial", "--n", "21"], ["run", "--n", "21"],
                 ["verify", "path", "--n", "21"]):
        with pytest.raises(SystemExit) as err:
            run_cli(argv)
        assert err.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: n=21 exceeds the 'uso' cap 20 (set PIVOTFORGE_MAX_N to override)",
        "error: n=21 exceeds the orientation cap 20 (set PIVOTFORGE_MAX_N to override)",
        "error: n=21 exceeds the polynomial cap 20 (set PIVOTFORGE_MAX_N to override)",
        "error: n=21 exceeds the engine-run cap 20 (set PIVOTFORGE_MAX_N to override)",
        "error: n=21 exceeds the 'path' cap 20 (set PIVOTFORGE_MAX_N to override)",
    ]
    with pytest.raises(SystemExit) as err:
        run_cli(["--help"])
    assert err.value.code == 0
    assert " ".join(capsys.readouterr().out.split()).endswith(
        "dimension caps: engine runs, vertex scans and exports, 'verify uso' and "
        "'export polynomial' included, n <= 20; "
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


def test_reduce_non_utf8_input_exits_2_and_writes_nothing(tmp_path, capsys):
    cnf = tmp_path / "bin.cnf"
    cnf.write_bytes(b"\xff\xfe p cnf 1 1\n1 0\n")
    code = run_cli(["reduce", str(cnf), "--check"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {cnf}: ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "bin.poly.json").exists()


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
