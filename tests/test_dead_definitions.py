"""No dead helpers, checked two ways.

By name: every function, class and method defined in the package modules
and the benchmark is referenced from outside its own definition.  A
reference is a name (``f(...)``), an attribute (``obj.f``) or a string
constant that is exactly the identifier (the benchmark tracer rebinds
names it reads as strings).  Imports do not count, so neither do the
re-exports of ``pivotforge/__init__.py``, and the tests under ``tests/``
are not scanned: a definition that only a test or the public namespace
names is dead code in the program.  A name used only inside its own
body (a recursive call, a class naming itself) has no caller either.
Dunder methods, which Python calls implicitly, and the ``test_*``
functions that pytest collects are exempt.

By reachability: every top-level function and class method of the
package, dunders included, is entered while the program's own traffic
runs under ``sys.setprofile``.  The traffic is every ``run``, ``export``
and ``verify`` form at small n, ``reduce --check`` on a satisfiable and
an unsatisfiable file, the usage errors, README's library example and the
benchmark's linesearch ops with their checks.  The name-based check
cannot see this: a method survives it whenever any local, attribute or
string anywhere shares its name (``Face.n`` stayed because other objects
have an ``n``).  A definition that nothing entered is allowed only with a
reason of one of four kinds (``REACH_CLASSES``).
"""

import ast
import contextlib
import io
import os
import re
import sys
from collections import Counter
from pathlib import Path

import pivotforge
from pivotforge import cli

ROOT = Path(__file__).resolve().parents[1]

#: Definitions kept without a reference, each with its reason.
ALLOWED = {
    "ObjectiveOracle": "a declaration: the protocol that oracles satisfy "
                       "structurally",
}


def _sources() -> list:
    package = [path for path in sorted((ROOT / "src" / "pivotforge").glob("*.py"))
               if path.name != "__init__.py"]
    return package + sorted((ROOT / "perfbench").rglob("*.py"))


def _references(node) -> Counter:
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            found[sub.value] += 1
    return found


def _exempt(name: str, path: Path) -> bool:
    if name.startswith("__") and name.endswith("__"):
        return True
    return path.name.startswith("test_") and name.startswith("test_")


def unreferenced_definitions() -> list:
    """``(file, line, name)`` for each definition that nothing outside its
    own body names."""
    trees = [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in _sources()]
    total = Counter()
    for _, tree in trees:
        total += _references(tree)
    dead = []
    for path, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if _exempt(node.name, path):
                continue
            if total[node.name] - _references(node)[node.name] == 0:
                dead.append((str(path.relative_to(ROOT)), node.lineno, node.name))
    return dead


def test_every_definition_has_a_caller():
    dead = unreferenced_definitions()
    assert [entry for entry in dead if entry[2] not in ALLOWED] == []
    assert {entry[2] for entry in dead} == set(ALLOWED)  # no stale allowlist entry


# ------------------------------------------------------- reachability --

#: The reasons a definition may stay although the traffic never enters it.
REACH_CLASSES = {
    # only a failing check or an error path enters it; the reason names the
    # test that does
    "witness",
    # only an input that no command produces enters it; the reason names the
    # test that gives one
    "branch",
    # the benchmark names it (its tracer rebinds it, or its ops call it)
    "benchmark",
    # an abstract or protocol body, a method that ``ObjectiveOracle`` requires
    # of every oracle, or what only such a method calls
    "interface",
}

_FACE_SCAN = ("witness", "only a failing uso check scans faces for its witness; "
              "test_verify_uso_witness_bytes_equal_the_face_scans")

#: ``module.[Class.]name`` -> (class, reason) for each definition that the
#: traffic does not enter.
REACH_ALLOWED = {
    "structure.is_uso": _FACE_SCAN,
    "structure.is_decomposable": _FACE_SCAN,
    "structure.combed_dimension": _FACE_SCAN,
    "structure.sinks_in_face": _FACE_SCAN,
    "structure.faces": _FACE_SCAN,
    "structure.Face.__post_init__": _FACE_SCAN,
    "structure.Face.dimension": _FACE_SCAN,
    "structure.Face.free_coords": _FACE_SCAN,
    "structure.Face.free_mask": _FACE_SCAN,
    "structure.Face.base_id": _FACE_SCAN,
    "structure.Face.vertex_ids": _FACE_SCAN,
    "structure.Face.json_pattern": _FACE_SCAN,
    "structure.reflected_gray_ids": (
        "witness", "the failing path check's witness; "
                   "test_verify_path_witness_bytes_on_a_wrong_path"),
    "cli._print_witness": (
        "witness", "prints a failing check's witness; "
                   "test_verify_path_witness_bytes_on_a_diverging_walk"),
    "boxes.BoxProgram.bits_of_vertex": (
        "witness", "the failing equivalence check's witness, and vertex_id; "
                   "test_vertex_id_round_trip"),
    "errors.AmbiguousImprovementError.__init__": (
        "witness", "raised when the uniqueness conditions disagree; "
                   "test_improving_dimension_reads_its_predicates_not_the_oracle"),
    "errors.DegenerateVertexError.__init__": (
        "witness", "raised when the simplex method finds the box degenerate; "
                   "test_simplex_names_the_vertex_of_two_entering_rows"),
    "errors.TieError.__init__": (
        "witness", "raised on a tied edge; "
                   "test_a_repeated_neighbour_value_raises_tie_error_naming_its_edge"),
    "engine.LowestIndexRule.choose_addition": (
        "branch", "two entering rows; test_the_rule_is_asked_whenever_it_has_a_choice"),
    "engine.HighestIndexRule.choose_addition": (
        "branch", "two entering rows; test_index_rules"),
    "engine.SteepestRule.choose_addition": (
        "branch", "two entering rows; test_engine_matches_definition_level_reference"),
    "engine.SeededRandomRule.choose_addition": (
        "branch", "two entering rows; "
                  "test_objective_strictly_increases_across_moving_passes"),
    "polynomials._exact_quotient": (
        "branch", "a restriction with a repeated root; "
                  "test_first_nonpositive_tangencies"),
    "engine.Trajectory.to_json_dict": (
        "benchmark", "the tracer's engine.to_json_dict span; the byte reference of "
                     "write_walk_json in test_run_json_bytes_equal_the_reference_document"),
    "boxes.BoxProgram.vertex_id": (
        "benchmark", "the tracer rebinds it; to_json_dict calls it"),
    "objectives.LinearObjective.gradient": (
        "benchmark", "the tracer rebinds the oracles' gradient; the engine calls "
                     "value_and_gradient"),
    "objectives.MultiPolyObjective.gradient": (
        "benchmark", "the tracer rebinds the oracles' gradient; the engine calls "
                     "value_and_gradient"),
    "objectives.MultiPolyObjective.value": (
        "benchmark", "the tracer rebinds the oracles' value; the engine calls "
                     "value_and_gradient"),
    "engine.PivotRule.choose_direction": ("interface", "abstract method"),
    "engine.PivotRule.choose_addition": ("interface", "abstract method"),
    "objectives.ObjectiveOracle.value": ("interface", "protocol method"),
    "objectives.ObjectiveOracle.gradient": ("interface", "protocol method"),
    "objectives.ObjectiveOracle.value_and_gradient": ("interface", "protocol method"),
    "objectives.ObjectiveOracle.edge_restriction": ("interface", "protocol method"),
    "objectives.PaddedObjective.gradient": (
        "interface", "ObjectiveOracle requires it; test_padding_reads_only_the_head"),
    "polynomials.MultiPoly.partial": (
        "interface", "only MultiPolyObjective.gradient calls it; "
                     "test_vertex_sweep_and_forward_partials_equal_expanded_polynomial_gradient"),
}


def _definitions() -> dict:
    """``{(file, first line): "module.[Class.]name"}`` for every top-level
    function and class method of the imported package.  The first line is
    that of the first decorator, as in ``co_firstlineno``."""
    found = {}
    for path in sorted(Path(pivotforge.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            owner, members = "", [node]
            if isinstance(node, ast.ClassDef):
                owner, members = node.name + ".", node.body
            for member in members:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([member.lineno] + [d.lineno for d in member.decorator_list])
                    found[(str(path), first)] = f"{path.stem}.{owner}{member.name}"
    return found


def _readme_example() -> str:
    """The fenced Python block under README's "Library example" heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"## Library example\s+```python\n(.*?)```", text, re.S).group(1)


def _command_traffic() -> list:
    """``(argv, exit code)`` for every command form at small n, the usage
    errors included; input and output files are in the working directory."""
    Path("sat.cnf").write_text("p cnf 3 3\n1 -2 0\n2 3 0\n-1 -3 0\n")
    Path("unsat.cnf").write_text("p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n")
    Path("bad.cnf").write_text("p cnf 2 1\n1 x 0\n")
    traffic = [(["run", "--n", "4", "--rule", rule, "--seed", "5"], 0)
               for rule in cli.RULE_NAMES]
    traffic += [
        (["run", "--n", "3", "--format", "csv", "--approx"], 0),
        (["run", "--n", "3", "--approx", "--out", "approx.json"], 0),
        (["run", "--n", "3", "--pad-to", "5"], 0),
        (["run", "--n", "2", "--max-iter", "0", "--pad-to", "3"], 1),
        (["run", "--n", "0"], 2),
        (["run", "--n", str(cli.DEFAULT_CAPS["run"] + 1)], 2),
        (["reduce", "sat.cnf", "--check"], 0),
        (["reduce", "unsat.cnf", "--check"], 0),
        (["reduce", "bad.cnf"], 2),
    ]
    traffic += [(["export", what, "--n", "4"], 0)
                for what in ("polynomial", "orientation", "path")]
    traffic += [(["verify", check, "--n", "4", "--trials", "20"], 0) for check in cli.CHECKS]
    return traffic


def _run_traffic() -> None:
    for argv, code in _command_traffic():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                got = cli.main(argv)
            except SystemExit as exc:
                got = exc.code
        assert got == code, argv
    exec(_readme_example(), {})
    from perfbench import inputs, workloads

    cycle = workloads.build("linesearch", 1, Path("bench"))
    for i in range(inputs.LS_POOL_CYCLES):
        for op in cycle(i):
            assert op.check(op.call()) is None, op.label


def unentered_definitions() -> list:
    """``module.[Class.]name`` of every package definition that the traffic,
    run in the working directory, did not enter."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)
    try:
        _run_traffic()
    finally:
        sys.setprofile(None)
    definitions = _definitions()
    for code in entered:
        definitions.pop((os.path.realpath(code.co_filename), code.co_firstlineno), None)
    return sorted(definitions.values())


def test_every_definition_is_entered_by_the_traffic(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))  # perfbench sits beside src/
    monkeypatch.chdir(tmp_path)
    unentered = unentered_definitions()
    assert [name for name in unentered if name not in REACH_ALLOWED] == []
    assert set(unentered) == set(REACH_ALLOWED)  # no stale allowlist entry
    assert {kind for kind, _ in REACH_ALLOWED.values()} <= REACH_CLASSES
    bench = "".join(path.read_text(encoding="utf-8")
                    for path in (ROOT / "perfbench").glob("*.py"))
    assert [name for name, (kind, _) in REACH_ALLOWED.items()
            if kind == "benchmark" and name.rsplit(".", 1)[1] not in bench] == []
