"""The three workloads: seeded ops and the correctness check of each.

A workload is built once (input generation and fixture build, which
count as set-up) and then yields the ops of cycle ``i`` on demand.  An
op's ``call`` is the timed part; ``check`` runs after the clock stops and
returns ``None`` or the reason the op failed.  CLI ops go through
``pivotforge.cli.main`` in-process, so every op builds fresh oracles as a
command would.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

import pivotforge.cli
import pivotforge.engine
from pivotforge.boxes import BoxProgram
from pivotforge.objectives import MultiPolyObjective
from pivotforge.polynomials import MultiPoly

from . import inputs

EXPECTED = Path(__file__).with_name("expected.json")


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    #: file the op writes, counted in ``cli.output_bytes`` and removed after the check
    out_path: Optional[Path] = None


def cli_call(argv: list):
    """``(exit code, stdout)`` of one in-process ``pivotforge`` command."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = pivotforge.cli.main(argv)
    return code, buffer.getvalue()


def summary_fields(stdout: str) -> dict:
    """``key=value`` tokens of a command's summary line."""
    return dict(tok.split("=", 1) for tok in stdout.split() if "=" in tok)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def hash_gate(path, expected: str) -> Optional[str]:
    """``None`` when the file's sha256 is ``expected``."""
    actual = sha256_file(path)
    return None if actual == expected else f"sha256 {actual} != recorded {expected}"


# ---------------------------------------------------------------- walk --


def walk_check(n: int, out: Path, expected_sha: str):
    def check(result) -> Optional[str]:
        code, stdout = result
        if code != 0:
            return f"exit {code}"
        fields = summary_fields(stdout)
        if fields.get("iterations") != str(2 ** n - 1):
            return f"iterations {fields.get('iterations')} != 2^{n} - 1"
        if fields.get("final") != str(1 << (n - 1)):
            return f"final vertex {fields.get('final')} is not e_{n}"
        return hash_gate(out, expected_sha)
    return check


def build_walk(seed: int, workdir: Path):
    expected = json.loads(EXPECTED.read_text())
    ops = []
    for key, argv, n in inputs.walk_ops(seed):
        out = workdir / ("walk-" + key.replace(" ", "_").replace("-", "") + ".out")
        ops.append(Op(key, lambda argv=argv + ["--out", str(out)]: cli_call(argv),
                      walk_check(n, out, expected[key]), out))
    return lambda cycle: ops


# ------------------------------------------------------------- certify --


def verify_check(result) -> Optional[str]:
    code, stdout = result
    if code != 0 or summary_fields(stdout).get("result") != "pass":
        return f"exit {code}: {stdout.strip()[:200]}"
    return None


def reduce_check(satisfiable: bool):
    def check(result) -> Optional[str]:
        code, stdout = result
        verdict = summary_fields(stdout).get("verdict")
        want = "SAT" if satisfiable else "UNSAT"
        if code != 0 or verdict != want:
            return f"exit {code}, verdict {verdict}, constructed {want}"
        return None
    return check


def build_certify(seed: int, workdir: Path):
    equivalence_seed = random.Random(f"certify-{seed}").randrange(2 ** 31)
    verify = [
        ["verify", "uso", "--n", "10"],
        ["verify", "uniqueness", "--n", "13"],
        ["verify", "path", "--n", "12"],
        ["verify", "equivalence", "--n", "8", "--trials", "100", "--seed", str(equivalence_seed)],
    ]
    verify_ops = [Op(" ".join(argv), lambda argv=argv: cli_call(argv), verify_check)
                  for argv in verify]
    files = []
    for i, (satisfiable, text) in enumerate(inputs.certify_cnf_files(seed)):
        cnf = workdir / f"formula{i}.cnf"
        cnf.write_text(text)
        out = workdir / f"formula{i}.poly.json"
        argv = ["reduce", str(cnf), "--check", "--out", str(out)]
        label = f"reduce {'sat' if satisfiable else 'unsat'} --check"
        files.append(Op(label, lambda argv=argv: cli_call(argv), reduce_check(satisfiable), out))
    # one reduce per cycle keeps the cycle's op count odd, so the median op
    # is one op kind rather than the midpoint between two
    return lambda cycle: verify_ops + [files[cycle % len(files)]]


# ---------------------------------------------------------- linesearch --


def objective_terms(spec: dict) -> dict:
    """Exponent vector -> coefficient of the separable objective whose
    i-th partial derivative is coordinate i's cubic."""
    n = len(spec["coords"])
    terms = {}
    for i, coord in enumerate(spec["coords"]):
        for k, c in enumerate(inputs.derivative_coeffs(coord)):
            if c:
                exps = [0] * n
                exps[i] = k + 1
                terms[tuple(exps)] = c / (k + 1)
    return terms


def linesearch_call(spec: dict, terms: dict):
    n = len(spec["coords"])
    objective = MultiPolyObjective(MultiPoly(n, terms))
    program = BoxProgram(tuple(c["lower"] for c in spec["coords"]),
                         tuple(c["upper"] for c in spec["coords"]))
    rule = pivotforge.engine.make_rule(spec["rule"], spec["rule_seed"])
    return pivotforge.engine.active_set_run(program, objective, program.lower, rule)


def first_order_ok(coord: dict, x) -> bool:
    """Box first-order condition for a maximizer at ``x`` in the
    coordinate's interval, with the benchmark's own derivative."""
    d = inputs.derivative_at(coord, Fraction(x))
    return d == 0 or (d > 0 and x == coord["upper"]) or (d < 0 and x == coord["lower"])


def linesearch_check(spec: dict):
    coords, bad = spec["coords"], spec["bad"]

    def check(trajectory) -> Optional[str]:
        x = trajectory.final_point
        if bad is not None:
            if trajectory.stop_reason != "not_representable":
                return f"stop {trajectory.stop_reason}, constructed not_representable"
            if trajectory.records[-1].direction.coord != bad + 1:
                return f"stopped on coordinate {trajectory.records[-1].direction.coord}"
            moved = {r.direction.coord - 1 for r in trajectory.records[:-1]}
            if any(x[i] != coords[i]["roots"][0] for i in moved):
                return "a coordinate before the irrational one missed its first root"
            return None
        if trajectory.stop_reason != "critical_point":
            return f"stop {trajectory.stop_reason}, constructed critical_point"
        for coord, xi in zip(coords, x):
            if xi != coord["roots"][0]:
                return f"stopped at {xi}, constructed {coord['roots'][0]}"
            if not first_order_ok(coord, xi):
                return f"first-order condition fails at {xi}"
        return None
    return check


def build_linesearch(seed: int, workdir: Path):
    cycles = [[Op(f"linesearch {spec['rule']}" + (" irrational" if spec["bad"] is not None else ""),
                  lambda spec=spec, terms=objective_terms(spec): linesearch_call(spec, terms),
                  linesearch_check(spec))
               for spec in cycle]
              for cycle in inputs.linesearch_pool(seed)]
    return lambda cycle: cycles[cycle % len(cycles)]


SETUP = {"walk": build_walk, "certify": build_certify, "linesearch": build_linesearch}


def build(name: str, seed: int, workdir: Path):
    """Set up workload ``name``; returns ``cycle(i) -> [Op]``."""
    os.makedirs(workdir, exist_ok=True)
    return SETUP[name](seed, workdir)
