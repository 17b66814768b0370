"""Batch command-line interface.

Four subcommands: ``run`` executes the active-set method on the
lower-bound objective and writes the trajectory; ``verify`` runs one
named certification check and exits 0/1 with a machine-readable witness
on failure; ``export`` writes polynomial/orientation/path artifacts;
``reduce`` converts a DIMACS CNF file into its clause-penalty polynomial.

All numeric output is exact ``"p/q"`` strings; ``--approx`` adds clearly
marked lossy decimal fields.  Identical commands (and seeds) produce
byte-identical output files.  Exit codes: 0 pass, 1 property violation or
engine error (with a witness), 2 usage or parse errors.

Dimension caps guard the exponential work, each set where a measured
command still finishes in bounded time and memory (``CAP_HELP`` lists
them): engine runs and vertex scans n <= 20 (``run``, ``verify path``
and the other vertex checks, ``export path``), the Szabó–Welzl pair test
over 2^n x 2^n vertex pairs n <= 16 (``verify uso``, ``export
orientation``), the expanded polynomial n <= 18 (``export polynomial``,
whose term list is built in memory), SAT enumeration <= 24 variables.
Setting the ``PIVOTFORGE_MAX_N`` environment variable replaces each of
these command caps with its value, but the brute-force SAT oracles never
enumerate more than ``satreduce.ENUMERATION_LIMIT`` (24) variables: a
larger request exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import random
import stat
import sys
from fractions import Fraction
from itertools import zip_longest
from typing import Callable, NamedTuple

from .boxes import AxisDirection, BoxProgram, bits_from_id
from .engine import (
    OUTCOME_CRITICAL_POINT,
    RULE_NAMES,
    SPOOL_CHUNK,
    Walk,
    active_set_run,  # not called here; the benchmark's tracer rebinds cli.active_set_run
    active_set_steps,
    equivalence_check,
    make_rule,
    write_walk_json,
)
from .errors import DimacsParseError, PivotforgeError, TooLargeError
from .objectives import (
    LinearObjective,
    LowerBoundPolynomial,
    expand,
    pad,
    partial_closed_form,
)
from .polynomials import multi_eval
from .satreduce import (
    ENUMERATION_LIMIT,
    CnfFormula,
    Literal,
    _vertex_values,
    brute_force_max,
    brute_force_sat,
    parse_dimacs,
    violated_clause_count,
    violation_polynomial,
)
from .scalars import format_rational
from .structure import (
    combed_dimension,
    combed_in_top_dimensions,
    faces,
    hamiltonian_path,
    improving_dimension,
    induce_orientation,
    is_decomposable,
    is_uso,
    reflected_gray_ids,
    sink_find_decomposable,
)

# Set from measurements (2-vCPU VM, Python 3.11; the README has the table):
# run --n 20 takes 100 s in 18 MB, as every n does; verify uso --n 16 takes
# 11 s and 23 MB, about three times the time of n = 15; export polynomial --n 18
# takes 770 MB, and n = 19 would take twice that.
DEFAULT_CAPS = {"run": 20, "pair-test": 16, "expansion": 18, "sat": ENUMERATION_LIMIT}

CAP_HELP = (
    f"dimension caps: engine runs and vertex scans n <= {DEFAULT_CAPS['run']};\n"
    f"the pair test of 'verify uso' and 'export orientation' n <= "
    f"{DEFAULT_CAPS['pair-test']};\n"
    f"'export polynomial' n <= {DEFAULT_CAPS['expansion']}; "
    f"SAT enumeration <= {DEFAULT_CAPS['sat']} variables.\n"
    "The environment variable PIVOTFORGE_MAX_N replaces each cap with its value."
)


def _usage_error(message: str) -> "SystemExit":
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def _cap(kind: str) -> int:
    override = os.environ.get("PIVOTFORGE_MAX_N")
    if override:
        try:
            return int(override)
        except ValueError:
            raise _usage_error(f"PIVOTFORGE_MAX_N must be an integer, got {override!r}")
    return DEFAULT_CAPS[kind]


def _check_cap(n: int, kind: str, what: str) -> None:
    cap = _cap(kind)
    if n > cap:
        raise _usage_error(
            f"n={n} exceeds the {what} cap {cap} (set PIVOTFORGE_MAX_N to override)"
        )
    if n < 1:
        raise _usage_error("n must be at least 1")


@contextlib.contextmanager
def _writing(path: str):
    """Open ``path`` for writing and yield the text handle.  A path that
    cannot be opened or written is a usage error (exit 2, one line).  If
    the body raises anything, an interrupt included, the file is removed,
    so a failed command leaves no partial output; only a regular file that
    ``path`` itself names is removed, never a device or a symlink's
    target."""
    try:
        handle = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise _usage_error(f"cannot write {path}: {exc}")
    opened = os.fstat(handle.fileno())
    try:
        with handle:
            yield handle
    except BaseException as exc:
        with contextlib.suppress(OSError):
            if stat.S_ISREG(opened.st_mode) and os.path.samestat(os.lstat(path), opened):
                os.remove(path)
        if isinstance(exc, OSError):
            raise _usage_error(f"cannot write {path}: {exc}")
        raise


def _write_text(path: str, text: str) -> None:
    with _writing(path) as handle:
        handle.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _print_witness(check: str, witness: dict) -> None:
    print(_json_text({"check": check, "result": "fail", "witness": witness}), end="")


# ---------------------------------------------------------------- run --


def cmd_run(args) -> int:
    n = args.n
    _check_cap(n, "run", "engine-run")
    ambient = args.pad_to if args.pad_to is not None else n
    if ambient < n:
        raise _usage_error("--pad-to must be at least --n")
    _check_cap(ambient, "run", "engine-run")
    inner = LowerBoundPolynomial(n)
    objective = pad(inner, ambient) if ambient > n else inner
    program = BoxProgram.unit_cube(ambient)
    rule = make_rule(args.rule, args.seed)
    label = args.rule if args.rule != "random" else f"random(seed={args.seed})"
    out = args.out or (f"trajectory_n{n}" + (f"_pad{ambient}" if ambient > n else "")
                       + f"_{args.rule}.{args.format}")
    start = (0,) * ambient
    with _writing(out) as handle:  # opened first: a bad path fails before the walk
        walk = Walk(program, start,
                    active_set_steps(program, objective, start, rule, max_iter=args.max_iter))
        if args.format == "json":
            import tempfile  # here, not at the top: no other command needs it

            # the record text waits in an unnamed file beside the output
            # (not in RAM, nor in a tmpfs /tmp) until the header is known
            spool_dir = os.path.dirname(os.path.abspath(out))
            with tempfile.TemporaryFile("w+", buffering=SPOOL_CHUNK, encoding="utf-8",
                                        newline="", dir=spool_dir) as spool:
                write_walk_json(handle, spool, walk, objective, rule_name=label,
                                approx=args.approx)
        else:
            for _ in walk:  # the summary needs only the count and the last record
                pass
            row = walk.summary_row(objective, label, approx=args.approx)
            writer = csv.DictWriter(handle, fieldnames=list(row))
            writer.writeheader()
            writer.writerow(row)
    final_id = program.vertex_id_or_none(walk.final_point)
    final_id = "-" if final_id is None else final_id
    value = format_rational(walk.final_value(objective))
    pad_note = f" pad_to={ambient}" if ambient > n else ""
    print(f"n={n}{pad_note} rule={args.rule} iterations={walk.iterations} "
          f"final={final_id} value={value} outcome={walk.outcome} file={out}")
    return 0 if walk.outcome == OUTCOME_CRITICAL_POINT else 1


# ------------------------------------------------------------- verify --
#
# Each check certifies one property and is the only implementation of it:
# ``verify`` and the acceptance tests both call these functions.  A check
# returns ``(True, None)`` on pass and ``(False, witness)`` on a violation.


def check_uniqueness(n: int):
    oracle = LowerBoundPolynomial(n)
    optimum = tuple(1 if i == n - 1 else 0 for i in range(n))
    for vid in range(1 << n):
        bits = bits_from_id(vid, n)
        k = improving_dimension(bits, oracle)  # raises on any disagreement
        if (k is None) != (bits == optimum):
            return False, {"vertex_id": vid, "bits": list(bits), "dimension": k}
    return True, None


def check_gradient(n: int):
    oracle = LowerBoundPolynomial(n)
    for vid in range(1 << n):
        bits = bits_from_id(vid, n)
        for k in range(1, n + 1):
            closed = partial_closed_form(n, k, bits)
            forward = oracle.partial(bits, k)
            if closed != forward:
                return False, {
                    "vertex_id": vid, "k": k,
                    "closed_form": format_rational(closed),
                    "forward_mode": format_rational(forward),
                }
    return True, None


def check_path(n: int):
    oracle = LowerBoundPolynomial(n)
    path = hamiltonian_path(n, oracle)
    ids = list(path.vertex_ids)
    if sorted(ids) != list(range(1 << n)) or ids[-1] != 1 << (n - 1):
        return False, {"reason": "not a Hamiltonian path to the optimum",
                       "path": ids}
    for a, b in zip(ids, ids[1:]):
        if bin(a ^ b).count("1") != 1:
            return False, {"reason": "non-adjacent step", "from": a, "to": b}
    if ids != reflected_gray_ids(n):
        return False, {"reason": "differs from the reflected Gray code",
                       "path": ids, "gray": reflected_gray_ids(n)}
    if n >= 2:  # half-reflection: second half = reversed first half + top bit
        half = 1 << (n - 1)
        if ids[half:] != [v | half for v in reversed(ids[:half])]:
            return False, {"reason": "half-reflection law violated", "path": ids}
    program = BoxProgram.unit_cube(n)
    start = (0,) * n

    def engine_ids():  # the walk's vertex ids, one pass at a time
        yield program.vertex_id_or_none(start)
        for record in active_set_steps(program, oracle, start, make_rule("lowest-index")):
            yield program.vertex_id_or_none(record.x_after)

    missing = object()
    if any(a != b for a, b in zip_longest(engine_ids(), ids, fillvalue=missing)):
        return False, {"reason": "engine trajectory differs from the path",
                       "engine": list(engine_ids()), "path": ids}
    return True, None


def check_constancy(n: int):
    oracle = LowerBoundPolynomial(n)
    samples = [Fraction(j, 10) for j in range(11)]
    for vid in range(1 << n):
        bits = bits_from_id(vid, n)
        k = improving_dimension(bits, oracle)
        if k is None:
            continue
        sign = 1 - 2 * bits[k - 1]
        base = oracle.partial(bits, k)
        for mu in samples:
            point = tuple(
                bits[i] + sign * mu if i == k - 1 else bits[i] for i in range(n)
            )
            if oracle.partial(point, k) != base:
                return False, {"vertex_id": vid, "k": k, "mu": format_rational(mu)}
        g = oracle.edge_restriction(bits, AxisDirection(k, sign))
        if g.degree > 0:
            return False, {"vertex_id": vid, "k": k,
                           "restriction_degree": g.degree}
    return True, None


def _random_linear_objective(rng: random.Random, n: int) -> LinearObjective:
    """Random rational coefficients, resampled until all 2^n vertex values
    are distinct (checked by exact subset-sum enumeration)."""
    while True:
        c = tuple(Fraction(rng.randint(-60, 60), rng.randint(1, 9)) for _ in range(n))
        sums = [Fraction(0)]
        for ci in c:
            sums += [s + ci for s in sums]
        if len(set(sums)) == len(sums):
            return LinearObjective(c)


def check_equivalence(n: int, trials: int, seed: int):
    program = BoxProgram.unit_cube(n)
    rng = random.Random(seed)
    for trial in range(trials):
        objective = _random_linear_objective(rng, n)
        start = program.vertex_from_bits(tuple(rng.randint(0, 1) for _ in range(n)))
        rule_name = RULE_NAMES[trial % len(RULE_NAMES)]
        rule_seed = rng.randrange(2 ** 30)
        same, divergence = equivalence_check(
            program, objective, start, lambda: make_rule(rule_name, rule_seed)
        )
        if not same:
            return False, {
                "trial": trial,
                "rule": rule_name,
                "c": [format_rational(ci) for ci in objective.c],
                "start": list(program.bits_of_vertex(start)),
                "divergence": {
                    "index": divergence["index"],
                    "active_set": divergence["active_set"] and [
                        format_rational(v) for v in divergence["active_set"]],
                    "simplex": divergence["simplex"] and [
                        format_rational(v) for v in divergence["simplex"]],
                },
            }
    return True, None


def check_uso(n: int):
    orientation = induce_orientation(LowerBoundPolynomial(n), n)
    ok, witness = is_uso(orientation)
    if not ok:
        return False, {"reason": "face without a unique sink", **witness}
    if combed_in_top_dimensions(orientation):  # certifies both combedness claims
        return True, None
    # the face scans below pick the witness and its reason
    ok, witness = is_decomposable(orientation)
    if not ok:
        return False, {"reason": "uncombed subcube", **witness}
    for face in faces(n, min_dimension=1):
        if max(face.free_coords) not in combed_dimension(orientation, face):
            return False, {"reason": "not combed in the highest free dimension",
                           "face": face.json_pattern()}
    return True, None


def check_sink(n: int):
    oracle = LowerBoundPolynomial(n)
    vid, queries = sink_find_decomposable(lambda bits: oracle.value(bits), n)
    values = [oracle.value(bits_from_id(v, n)) for v in range(1 << n)]
    argmax = max(range(1 << n), key=lambda v: values[v])
    optimum = 1 << (n - 1)
    if vid != argmax or vid != optimum or queries > 2 * n:
        return False, {"found": vid, "argmax": argmax, "optimum": optimum,
                       "queries": queries, "query_budget": 2 * n}
    return True, None


def _random_formula(rng: random.Random, max_vars: int) -> CnfFormula:
    """At most 20 random clauses of width 1 to 3 over 1 to ``max_vars``
    variables."""
    n_vars = rng.randint(1, max_vars)
    n_clauses = rng.randint(0, 20)
    clauses = []
    for _ in range(n_clauses):
        width = rng.randint(1, min(3, n_vars))
        variables = rng.sample(range(1, n_vars + 1), width)
        clauses.append(tuple(Literal(v, rng.random() < 0.5) for v in variables))
    return CnfFormula(n_vars, tuple(clauses))


def certify_formula(formula: CnfFormula, probe: int):
    """Certify the clause-penalty reduction of one formula: degree <= 3,
    maximum 0 iff satisfiable (with a satisfying witness), and value
    ``-(violated clauses)`` on every vertex.  At vertex id ``probe`` the
    bitmask vertex evaluator is also tied to full polynomial evaluation."""
    n = formula.n_vars
    poly = violation_polynomial(formula)
    if poly.total_degree > 3:
        return False, {"reason": "degree > 3", "degree": poly.total_degree}
    best, _ = brute_force_max(poly, n)
    satisfiable, assignment = brute_force_sat(formula)
    if (best == 0) != satisfiable:
        return False, {"reason": "max/sat mismatch",
                       "max": format_rational(best), "sat": satisfiable}
    if satisfiable and violated_clause_count(formula, assignment) != 0:
        return False, {"reason": "satisfying assignment violates a clause",
                       "vertex": list(assignment)}
    values = _vertex_values(poly, n)
    for vid in range(1 << n):
        bits = bits_from_id(vid, n)
        if values[vid] != -violated_clause_count(formula, bits):
            return False, {"reason": "per-vertex law violated", "vertex": list(bits)}
    bits = bits_from_id(probe, n)
    if values[probe] != multi_eval(poly, bits):
        return False, {"reason": "vertex evaluator disagrees with full evaluation",
                       "vertex": list(bits)}
    return True, None


def check_sat(n: int, trials: int, seed: int):
    rng = random.Random(seed)
    for trial in range(trials):
        formula = _random_formula(rng, n)
        probe = rng.randrange(1 << formula.n_vars)
        ok, witness = certify_formula(formula, probe)
        if not ok:
            return False, {"trial": trial, **witness}
    return True, None


class Check(NamedTuple):
    claim: str  # the property the check certifies, shown in --help
    run: Callable  # run(n) or, when randomized, run(n, trials, seed)
    cap: str  # key of DEFAULT_CAPS bounding n
    default_n: int
    randomized: bool = False


CHECKS = {
    "uniqueness": Check(
        "every non-optimal 0/1 vertex has exactly one improving dimension, "
        "and the gradient-sign and prefix/parity characterizations agree; "
        "the optimal vertex has none",
        check_uniqueness, "run", 10),
    "gradient": Check(
        "the closed-form vertex partial derivatives equal the forward-mode "
        "derivatives of the recursion at every vertex and coordinate",
        check_gradient, "run", 8),
    "path": Check(
        "iterating the unique improving dimension from the origin walks a "
        "Hamiltonian path that equals the engine trajectory and the reflected "
        "binary Gray code, and satisfies the half-reflection law",
        check_path, "run", 10),
    "constancy": Check(
        "along the unique improving edge at any non-optimal vertex the "
        "improving partial derivative is constant in the edge parameter and "
        "the edge restriction has degree 0",
        check_constancy, "run", 8),
    "equivalence": Check(
        "on random linear objectives with distinct vertex values, the "
        "active-set and simplex methods visit identical vertex sequences under "
        "a shared pivot rule",
        check_equivalence, "run", 8, randomized=True),
    "uso": Check(
        "the induced orientation has exactly one sink in every face, is combed "
        "on every subcube, and is combed in each subcube's highest free "
        "dimension",
        check_uso, "pair-test", 8),
    "sink": Check(
        "the descent sink finder returns the brute-force optimum vertex, the "
        "last unit vector, with at most 2n value queries",
        check_sink, "run", 10),
    "sat": Check(
        "on random formulas with at most n variables, the clause-penalty "
        "polynomial has total degree <= 3, equals minus the violated-clause "
        "count on every vertex, and attains maximum 0 over the cube exactly "
        "on satisfiable formulas",
        check_sat, "sat", 12, randomized=True),
}


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise _usage_error(f"--trials must be at least 1, got {args.trials}")
    check = CHECKS[args.check]
    n = check.default_n if args.n is None else args.n
    _check_cap(n, check.cap, f"'{args.check}'")
    params = {"trials": args.trials, "seed": args.seed} if check.randomized else {}
    try:
        ok, witness = check.run(n, **params)
    except TooLargeError as exc:
        raise _usage_error(str(exc))
    except PivotforgeError as exc:
        ok, witness = False, {"error": type(exc).__name__, "message": str(exc)}
    if ok:
        extra = "".join(f" {key}={value}" for key, value in params.items())
        print(f"check={args.check} n={n}{extra} result=pass")
        return 0
    _print_witness(args.check, witness)
    return 1


# ------------------------------------------------------------- export --


def cmd_export(args) -> int:
    n = args.n
    if args.what == "polynomial":
        _check_cap(n, "expansion", "expansion")
        poly = expand(n)
        out = args.out or f"polynomial_n{n}.json"
        _write_text(out, _json_text(poly.to_json_dict()))
        print(f"degree={poly.total_degree} terms={len(poly.terms)} file={out}")
    elif args.what == "orientation":
        _check_cap(n, "pair-test", "orientation")
        orientation = induce_orientation(LowerBoundPolynomial(n), n)
        out = args.out or f"orientation_n{n}.json"
        _write_text(out, _json_text(orientation.to_json_dict()))
        print(f"n={n} edges={n * (1 << (n - 1))} file={out}")
    else:
        _check_cap(n, "run", "path")
        path = hamiltonian_path(n)
        out = args.out or f"path_n{n}.json"
        _write_text(out, _json_text(path.to_json_dict()))
        print(f"n={n} length={len(path.vertex_ids)} file={out}")
    return 0


# ------------------------------------------------------------- reduce --


def cmd_reduce(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    try:
        formula = parse_dimacs(text)
    except DimacsParseError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 2
    poly = violation_polynomial(formula)
    if args.check:  # before anything is written, so a refused check leaves no output
        if formula.n_vars > _cap("sat"):
            raise _usage_error(f"n={formula.n_vars} exceeds the SAT enumeration cap")
        try:
            best, _ = brute_force_max(poly, formula.n_vars)
            satisfiable, witness = brute_force_sat(formula)
        except TooLargeError as exc:
            raise _usage_error(str(exc))
    out = args.out or (os.path.splitext(args.input)[0] + ".poly.json")
    _write_text(out, _json_text(poly.to_json_dict()))
    print(f"nvars={formula.n_vars} clauses={len(formula.clauses)} "
          f"degree={poly.total_degree} file={out}")
    if args.check:
        verdict = "SAT" if satisfiable else "UNSAT"
        print(f"verdict={verdict} max={format_rational(best)}")
        if (best == 0) != satisfiable:
            _print_witness("reduce", {
                "reason": "reduction disagrees with truth-table check",
                "max": format_rational(best), "sat": satisfiable,
            })
            return 1
    return 0


# --------------------------------------------------------------- main --


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pivotforge",
        description="Exact active-set/simplex runs on box programs and "
                    "brute-force certification of their worst-case instances.",
        epilog=CAP_HELP,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        help="run the active-set method on the lower-bound objective",
        description="Runs the active-set method from the origin on the "
                    "n-dimensional lower-bound objective (optionally padded "
                    "into a larger cube) and writes the full trajectory.",
        epilog=CAP_HELP,
    )
    run.add_argument("--n", type=int, required=True, help="objective dimension")
    run.add_argument("--rule", choices=RULE_NAMES, default="lowest-index")
    run.add_argument("--seed", type=int, default=0,
                     help="seed for the 'random' rule")
    run.add_argument("--pad-to", type=int, default=None, metavar="N",
                     help="embed the objective in an N-dimensional cube")
    run.add_argument("--max-iter", type=int, default=None)
    run.add_argument("--format", choices=("json", "csv"), default="json",
                     help="trajectory JSON or one-row summary CSV")
    run.add_argument("--out", default=None, help="output path")
    run.add_argument("--approx", action="store_true",
                     help="add lossy decimal fields next to exact p/q values")
    run.set_defaults(func=cmd_run)

    claims = "\n".join(f"  {name}: {check.claim}" for name, check in CHECKS.items())
    verify = sub.add_parser(
        "verify",
        help="run one certification check (exit 0 pass, 1 fail with witness)",
        description="Each check certifies one property:\n" + claims,
        epilog=CAP_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    verify.add_argument("check", choices=sorted(CHECKS))
    verify.add_argument("--n", type=int, default=None,
                        help="dimension; for 'sat', the most variables a random "
                             "formula may have (default depends on the check)")
    verify.add_argument("--trials", type=int, default=100,
                        help="trial count for randomized checks")
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=cmd_verify)

    export = sub.add_parser(
        "export",
        help="write polynomial/orientation/path artifacts as JSON",
        epilog=CAP_HELP,
    )
    export.add_argument("what", choices=("polynomial", "orientation", "path"))
    export.add_argument("--n", type=int, required=True)
    export.add_argument("--out", default=None)
    export.set_defaults(func=cmd_export)

    reduce_cmd = sub.add_parser(
        "reduce",
        help="convert a DIMACS CNF file to its clause-penalty polynomial",
    )
    reduce_cmd.add_argument("input", help="DIMACS CNF file")
    reduce_cmd.add_argument("--check", action="store_true",
                            help="also run the brute-force SAT/max oracles "
                                 "and require agreement")
    reduce_cmd.add_argument("--out", default=None)
    reduce_cmd.set_defaults(func=cmd_reduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
