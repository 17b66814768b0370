"""Batch command-line interface.

Four subcommands: ``run`` executes the active-set method on the
lower-bound objective and writes the trajectory; ``verify`` runs one
named certification check and exits 0/1 with a machine-readable witness
on failure; ``export`` writes polynomial/orientation/path artifacts;
``reduce`` converts a DIMACS CNF file into its clause-penalty polynomial.

All numeric output is exact ``"p/q"`` strings; ``--approx`` adds clearly
marked lossy decimal fields.  Identical commands (and seeds) produce
byte-identical output files.  Exit codes: 0 pass, 1 property violation
(with a witness) or a walk that stopped early (with an ``error:`` line), 2
usage or parse errors.

Dimension caps guard the exponential work, each set where a measured
command still finishes in bounded time and memory (``CAP_HELP`` lists
them): engine runs and vertex scans n <= 20 (``run``, ``verify path``,
``verify uso`` and the other vertex checks, and all three exports,
``export polynomial`` included, which writes each term as it is
generated), SAT enumeration <= 24 variables.
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
from array import array
from fractions import Fraction
from itertools import chain, pairwise, product, starmap, zip_longest
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
    write_spliced,
    write_walk_json,
)
from .errors import DimacsParseError, PivotforgeError, TooLargeError
from .objectives import (
    LinearObjective,
    LowerBoundPolynomial,
    PaddedObjective,
    lower_bound_terms,
)
from .polynomials import term_json
from .satreduce import (
    ENUMERATION_LIMIT,
    CnfFormula,
    Literal,
    brute_force_max,
    brute_force_sat,
    parse_dimacs,
    vertex_field_tiles,
    violated_clause_count,
    violation_counts,
    violation_polynomial,
)
from .scalars import format_rational
from .structure import (
    LowerBoundTiles,
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
from .tiles import _repeat, _tile_bits, _unpack, argmax

# Set from measurements (2-vCPU VM, Python 3.11; the README has the table):
# at n = 20, run takes 30 s, export polynomial 7 s, verify uso and export
# orientation 6-8 s, each within 8 MB of run's 18 MB peak.
DEFAULT_CAPS = {"run": 20, "sat": ENUMERATION_LIMIT}

CAP_HELP = (
    f"dimension caps: engine runs, vertex scans and exports, 'verify uso' and "
    f"'export polynomial' included, n <= {DEFAULT_CAPS['run']};\n"
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


def _entries(texts):
    """Each of ``texts`` led by its JSON separator: ``"\\n"``, then ``",\\n"``."""
    for i, text in enumerate(texts):
        yield (",\n" if i else "\n") + text


def _print_witness(check: str, witness: dict) -> None:
    print(json.dumps({"check": check, "result": "fail", "witness": witness},
                     indent=2, sort_keys=True))


# ---------------------------------------------------------------- run --


def cmd_run(args) -> int:
    n = args.n
    _check_cap(n, "run", "engine-run")
    ambient = args.pad_to if args.pad_to is not None else n
    if ambient < n:
        raise _usage_error("--pad-to must be at least --n")
    if args.max_iter is not None and args.max_iter < 0:
        raise _usage_error(f"--max-iter must be at least 0, got {args.max_iter}")
    _check_cap(ambient, "run", "engine-run")
    inner = LowerBoundPolynomial(n)
    objective = PaddedObjective(inner, ambient) if ambient > n else inner
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
    if walk.outcome == OUTCOME_CRITICAL_POINT:
        return 0
    print(f"error: walk stopped after {walk.iterations} passes: {walk.stop_reason}",
          file=sys.stderr)
    return 1


# ------------------------------------------------------------- verify --
#
# Each check certifies one property and is the only implementation of it:
# ``verify`` and the acceptance tests both call these functions.  A check
# returns ``(True, None)`` on pass and ``(False, witness)`` on a violation.


def check_uniqueness(n: int):
    oracle = LowerBoundPolynomial(n)
    optimum = tuple(1 if i == n - 1 else 0 for i in range(n))
    # product varies its last entry fastest, so each tuple reversed is the
    # bits of the next id: vertices in id order
    for vid, reversed_bits in enumerate(product((0, 1), repeat=n)):
        bits = reversed_bits[::-1]
        k = improving_dimension(bits, oracle)  # raises on any disagreement
        if (k is None) != (bits == optimum):
            return False, {"vertex_id": vid, "bits": list(bits), "dimension": k}
    return True, None


def check_gradient(n: int):
    oracle = LowerBoundPolynomial(n)
    for vid in range(1 << n):
        bits = bits_from_id(vid, n)
        # the gradient the engine runs: the closed form of every partial in one sweep
        for k, closed in enumerate(oracle.gradient(bits), start=1):
            forward = oracle.partial(bits, k)
            if closed != forward:
                return False, {
                    "vertex_id": vid, "k": k,
                    "closed_form": format_rational(closed),
                    "forward_mode": format_rational(forward),
                }
    return True, None


def check_path(n: int):
    size = 1 << n
    # the walk's ids in 8 bytes each; lists are built only for a witness
    ids = array("Q", hamiltonian_path(n))
    visited = bytearray(size)
    for v in ids:
        visited[v] = 1
    if len(ids) != size or visited.count(0) or ids[-1] != 1 << (n - 1):
        return False, {"reason": "not a Hamiltonian path to the optimum",
                       "path": ids.tolist()}
    for a, b in pairwise(ids):
        if (a ^ b).bit_count() != 1:
            return False, {"reason": "non-adjacent step", "from": a, "to": b}
    if any(v != i ^ (i >> 1) for i, v in enumerate(ids)):
        return False, {"reason": "differs from the reflected Gray code",
                       "path": ids.tolist(), "gray": reflected_gray_ids(n)}
    if n >= 2:  # half-reflection: second half = reversed first half + top bit
        half = size >> 1
        if any(ids[half + j] != ids[half - 1 - j] | half for j in range(half)):
            return False, {"reason": "half-reflection law violated", "path": ids.tolist()}
    program = BoxProgram.unit_cube(n)
    start = (0,) * n

    def engine_ids():  # the walk's vertex ids, one pass at a time
        yield program.vertex_id_or_none(start)
        for record in active_set_steps(program, LowerBoundPolynomial(n), start,
                                       make_rule("lowest-index")):
            yield program.vertex_id_or_none(record.x_after)

    missing = object()
    if any(a != b for a, b in zip_longest(engine_ids(), ids, fillvalue=missing)):
        return False, {"reason": "engine trajectory differs from the path",
                       "engine": list(engine_ids()), "path": ids.tolist()}
    return True, None


def check_constancy(n: int):
    # F_n has degree <= 2 in x_k, so its k-th partial is affine along the
    # k-edge: equal at the edge's two vertices means constant on the edge
    oracle = LowerBoundPolynomial(n)
    for vid in range(1 << n):
        bits = bits_from_id(vid, n)
        k = improving_dimension(bits, oracle)
        if k is None:
            continue
        near = oracle.partial(bits, k)
        if oracle.partial(bits_from_id(vid ^ (1 << (k - 1)), n), k) != near:
            return False, {"vertex_id": vid, "k": k, "mu": "1/1"}  # the far end
        sign = 1 - 2 * bits[k - 1]
        g = oracle.edge_restriction(bits, AxisDirection(k, sign), sign * near)
        if g.degree > 0:
            return False, {"vertex_id": vid, "k": k,
                           "restriction_degree": g.degree}
    return True, None


def _random_linear_objective(rng: random.Random, n: int) -> LinearObjective:
    """Random rational coefficients ``a/b`` (``|a| <= 60``, ``1 <= b <= 9``),
    plus the tie-break ``2^(i-1) / (2520 · 2^n)`` on coordinate i, so that
    all 2^n vertex values are distinct without a redraw.

    Every ``b`` divides 2520 = lcm(1..9), so two vertices whose drawn sums
    differ do so by at least 1/2520.  Their tie-breaks are distinct (the
    numerators are the vertex ids over the same denominator) and differ
    by less than 1/2520, so they separate equal sums and cannot close a
    gap between unequal ones.

    Each coefficient is built as the one fraction
    ``(a · (D / b) + 2^(i-1)) / D`` over ``D = 2520 · 2^n``, which ``b``
    divides: the same two draws in the same order, and the same value as
    ``Fraction(a, b) + Fraction(2^(i-1), D)``, with one normalisation.
    """
    den = 2520 << n
    coefficients = []
    for i in range(n):
        a = rng.randint(-60, 60)
        b = rng.randint(1, 9)
        coefficients.append(Fraction(a * (den // b) + (1 << i), den))
    return LinearObjective(coefficients)


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


def _lower_bound_orientation(n: int):
    """The orientation that F_n induces, from its 2^n vertex values read
    tile by tile off its table."""
    tiles = LowerBoundTiles(n).value_fields()
    values = next(tiles)
    for fields in tiles:
        values += fields
    return induce_orientation(n, values)


def check_uso(n: int):
    """The slice test certifies all three claims (the lemma is proved in
    :func:`combed_in_top_dimensions`).  Only an orientation that fails it
    has its faces scanned, to pick the witness and its reason."""
    orientation = _lower_bound_orientation(n)
    if combed_in_top_dimensions(orientation):
        return True, None
    ok, witness = is_uso(orientation)
    if not ok:
        return False, {"reason": "face without a unique sink", **witness}
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
    # the brute-force argmax, the lowest id of the largest value, from the value tiles
    _, top_vid = argmax(LowerBoundTiles(n).value_fields())
    optimum = 1 << (n - 1)
    if vid != top_vid or vid != optimum or queries > 2 * n:
        return False, {"found": vid, "argmax": top_vid, "optimum": optimum,
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
    ``-(violated clauses)`` on every vertex, the lowest violating vertex
    its witness.  At vertex id ``probe`` the bitmask vertex evaluator is
    also tied to full polynomial evaluation."""
    n = formula.n_vars
    poly = violation_polynomial(formula)
    if poly.total_degree > 3:
        return False, {"reason": "degree > 3", "degree": poly.total_degree}
    satisfiable, assignment = brute_force_sat(formula)  # checks the enumeration cap
    # one pass over the value tiles and the count tiles, in lockstep, serves the
    # maximum, the probe and the law fields[v] + scale * counts[v] == offset: in
    # fields wide enough for every such sum, one big-integer test per tile, the
    # lowest set bit of the XOR naming the lowest lawless field
    tiles, offset, scale, nbytes = vertex_field_tiles(poly, n, len(formula.clauses))
    b, width = _tile_bits(n), 8 * nbytes
    offsets = _repeat(offset, width, width << b)
    top, wrong, start = -1, None, 0
    for fields, counts in zip(tiles, violation_counts(formula, nbytes)):
        top = max(top, max(_unpack(fields, nbytes, b)))
        lawless = (fields + scale * counts) ^ offsets
        if wrong is None and lawless:
            wrong = start + ((lawless & -lawless).bit_length() - 1) // width
        if start <= probe < start + (1 << b):
            probe_field = fields >> ((probe - start) * width) & ((1 << width) - 1)
        start += 1 << b
    best = Fraction(top - offset, scale)
    if (best == 0) != satisfiable:
        return False, {"reason": "max/sat mismatch",
                       "max": format_rational(best), "sat": satisfiable}
    if satisfiable and violated_clause_count(formula, assignment) != 0:
        return False, {"reason": "satisfying assignment violates a clause",
                       "vertex": list(assignment)}
    if wrong is not None:
        return False, {"reason": "per-vertex law violated",
                       "vertex": list(bits_from_id(wrong, n))}
    bits = bits_from_id(probe, n)
    if Fraction(probe_field - offset, scale) != poly.eval(bits):
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
        check_uso, "run", 8),
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


def _decimal_key_order(size: int):
    """Yield ``0 .. size - 1`` in the order of their decimal strings, the
    order in which ``sort_keys`` writes the keys ``str(vid)``: a preorder
    walk of the digit trie, holding one number."""
    if size:
        yield 0  # "0" sorts before every other key
    vid = 1
    for _ in range(size - 1):
        yield vid
        if vid * 10 < size:
            vid *= 10  # first child: append a 0 digit
        else:
            while vid % 10 == 9 or vid + 1 >= size:  # no next sibling: climb
                vid //= 10
            vid += 1


def cmd_export(args) -> int:
    n = args.n
    if args.what == "polynomial":
        _check_cap(n, "run", "polynomial")
        out = args.out or f"polynomial_n{n}.json"
        terms = lower_bound_terms(n)
        first = next(terms)  # graded-lex order: the first term has the largest degree
        doc = {"nvars": n, "terms": [], "total_degree": sum(first[0])}
        with _writing(out) as handle:  # one term at a time, as the closed form yields it
            count = write_spliced(handle, doc, "terms",
                                  _entries(starmap(term_json, chain([first], terms))))
        print(f"degree={doc['total_degree']} terms={count} file={out}")
    elif args.what == "orientation":
        _check_cap(n, "run", "orientation")
        masks = _lower_bound_orientation(n).outgoing_masks()
        out = args.out or f"orientation_n{n}.json"
        coords = [(1 << (k - 1), f"\n      {k}") for k in range(1, n + 1)]

        def outgoing():  # one vertex at a time, in sort_keys order
            for vid in _decimal_key_order(1 << n):
                listed = ",".join(text for bit, text in coords if masks[vid] & bit)
                yield f'    "{vid}": [{listed}\n    ]' if listed else f'    "{vid}": []'

        with _writing(out) as handle:
            write_spliced(handle, {"n": n, "outgoing": {}}, "outgoing", _entries(outgoing()))
        print(f"n={n} edges={n * (1 << (n - 1))} file={out}")
    else:
        _check_cap(n, "run", "path")
        out = args.out or f"path_n{n}.json"
        with _writing(out) as handle:  # one id at a time, as the walk yields it
            length = write_spliced(handle, {"n": n, "path": []}, "path",
                                   _entries(f"    {vid}" for vid in hamiltonian_path(n)))
        print(f"n={n} length={length} file={out}")
    return 0


# ------------------------------------------------------------- reduce --


def cmd_reduce(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
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
    doc = {"nvars": poly.nvars, "terms": [], "total_degree": poly.total_degree}
    with _writing(out) as handle:
        write_spliced(handle, doc, "terms", _entries(starmap(term_json, poly.sorted_terms())))
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
