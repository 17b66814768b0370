"""Seeded input generation.  Nothing here imports pivotforge: the program
under test receives only what these functions produce.

Every generator takes a ``random.Random`` (or a workload seed) and is a
pure function of it, so the same seed yields byte-identical inputs.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

# ---------------------------------------------------------------- walk --

#: The ``--rule random`` op draws its rule seed from ``range(WALK_RULE_SEEDS)``;
#: ``expected.json`` holds the output hash of each of them.
WALK_RULE_SEEDS = 32


def walk_ops(seed: int) -> list:
    """The ``pivotforge run`` mix for a workload seed."""
    return walk_mix(random.Random(seed).randrange(WALK_RULE_SEEDS))


def walk_mix(rule_seed: int) -> list:
    """The ``pivotforge run`` mix: ``(key, argv, n)`` per op.

    ``key`` names the output's recorded sha256; ``argv`` lacks ``--out``.
    """
    return [
        ("run --n 14", ["run", "--n", "14"], 14),
        (f"run --n 13 --rule random --seed {rule_seed}",
         ["run", "--n", "13", "--rule", "random", "--seed", str(rule_seed)], 13),
        ("run --n 14 --format csv", ["run", "--n", "14", "--format", "csv"], 14),
        ("run --n 10 --pad-to 16", ["run", "--n", "10", "--pad-to", "16"], 10),
    ]


# ----------------------------------------------------------------- CNF --

CNF_VARS = 18
SAT_CLAUSES = 60
UNSAT_RANDOM_CLAUSES = 64
#: every formula's penalty polynomial has CNF_TERMS +- CNF_TERM_SLACK terms,
#: so that ``brute_force_max`` (about 95 % of a ``reduce --check``, linear
#: in the term count) costs nearly the same on every seed
CNF_TERMS = 134
CNF_TERM_SLACK = 2


def penalty_term_count(clauses: list) -> int:
    """Number of nonzero monomials of ``-sum_clauses prod(violation)``,
    computed independently of pivotforge (monomials as variable bitmasks)."""
    total: dict = {}
    for clause in clauses:
        product = {0: 1}
        for lit in clause:
            bit = 1 << (abs(lit) - 1)
            # negated literal: factor x; positive literal: factor (1 - x)
            factor = {bit: 1} if lit < 0 else {0: 1, bit: -1}
            nxt: dict = {}
            for m1, c1 in product.items():
                for m2, c2 in factor.items():
                    nxt[m1 | m2] = nxt.get(m1 | m2, 0) + c1 * c2
            product = nxt
        for mask, coeff in product.items():
            total[mask] = total.get(mask, 0) - coeff
    return sum(1 for c in total.values() if c)


def _random_clause(rng: random.Random, n_vars: int) -> list:
    return [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n_vars + 1), 3)]


def _satisfies(assignment: list, clause: list) -> bool:
    return any((lit > 0) == bool(assignment[abs(lit) - 1]) for lit in clause)


def planted_sat_clauses(rng: random.Random, n_vars: int, n_clauses: int):
    """Random 3-clauses all satisfied by a planted assignment, which is
    returned with them."""
    planted = [rng.randint(0, 1) for _ in range(n_vars)]
    clauses = []
    while len(clauses) < n_clauses:
        clause = _random_clause(rng, n_vars)
        if _satisfies(planted, clause):
            clauses.append(clause)
    return clauses, planted


def unsat_core_clauses(rng: random.Random, n_vars: int, n_random: int):
    """Random 3-clauses with all eight sign patterns on three variables
    shuffled in: that core alone is unsatisfiable.  Returns the clauses
    and the core's variables."""
    clauses = [_random_clause(rng, n_vars) for _ in range(n_random)]
    core = sorted(rng.sample(range(1, n_vars + 1), 3))
    for pattern in range(8):
        clause = [v if pattern >> i & 1 else -v for i, v in enumerate(core)]
        clauses.insert(rng.randrange(len(clauses) + 1), clause)
    return clauses, core


def dimacs_clauses(text: str) -> list:
    """Clauses of DIMACS text written by :func:`dimacs` (one per line)."""
    return [[int(t) for t in line.split()[:-1]]
            for line in text.splitlines() if line and line[0] not in "cp"]


def dimacs(n_vars: int, clauses: list, comment: str) -> str:
    lines = [f"c {comment}", f"p cnf {n_vars} {len(clauses)}"]
    lines += [" ".join(map(str, clause)) + " 0" for clause in clauses]
    return "\n".join(lines) + "\n"


def cnf_file(rng: random.Random, satisfiable: bool, n_vars: int = CNF_VARS,
             n_terms: int = CNF_TERMS) -> str:
    """DIMACS text of a planted-SAT or embedded-core-UNSAT formula whose
    penalty polynomial has ``n_terms +- CNF_TERM_SLACK`` terms (rejection
    sampling; ``n_terms=None`` accepts any)."""
    while True:
        if satisfiable:
            clauses, planted = planted_sat_clauses(rng, n_vars, SAT_CLAUSES)
            note = "planted " + "".join(map(str, planted))
        else:
            clauses, core = unsat_core_clauses(rng, n_vars, UNSAT_RANDOM_CLAUSES)
            note = "unsat core on " + " ".join(map(str, core))
        if n_terms is None or abs(penalty_term_count(clauses) - n_terms) <= CNF_TERM_SLACK:
            return dimacs(n_vars, clauses, note)


#: ``reduce --check`` files per seed: this many SAT and as many UNSAT
CNF_PAIRS = 2


def certify_cnf_files(seed: int) -> list:
    """``[(satisfiable, dimacs_text)]``, SAT and UNSAT alternating."""
    rng = random.Random(f"certify-cnf-{seed}")
    return [(sat, cnf_file(rng, sat)) for _ in range(CNF_PAIRS) for sat in (True, False)]


# ---------------------------------------------------------- linesearch --

LS_COORDS = 4
#: every box bound is a multiple of 1/LS_DEN
LS_DEN = 7
LS_WIDTH = 4


def _primes(lo: int, hi: int) -> list:
    return [p for p in range(max(lo, 2), hi) if all(p % d for d in range(2, int(p ** 0.5) + 1))]


#: Root ``lower + m / (LS_DEN * q)`` with prime ``q`` and ``m`` from disjoint
#: narrow bands: the line search factors integers of nearly the same size
#: on every op, so its cost is set by the band, not by the seed.
ROOT_DENOMINATORS = _primes(100, 125)
ROOT_NUMERATORS = _primes(131, 170)
IRRATIONAL_SQUARES = _primes(2000, 2400)

#: ops per cycle, and how many of them end ``not_representable``
LS_CYCLE = 8
LS_IRRATIONAL_PER_CYCLE = 2
LS_POOL_CYCLES = 8
LS_RULES = ("lowest-index", "highest-index", "steepest", "random")


def _coordinate(rng: random.Random, irrational: bool) -> dict:
    a = rng.choice([k for k in range(1, 3 * LS_DEN) if k % LS_DEN])
    lower = Fraction(a, LS_DEN)
    upper = lower + LS_WIDTH
    qs = rng.sample(ROOT_DENOMINATORS, 3)
    ms = rng.sample(ROOT_NUMERATORS, 3)
    roots = sorted(lower + Fraction(m, LS_DEN * q) for m, q in zip(ms, qs))
    coord = {"lower": lower, "upper": upper}
    if irrational:
        # g(t) = ((scale*(t - lower))^2 - square) * (t - root): positive at
        # ``lower``, first zero lower + sqrt(square)/scale < root (irrational)
        scale = LS_DEN * qs[0]
        coord.update(kind="irrational", scale=scale, square=rng.choice(IRRATIONAL_SQUARES),
                     root=roots[2])
    else:
        # g(t) = -(t - r1)(t - r2)(t - r3): positive below r1, so the walk
        # from ``lower`` stops exactly at r1
        coord.update(kind="rational", roots=roots)
    return coord


def linesearch_op(rng: random.Random, irrational: bool) -> dict:
    """One separable objective on a box: the derivative of coordinate i is
    the cubic ``g_i`` described in ``_coordinate``.  An irrational op has
    exactly one irrational coordinate, at ``bad``."""
    bad = rng.randrange(LS_COORDS) if irrational else None
    return {
        "coords": [_coordinate(rng, i == bad) for i in range(LS_COORDS)],
        "bad": bad,
        "rule": rng.choice(LS_RULES),
        "rule_seed": rng.randrange(2 ** 20),
    }


def linesearch_pool(seed: int) -> list:
    """``LS_POOL_CYCLES`` cycles of ``LS_CYCLE`` ops; in each cycle exactly
    ``LS_IRRATIONAL_PER_CYCLE`` ops, at seeded positions, are irrational."""
    rng = random.Random(f"linesearch-{seed}")
    pool = []
    for _ in range(LS_POOL_CYCLES):
        bad = set(rng.sample(range(LS_CYCLE), LS_IRRATIONAL_PER_CYCLE))
        pool.append([linesearch_op(rng, i in bad) for i in range(LS_CYCLE)])
    return pool


def derivative_coeffs(coord: dict) -> list:
    """Coefficients (ascending powers) of the coordinate's derivative."""
    if coord["kind"] == "rational":
        factors = [[-r, 1] for r in coord["roots"]]
        sign = -1
    else:
        s, lo = coord["scale"], coord["lower"]
        # (s*(t - lo))^2 - square = s^2 t^2 - 2 s^2 lo t + s^2 lo^2 - square
        factors = [[s * s * lo * lo - coord["square"], -2 * s * s * lo, s * s],
                   [-coord["root"], 1]]
        sign = 1
    coeffs = [Fraction(sign)]
    for factor in factors:
        out = [Fraction(0)] * (len(coeffs) + len(factor) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        coeffs = out
    return coeffs


def derivative_at(coord: dict, t: Fraction) -> Fraction:
    """The coordinate's derivative at ``t`` from its product form -- an
    evaluation independent of the coefficient expansion pivotforge sees."""
    if coord["kind"] == "rational":
        r1, r2, r3 = coord["roots"]
        return -(t - r1) * (t - r2) * (t - r3)
    s, lo = coord["scale"], coord["lower"]
    return ((s * (t - lo)) ** 2 - coord["square"]) * (t - coord["root"])


def serialize(obj) -> str:
    """Canonical text of generated inputs (Fractions as ``"p/q"``)."""
    def default(value):
        if isinstance(value, Fraction):
            return f"{value.numerator}/{value.denominator}"
        raise TypeError(type(value).__name__)
    return json.dumps(obj, default=default, sort_keys=True)
