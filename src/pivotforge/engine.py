"""Active-set and simplex vertex walks over box programs.

Both methods run the same outer loop: while a feasible improving direction
exists, pick one by the pivot rule, drop an active row that blocks it,
move as far as the box (and, for the active-set method, the sign of the
directional derivative) allows, and record a new active row when the move
stops on the boundary.  One iteration is one pass of that loop; a pass may
both drop and add a row.

The engine asks the rule to pick only when it has two or more options.  A
single candidate direction, blocking row or entering row is taken without
a call, so a walk that offers one option at every pass is the walk of
every rule.  On a box the blocking row is always single: ``+e_k`` meets
only the lower-bound row ``k + n`` with a negative inner product, and
``-e_k`` only the upper-bound row ``k``.  The other row of coordinate k is
not tight where ``+-e_k`` is feasible, so once the blocking row is dropped
no active row meets the direction, and every pass moves unless its line
search ends the walk with an error.

Directions are signed unit axis directions.  On a box the feasible cone at
any point is a product of per-coordinate half-lines or lines, so a feasible
improving direction exists iff a feasible improving *axis* direction
exists, and axis directions always attain the maximum number of orthogonal
active rows.  The candidate set is therefore finite and the stopping
criterion ("no candidates") is exactly first-order criticality.

The line-search step is exact:

    mu = min( largest feasible step,
              first t >= 0 where the edge restriction g(t) <= 0 )

with ``g`` the exact univariate polynomial ``grad f(x + t d)^T d``.  Its
value at 0 is the chosen candidate's slope, which the pass has from its
one gradient call, so the oracle's ``edge_restriction`` is handed that
slope rather than deriving it again.  An irrational objective-side
stopping point aborts the run with an error outcome instead of rounding.

Every pass is recorded.  :func:`active_set_steps` yields the records one
at a time and returns the stop reason, so a consumer that keeps none of
them (``run`` and ``verify path``) walks all ``2^n`` vertices in memory
independent of the pass count; a :class:`Walk` counts them and keeps the
last, and :func:`active_set_run` collects them into a :class:`Trajectory`,
the audit trail the library API and the equivalence check work on.  A
walk's outcome is derived from its stop reason.  The trajectory JSON has
one writer, :func:`write_walk_json`, which spools the record text a batch
of ``SPOOL_BATCH`` records at a time, one write per batch, holding no more
than one batch, and splices it in with :func:`write_spliced`, which lays
out every JSON file; ``Trajectory.to_json_dict`` is the independent
reference form it reproduces byte for byte, and an in-memory trajectory
serializes as ``json.dumps`` of that form.
"""

from __future__ import annotations

import json
import random
from abc import ABC, abstractmethod
from bisect import insort
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Collection, NamedTuple, Optional, Sequence

from .boxes import AxisDirection, BoxProgram, Point, as_point
from .errors import (
    DegenerateVertexError,
    DimensionMismatchError,
    InfeasiblePointError,
    NotAVertexError,
    NotRepresentableError,
)
from .objectives import LinearObjective
from .polynomials import first_nonpositive
from .scalars import Rational, format_rational

OUTCOME_CRITICAL_POINT = "critical_point"
OUTCOME_ERROR = "error"

STOP_CRITICAL_POINT = "critical_point"
STOP_MAX_ITER = "max_iter_exceeded"
STOP_NOT_REPRESENTABLE = "not_representable"


class Candidate(NamedTuple):
    """A feasible improving axis direction, annotated with its directional
    derivative and the number of active rows orthogonal to it."""

    direction: AxisDirection
    slope: Rational
    overlap: int


class PivotRule(ABC):
    """Tie-breaking policy for the direction and the added row.

    Implementations must select from the offered options and be
    deterministic given their own internal state.  The engine calls a
    method only when it has two or more options to offer; a single option
    is taken without asking.  On a box the dropped row is always single,
    so no method chooses it.
    """

    name = "abstract"

    @abstractmethod
    def choose_direction(self, candidates: Sequence[Candidate]) -> Candidate: ...

    @abstractmethod
    def choose_addition(self, rows: Sequence[int]) -> int: ...


class LowestIndexRule(PivotRule):
    name = "lowest-index"

    def choose_direction(self, candidates):
        return min(candidates, key=lambda c: c.direction.coord)

    def choose_addition(self, rows):
        return min(rows)


class HighestIndexRule(PivotRule):
    name = "highest-index"

    def choose_direction(self, candidates):
        return max(candidates, key=lambda c: c.direction.coord)

    def choose_addition(self, rows):
        return max(rows)


class SteepestRule(PivotRule):
    """Largest directional derivative, lowest coordinate on ties."""

    name = "steepest"

    def choose_direction(self, candidates):
        return max(candidates, key=lambda c: (c.slope, -c.direction.coord))

    def choose_addition(self, rows):
        return min(rows)


class SeededRandomRule(PivotRule):
    """Reproducible random choices from an explicit seed."""

    name = "random"

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)

    def _pick(self, options):
        return options[self._rng.randrange(len(options))]

    def choose_direction(self, candidates):
        return self._pick(candidates)

    def choose_addition(self, rows):
        return self._pick(rows)


#: name -> factory of a fresh, deterministic rule instance from a seed
_RULE_FACTORIES = {
    "lowest-index": lambda seed: LowestIndexRule(),
    "highest-index": lambda seed: HighestIndexRule(),
    "steepest": lambda seed: SteepestRule(),
    "random": SeededRandomRule,
}
RULE_NAMES = tuple(_RULE_FACTORIES)


def make_rule(name: str, seed: int = 0) -> PivotRule:
    """Fresh pivot-rule instance by name (seed only matters for "random")."""
    if name not in _RULE_FACTORIES:
        raise ValueError(f"unknown rule {name!r}; expected one of {RULE_NAMES}")
    return _RULE_FACTORIES[name](seed)


def _outcome(stop_reason: Optional[str]) -> Optional[str]:
    """The outcome a stop reason means: ``critical_point`` or ``error``,
    and None for a walk that has not ended."""
    if stop_reason is None:
        return None
    return OUTCOME_CRITICAL_POINT if stop_reason == STOP_CRITICAL_POINT else OUTCOME_ERROR


@dataclass(slots=True)
class IterationRecord:
    """One while-loop pass: what was chosen, dropped, added, and where the
    iterate moved.  ``x_after == x_before``, with ``step`` None, only on
    an error stop, where the line search met an irrational stopping point;
    ``value_after`` is the objective value at ``x_after``;
    ``stop_reason`` is set on the final record only."""

    index: int
    x_before: Point
    active_before: tuple
    direction: Optional[AxisDirection]
    removed_row: Optional[int]
    step: Optional[Rational]
    x_after: Point
    added_row: Optional[int]
    num_candidates: int
    stop_reason: Optional[str] = None
    value_after: Optional[Rational] = None


@dataclass
class Trajectory:
    """Ordered record of a run; one record per while-loop pass."""

    program: BoxProgram
    start: Point
    records: list
    stop_reason: str

    @property
    def outcome(self) -> str:
        return _outcome(self.stop_reason)

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def final_point(self) -> Point:
        return self.records[-1].x_after if self.records else self.start

    def points(self) -> list:
        """The sequence of iterates: start point, then each pass's result."""
        return [self.start] + [r.x_after for r in self.records]

    def to_json_dict(self, objective, rule_name: Optional[str] = None,
                     approx: bool = False) -> dict:
        """Deterministic JSON form; all numbers are exact ``"p/q"`` strings
        (an optional lossy float column is added only on request)."""

        def point_json(p):
            return [format_rational(c) for c in p]

        def vid(p):
            return self.program.vertex_id(p) if self.program.is_vertex(p) else None

        records = []
        for r in self.records:
            value_after = objective.value(r.x_after)
            rec = {
                "iteration": r.index,
                "point": point_json(r.x_before),
                "vertex_id": vid(r.x_before),
                "active_rows": list(r.active_before),
                "num_candidates": r.num_candidates,
                "direction": (
                    {"coord": r.direction.coord, "sign": r.direction.sign}
                    if r.direction is not None
                    else None
                ),
                "removed_row": r.removed_row,
                "step": format_rational(r.step) if r.step is not None else None,
                "added_row": r.added_row,
                "point_after": point_json(r.x_after),
                "vertex_id_after": vid(r.x_after),
                "objective_value": format_rational(value_after),
                "stop_reason": r.stop_reason,
            }
            if approx:
                rec["objective_value_approx_lossy"] = float(value_after)
            records.append(rec)
        final_value = objective.value(self.final_point)
        out = {
            "n": self.program.n,
            "rule": rule_name,
            "outcome": self.outcome,
            "stop_reason": self.stop_reason,
            "iterations": self.iterations,
            "start": {"point": point_json(self.start), "vertex_id": vid(self.start)},
            "final": {
                "point": point_json(self.final_point),
                "vertex_id": vid(self.final_point),
                "objective_value": format_rational(final_value),
            },
            "records": records,
        }
        if approx:
            out["final"]["objective_value_approx_lossy"] = float(final_value)
        return out


class Walk:
    """One pass over a record generator such as :func:`active_set_steps`.

    Iterating yields the generator's records.  Meanwhile the walk counts
    them and keeps the last, and takes the generator's return value as its
    ``stop_reason``.  So once the generator has returned, ``iterations``,
    ``final_point``, ``stop_reason`` and the ``outcome`` derived from it
    say what the :class:`Trajectory` of the same records would say,
    without holding the records.  Before that, ``stop_reason`` and
    ``outcome`` are None.
    """

    def __init__(self, program: BoxProgram, start: Point, steps):
        self.program = program
        self.start = start
        self._steps = steps
        self.iterations = 0
        self.last: Optional[IterationRecord] = None
        self.stop_reason: Optional[str] = None

    def __iter__(self):
        steps = self._steps
        while True:
            try:
                record = next(steps)
            except StopIteration as done:
                self.stop_reason = done.value
                return
            self.iterations += 1
            self.last = record
            yield record

    @property
    def outcome(self) -> Optional[str]:
        return _outcome(self.stop_reason)

    @property
    def final_point(self) -> Point:
        return self.start if self.last is None else self.last.x_after

    def final_value(self, objective) -> Rational:
        """The value at the final point: the last record's ``value_after``,
        or ``objective.value(start)`` when there was no pass."""
        return objective.value(self.start) if self.last is None else self.last.value_after

    def summary_row(self, objective, rule_name: str, approx: bool = False) -> dict:
        """One CSV row: n, rule, iterations, final_vertex_id, final_value."""
        value = self.final_value(objective)
        final_id = self.program.vertex_id_or_none(self.final_point)
        row = {
            "n": self.program.n,
            "rule": rule_name,
            "iterations": self.iterations,
            "final_vertex_id": "" if final_id is None else final_id,
            "final_value": format_rational(value),
        }
        if approx:
            row["final_value_approx_lossy"] = float(value)
        return row


#: characters copied from the spool per read; ``run`` also gives its spool
#: file a write buffer of this many bytes, so the walk writes it in as few
#: system calls as it copies it back
SPOOL_CHUNK = 1 << 16

#: records per spool write: :func:`write_walk_json` holds the text of one
#: batch and writes it in one call; at n = 14 a record is about 1 KB
SPOOL_BATCH = 32


def _item(c: Rational) -> str:
    """A point's coordinate ``c`` in a record: its line, eight spaces in."""
    return '\n        "' + format_rational(c) + '"'


def _point_json(items: list) -> str:
    """A point in a record, from its coordinates' ``_item`` lines."""
    return "[" + ",".join(items) + "\n      ]"


def _record_texts(walk: Walk, approx: bool):
    """The text of each record that ``walk`` yields, as
    :func:`write_walk_json` spools it: a line break (after a comma, for
    every record but the first), then the record's object.

    Each iterate is formatted and identified once: a record whose
    ``x_before`` equals the previous ``x_after`` reuses its text.  The text
    is kept per coordinate, so when ``x_after`` differs from ``x_before`` at
    most in the direction's coordinate, as it does after every pass of the
    engine, only that coordinate's line changes, and the vertex id changes
    by one bit.  The texts of rows ``1 .. 2n``, of each unit direction,
    keyed by ``sign * coord``, and of each bound are built once per call.
    """
    program = walk.program
    n = program.n
    vertex_id = program.vertex_id_or_none
    lower, upper = program.lower, program.upper
    lower_items = [_item(c) for c in lower]
    upper_items = [_item(c) for c in upper]
    row_json = {None: "null"}  # an added or removed row
    row_items = {}  # an active row, on its own line
    for row in range(1, 2 * n + 1):
        row_json[row] = str(row)
        row_items[row] = "\n        " + str(row)
    row_item = row_items.__getitem__
    direction_json = {sign * k: ('{\n        "coord": ' + str(k) + ',\n        "sign": '
                                 + str(sign) + "\n      }")
                      for k in range(1, n + 1) for sign in (1, -1)}
    x_prev = None  # the iterate whose text is kept; none before the first record
    separator = "\n"
    for r in walk:
        rows = r.active_before
        rows_json = "[" + ",".join(map(row_item, rows)) + "\n      ]" if rows else "[]"
        x_before = r.x_before
        if x_before != x_prev:
            items_prev = [_item(c) for c in x_before]
            point_prev = _point_json(items_prev)
            id_prev = vertex_id(x_before)
        x_after = r.x_after
        d = r.direction
        k = None if d is None else d.coord - 1
        if k is not None and x_after[:k] == x_before[:k] and x_after[k + 1:] == x_before[k + 1:]:
            xk = x_after[k]
            items_after = items_prev.copy()
            if xk == upper[k]:
                items_after[k] = upper_items[k]
                id_after = vertex_id(x_after) if id_prev is None else id_prev | 1 << k
            elif xk == lower[k]:
                items_after[k] = lower_items[k]
                id_after = vertex_id(x_after) if id_prev is None else id_prev & ~(1 << k)
            else:
                items_after[k] = _item(xk)
                id_after = None
        else:
            items_after = [_item(c) for c in x_after]
            id_after = vertex_id(x_after)
        point_after = _point_json(items_after)
        direction = "null" if d is None else direction_json[d.sign * d.coord]
        value_after = r.value_after
        lossy = (f'      "objective_value_approx_lossy": {json.dumps(float(value_after))},\n'
                 if approx else "")
        step = "null" if r.step is None else '"' + format_rational(r.step) + '"'
        stop = "null" if r.stop_reason is None else json.dumps(r.stop_reason)
        yield (
            f"{separator}    {{\n"
            f'      "active_rows": {rows_json},\n'
            f'      "added_row": {row_json[r.added_row]},\n'
            f'      "direction": {direction},\n'
            f'      "iteration": {r.index},\n'
            f'      "num_candidates": {r.num_candidates},\n'
            f'      "objective_value": "{format_rational(value_after)}",\n'
            f"{lossy}"
            f'      "point": {point_prev},\n'
            f'      "point_after": {point_after},\n'
            f'      "removed_row": {row_json[r.removed_row]},\n'
            f'      "step": {step},\n'
            f'      "stop_reason": {stop},\n'
            f'      "vertex_id": {"null" if id_prev is None else id_prev},\n'
            f'      "vertex_id_after": {"null" if id_after is None else id_after}\n'
            "    }"
        )
        separator = ",\n"
        x_prev, items_prev, point_prev, id_prev = x_after, items_after, point_after, id_after


def write_walk_json(handle, spool, walk: Walk, objective,
                    rule_name: Optional[str] = None, approx: bool = False) -> None:
    """Walk ``walk`` to its end and write its trajectory JSON to the open
    text ``handle``: the bytes of ``json.dumps(to_json_dict(objective,
    rule_name, approx), indent=2, sort_keys=True) + "\\n"`` for the
    :class:`Trajectory` of the same records.

    With sorted keys, ``final``, ``iterations`` and ``outcome`` precede
    ``records`` but are known only once the walk has ended.  So the record
    text goes to ``spool``, an open read/write text file, as the walk yields
    the records: the writer holds the text of at most ``SPOOL_BATCH``
    records and makes one ``spool.write`` per batch of them.  Then ``json``
    lays out the end-of-walk fields around an empty ``records`` list, and
    the spool is copied into it in chunks of ``SPOOL_CHUNK``.  No record is
    kept, so memory does not grow with the walk.  Values come from each
    record's ``value_after``; ``objective`` is called only when the walk
    has no record, for the value at its start.
    """
    texts = _record_texts(walk, approx)
    while batch := list(islice(texts, SPOOL_BATCH)):
        spool.write("".join(batch))
    vertex_id = walk.program.vertex_id_or_none
    final = walk.final_point
    final_value = walk.final_value(objective)
    end = {
        "final": {
            "objective_value": format_rational(final_value),
            "point": [format_rational(c) for c in final],
            "vertex_id": vertex_id(final),
        },
        "iterations": walk.iterations,
        "n": walk.program.n,
        "outcome": walk.outcome,
        "records": [],
        "rule": rule_name,
        "start": {"point": [format_rational(c) for c in walk.start],
                  "vertex_id": vertex_id(walk.start)},
        "stop_reason": walk.stop_reason,
    }
    if approx:
        end["final"]["objective_value_approx_lossy"] = float(final_value)
    spool.seek(0)
    write_spliced(handle, end, "records", iter(lambda: spool.read(SPOOL_CHUNK), ""))


def write_spliced(handle, doc: dict, key: str, pieces) -> int:
    """Write ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` to
    ``handle`` with ``pieces``, the text of the entries of the empty list or
    object ``doc[key]``, each led by its separator, spliced in; return their
    number.  The split string is anchored on the top-level indent, which no
    nested key, nor any string (json escapes its line breaks), can match."""
    head, split, tail = json.dumps(doc, indent=2, sort_keys=True).partition(
        f'\n  "{key}": {json.dumps(doc[key])}')
    handle.write(head + split[:-1])
    count = 0
    for count, piece in enumerate(pieces, start=1):
        handle.write(piece)
    handle.write(("\n  " if count else "") + split[-1] + tail + "\n")
    return count


def improving_candidates(program: BoxProgram, x: Point, active: Collection[int],
                         grad: Sequence[Rational]) -> list:
    """Feasible improving axis directions at ``x``, restricted to those
    orthogonal to the maximum number of rows in ``active``.

    Feasibility is with respect to every row tight at ``x``, including the
    tight rows that are not active (those :func:`active_set_steps` keeps
    as its entering options); on a box that is a per-coordinate bound
    check, made in the same loop that reads the gradient.  Only active
    rows count toward the overlap, and the loop keeps the candidates of
    the largest overlap it has met.  Empty exactly when ``x`` is a critical
    point.  Candidates come back sorted by coordinate, and their
    directions are the box's ``unit_directions``.  ``grad`` is the
    objective's gradient at ``x``.
    """
    n = program.n
    base = len(active)
    candidates = []
    best = -1  # the largest overlap so far; every overlap is at least 0
    for lo, xk, hi, gk, (up, down) in zip(program.lower, x, program.upper, grad,
                                          program.unit_directions):
        if not lo <= xk <= hi:
            raise InfeasiblePointError(f"point {x} violates a bound")
        sign = gk.numerator  # the sign of an int or a Fraction
        if sign > 0:
            if xk == hi:  # +e_k would leave the box
                continue
            k, d, slope = up.coord, up, gk
        elif sign < 0:
            if xk == lo:  # -e_k would leave the box
                continue
            k, d, slope = down.coord, down, -gk
        else:
            continue
        overlap = base - (k in active) - (k + n in active)
        if overlap > best:
            best, candidates = overlap, [Candidate(d, slope, overlap)]
        elif overlap == best:
            candidates.append(Candidate(d, slope, overlap))
    return candidates


def _check_dimensions(program: BoxProgram, objective) -> None:
    if objective.n != program.n:
        raise DimensionMismatchError(
            f"objective dimension {objective.n} != program dimension {program.n}"
        )


def active_set_steps(program: BoxProgram, objective, start: Point, rule: PivotRule,
                     max_iter: Optional[int] = None):
    """Run the active-set method from ``start`` until a critical point,
    yielding each pass's :class:`IterationRecord`; the generator returns
    the stop reason.

    The active set starts as the full tight set of ``start``.  Each pass:
    select a maximum-overlap improving candidate by the rule; if the one
    row with negative inner product is active, drop it; the remaining
    active rows are then all orthogonal to the direction, so take the
    exact step

        mu = min(step to the boundary, first zero of the edge restriction)

    and, when the move stopped on the boundary (the line search found no
    point of the step where the directional derivative is nonpositive),
    add one rule-chosen row that is tight at the new point but not active.
    Ends with an error stop reason on iteration overrun or an irrational
    stopping point; the pass that meets the latter is the only one whose
    ``x_after`` equals its ``x_before``.

    The active rows are kept as a sorted list, from which the one dropped
    row is removed and into which the one added row is inserted in place,
    so each record's ``active_before`` is a copy of it.  The rows tight at
    the iterate but not active are kept as a set alongside; it starts
    empty, since the active set starts as the tight set.  A pass changes
    tightness only in the coordinate it moves, and the row it drops is one
    of that coordinate's, so it updates that set only for the rows ``k``
    and ``k + n``, besides moving the added row out.  The entering options
    are that set, sorted: upper rows, then lower rows, with rows the walk
    left tight on earlier passes among them; a single option is taken as
    it is.

    Each pass starts with one ``objective.value_and_gradient`` call at the
    iterate.  Its value completes the previous pass's record, which is
    held back until then: every record is yielded with its
    ``value_after``, and the last one already carries its
    ``stop_reason``.  Nothing else is kept from pass to pass, so memory
    is O(n) whatever the number of passes.
    """
    _check_dimensions(program, objective)
    start = as_point(start)
    if max_iter is None:
        max_iter = 2 ** (program.n + 1)
    n = program.n
    active = sorted(program.eq_set(start))  # raises on a start outside the box
    tight_inactive = set()  # eq_set(x) - active
    lower, upper = program.lower, program.upper
    value_and_gradient = objective.value_and_gradient
    edge_restriction = objective.edge_restriction
    step_to_boundary = program.step_to_boundary
    move = program.move
    x = start
    passes = 0
    held = None  # the previous pass's record, until the value at its x_after is known

    while True:
        value, grad = value_and_gradient(x)
        if held is not None:
            held.value_after = value
        candidates = improving_candidates(program, x, active, grad)
        if not candidates:
            stop = STOP_CRITICAL_POINT
            break
        if passes >= max_iter:
            stop = STOP_MAX_ITER
            break
        if held is not None:
            yield held
        chosen = candidates[0] if len(candidates) == 1 else rule.choose_direction(candidates)
        d = chosen.direction
        k = d.coord
        x_before = x
        active_before = tuple(active)
        # the one row with a negative inner product with +-e_k: the lower
        # bound k + n for +e_k, the upper bound k for -e_k; being the only
        # option, it is dropped without asking the rule.  The other row of
        # coordinate k is not tight, so the move below is blocked by none.
        removed = k + n if d.sign > 0 else k
        if removed in active:
            active.remove(removed)
        else:
            removed = None
        mu_boundary = step_to_boundary(x, d)
        g = edge_restriction(x, d, chosen.slope)  # slope = grad^T d
        try:
            mu_objective = first_nonpositive(g, mu_boundary)
        except NotRepresentableError:
            stop = STOP_NOT_REPRESENTABLE
            held = IterationRecord(passes + 1, x, active_before, d, removed, None, x, None,
                                   len(candidates), value_after=value)  # x did not move
            break
        step = mu_boundary if mu_objective is None else mu_objective
        x = move(x, d, step)
        # only coordinate k moved, and neither of its rows is active
        tight_inactive.discard(k)
        tight_inactive.discard(k + n)
        if x[k - 1] == upper[k - 1]:
            tight_inactive.add(k)
        elif x[k - 1] == lower[k - 1]:
            tight_inactive.add(k + n)
        added = None
        if mu_objective is None:  # g > 0 on the whole step: a boundary stop
            if not tight_inactive:
                raise RuntimeError(
                    "boundary stop produced no new tight row; "
                    "box invariant violated"
                )
            if len(tight_inactive) == 1:
                added = tight_inactive.pop()
            else:
                added = rule.choose_addition(sorted(tight_inactive))
                tight_inactive.discard(added)
            insort(active, added)
        passes += 1
        held = IterationRecord(passes, x_before, active_before, d, removed, step, x,
                               added, len(candidates))

    if held is not None:
        held.stop_reason = stop
        yield held
    return stop


def active_set_run(program: BoxProgram, objective, start: Point, rule: PivotRule,
                   max_iter: Optional[int] = None) -> Trajectory:
    """:func:`active_set_steps` collected into a :class:`Trajectory`."""
    start = as_point(start)
    walk = Walk(program, start, active_set_steps(program, objective, start, rule, max_iter))
    records = list(walk)
    return Trajectory(program=program, start=start, records=records,
                      stop_reason=walk.stop_reason)


def _vertex_rows(program: BoxProgram, x: Point) -> Optional[frozenset]:
    """``program.eq_set(x)`` if ``x`` is a vertex, else None, in that one
    scan: as ``lower < upper``, a point of the box is a vertex iff n rows
    are tight at it, one per coordinate."""
    try:
        tight = program.eq_set(x)
    except InfeasiblePointError:
        return None
    return tight if len(tight) == program.n else None


def simplex_run(program: BoxProgram, objective: LinearObjective, start: Point,
                rule: PivotRule, max_iter: Optional[int] = None) -> Trajectory:
    """Run the simplex method on a linear objective from a start vertex.

    The basis is the full tight set of the current vertex.  Each pass picks
    an improving edge direction (on a box: a feasible improving axis
    direction; all of them are orthogonal to exactly n-1 basis rows), drops
    the unique basis row with negative inner product, moves to the opposite
    boundary, and adds the unique newly tight row.  Non-degeneracy of the
    box makes both rows unique, and each pass checks that it does, so the
    rule is asked only for the direction, and only among two or more
    candidates.  A pass that finds the box degenerate raises
    :class:`~pivotforge.errors.DegenerateVertexError` naming its vertex.
    """
    if not isinstance(objective, LinearObjective):
        raise TypeError("simplex_run requires a LinearObjective")
    _check_dimensions(program, objective)
    start = as_point(start)
    tight = _vertex_rows(program, start)
    if tight is None:
        raise NotAVertexError(f"simplex must start at a vertex, got {start}")
    if max_iter is None:
        max_iter = 2 ** (program.n + 1)
    n = program.n
    basis = set(tight)
    x = start
    records = []

    while True:
        value, grad = objective.value_and_gradient(x)
        if records:
            records[-1].value_after = value
        candidates = improving_candidates(program, x, basis, grad)
        if not candidates:
            stop = STOP_CRITICAL_POINT
            break
        if len(records) >= max_iter:
            stop = STOP_MAX_ITER
            break
        if any(c.overlap != n - 1 for c in candidates):
            raise DegenerateVertexError(
                f"simplex at vertex {x}: an improving edge is not orthogonal "
                f"to n - 1 basis rows", vertex=x)
        chosen = candidates[0] if len(candidates) == 1 else rule.choose_direction(candidates)
        d = chosen.direction
        x_before = x
        basis_before = tuple(sorted(basis))
        removed = d.coord + n if d.sign > 0 else d.coord  # the one blocking row
        if removed not in basis:
            raise DegenerateVertexError(
                f"simplex at vertex {x}: blocking row {removed} is not in the basis",
                vertex=x)
        basis.discard(removed)
        mu = program.step_to_boundary(x, d)
        x = program.move(x, d, mu)
        tight = _vertex_rows(program, x)
        if tight is None:
            raise DegenerateVertexError(
                f"simplex at vertex {x_before}: the step along {d} ends at {x}, "
                f"not a vertex", vertex=x_before)
        options = sorted(tight - basis)
        if len(options) != 1:
            raise DegenerateVertexError(
                f"simplex at vertex {x_before}: {len(options)} entering rows "
                f"{options} at {x}, not one", vertex=x_before)
        added = options[0]  # forced: the rule is not asked
        basis.add(added)
        records.append(IterationRecord(len(records) + 1, x_before, basis_before, d, removed,
                                       mu, x, added, len(candidates)))

    if records:
        records[-1].stop_reason = stop
    return Trajectory(program=program, start=start, records=records, stop_reason=stop)


def equivalence_check(program: BoxProgram, objective: LinearObjective, start: Point,
                      rule_factory: Callable[[], PivotRule]):
    """Do the active-set and simplex methods visit the same points?

    Runs both from ``start`` with fresh rule instances from the shared
    factory and compares the full iterate sequences.  Returns
    ``(True, None)`` on agreement, else ``(False, divergence)`` where the
    divergence names the first differing position.
    """
    active_set_traj = active_set_run(program, objective, start, rule_factory())
    simplex_traj = simplex_run(program, objective, start, rule_factory())
    a_pts = active_set_traj.points()
    s_pts = simplex_traj.points()
    for i in range(max(len(a_pts), len(s_pts))):
        a = a_pts[i] if i < len(a_pts) else None
        s = s_pts[i] if i < len(s_pts) else None
        if a != s:
            return False, {
                "index": i,
                "active_set": a,
                "simplex": s,
                "active_set_length": len(a_pts),
                "simplex_length": len(s_pts),
            }
    return True, None
