"""Spans and counters recorded from outside pivotforge.

Tracing rebinds public names where pivotforge looks them up (module
globals such as ``pivotforge.engine.first_nonpositive`` and class
attributes such as ``LowerBoundPolynomial.gradient``) to wrappers that
record a span around the original call; nothing under ``src/`` changes.
Spans are kept in memory in columnar arrays and written out at the end.
A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from collections import Counter
from time import perf_counter_ns

ROOT_SPAN = "bench.op"


class Tracer:
    """Span store: span ``i`` has ``name[i]`` (an index into ``names``),
    ``start[i]``, ``end[i]`` (ns), ``parent[i]`` (-1 for a root) and
    ``op[i]``, the op it belongs to."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self.op_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def record(self, name: str, start: int, end: int, parent: int = -1) -> int:
        """Append a closed span (used to build span trees directly)."""
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(self.op_id)
        return idx

    @contextlib.contextmanager
    def op_span(self):
        """Root span of one op; spans opened inside belong to it."""
        self.op_id += 1
        idx = self.begin(self.name_id(ROOT_SPAN))
        try:
            yield
        finally:
            self.finish(idx)

    def wrap(self, name: str, fn, observe=None):
        """``fn`` wrapped in a span named ``name``.  ``observe(args, result,
        exc)`` runs after the span closes, to update counters."""
        nid = self.name_id(name)
        begin, finish = self.begin, self.finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                finish(idx)
                if observe is not None:
                    observe(args, None, exc)
                raise
            finish(idx)
            if observe is not None:
                observe(args, result, None)
            return result

        return traced

    def count_yields(self, name: str, gen_fn):
        """``gen_fn`` with every item it yields counted under ``name``."""
        counts = self.counts

        @functools.wraps(gen_fn)
        def counting(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return counting

    def layer_times(self) -> dict:
        """``{name: (calls, total_ns, self_ns)}`` over every span."""
        child_ns = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        out = {}
        for i, nid in enumerate(self.name):
            duration = self.end[i] - self.start[i]
            calls, total, own = out.get(nid, (0, 0, 0))
            out[nid] = (calls + 1, total + duration, own + duration - child_ns[i])
        return {self.names[nid]: value for nid, value in out.items()}

    def write(self, path) -> None:
        """Tab-separated spans: ``op name start_ns end_ns parent``, with
        times relative to the first span."""
        origin = self.start[0] if self.start else 0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("op\tname\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.start)):
                handle.write(f"{self.op[i]}\t{self.names[self.name[i]]}\t"
                             f"{self.start[i] - origin}\t{self.end[i] - origin}\t"
                             f"{self.parent[i]}\n")


def _first_nonpositive_outcome(counts: Counter):
    from pivotforge.errors import NotRepresentableError

    def observe(args, result, exc):
        if exc is not None:
            if isinstance(exc, NotRepresentableError):
                counts["polynomials.first_nonpositive.not_representable"] += 1
        elif result is None:
            counts["polynomials.first_nonpositive.none"] += 1
        elif result == 0:
            counts["polynomials.first_nonpositive.at_zero"] += 1
        else:
            counts["polynomials.first_nonpositive.root"] += 1
    return observe


def _targets(tracer: Tracer) -> list:
    """``(owner, attribute, replacement)`` for every traced name."""
    import pivotforge.cli as cli
    import pivotforge.engine as engine
    import pivotforge.polynomials as polynomials
    import pivotforge.structure as structure
    from pivotforge.boxes import BoxProgram
    from pivotforge.objectives import LinearObjective, LowerBoundPolynomial, MultiPolyObjective

    counts = tracer.counts
    wrap = tracer.wrap
    out = []

    def at(owners, attr, replacement):
        out.extend((owner, attr, replacement) for owner in owners)

    for cls in (LowerBoundPolynomial, MultiPolyObjective, LinearObjective):
        for method in ("gradient", "edge_restriction", "partial", "value"):
            if method in vars(cls):
                at([cls], method, wrap(f"objectives.{method}", vars(cls)[method]))

    at([engine], "first_nonpositive",
       wrap("polynomials.first_nonpositive", engine.first_nonpositive,
            _first_nonpositive_outcome(counts)))
    at([polynomials.MultiPoly], "eval", wrap("polynomials.multipoly_eval",
                                            polynomials.MultiPoly.eval))

    def passes(args, result, exc):
        if result is not None:
            counts["engine.passes"] += len(result.records)

    def candidates(args, result, exc):
        if result is not None:
            counts["engine.candidates"] += len(result)

    at([engine, cli], "active_set_run",
       wrap("engine.active_set_run", engine.active_set_run, passes))
    at([engine], "simplex_run", wrap("engine.simplex_run", engine.simplex_run, passes))
    at([engine], "improving_candidates",
       wrap("engine.improving_candidates", engine.improving_candidates, candidates))
    at([engine.Trajectory], "to_json_dict",
       wrap("engine.to_json_dict", engine.Trajectory.to_json_dict))

    for method in ("step_to_boundary", "move", "is_vertex", "vertex_id", "eq_set"):
        at([BoxProgram], method, wrap("boxes", vars(BoxProgram)[method]))

    at([engine, cli, polynomials], "format_rational",
       wrap("scalars.format_rational", engine.format_rational))

    for name, owners in (("is_uso", [cli]), ("is_decomposable", [cli]),
                         ("combed_dimension", [cli, structure]),
                         ("improving_dimension", [cli, structure]),
                         ("hamiltonian_path", [cli])):
        at(owners, name, wrap(f"structure.{name}", getattr(structure, name)))
    at([cli, structure], "faces", tracer.count_yields("structure.faces_scanned", structure.faces))

    def enumerated(args, result, exc):
        counts["satreduce.vertices_enumerated"] += 1 << args[1]

    def scanned(args, result, exc):
        if result is not None:
            satisfiable, witness = result
            space = 1 << args[0].n_vars
            tried = sum(bit << i for i, bit in enumerate(witness)) + 1 if satisfiable else space
            counts["satreduce.sat_tried"] += tried
            counts["satreduce.sat_space"] += space

    at([cli], "brute_force_max", wrap("satreduce.brute_force_max", cli.brute_force_max, enumerated))
    at([cli], "brute_force_sat", wrap("satreduce.brute_force_sat", cli.brute_force_sat, scanned))
    for name in ("violation_polynomial", "parse_dimacs"):
        at([cli], name, wrap(f"satreduce.{name}", getattr(cli, name)))

    at([cli], "main", wrap("cli.main", cli.main))
    return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind every traced name for the duration of the block."""
    targets = _targets(tracer)
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, replacement in targets:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


#: Per-layer metrics: (metric, unit, better).  ``.calls`` and ``.self_s``
#: are per traced op; self time is span time minus child spans.
SPAN_LAYERS = (
    "objectives.gradient", "objectives.edge_restriction", "objectives.value",
    "objectives.partial",
    "polynomials.first_nonpositive", "polynomials.multipoly_eval",
    "engine.active_set_run", "engine.improving_candidates", "engine.to_json_dict",
    "engine.simplex_run",
    "scalars.format_rational",
    "structure.is_uso", "structure.is_decomposable", "structure.combed_dimension",
    "structure.improving_dimension", "structure.hamiltonian_path",
    "satreduce.brute_force_max", "satreduce.brute_force_sat",
    "satreduce.violation_polynomial", "satreduce.parse_dimacs",
    "cli.main",
)
COUNT_METRICS = (
    ("polynomials.first_nonpositive.at_zero", "1/op"),
    ("polynomials.first_nonpositive.none", "1/op"),
    ("polynomials.first_nonpositive.root", "1/op"),
    ("polynomials.first_nonpositive.not_representable", "1/op"),
    ("engine.passes", "1/op"),
    ("structure.faces_scanned", "1/op"),
    ("satreduce.vertices_enumerated", "1/op"),
    ("cli.output_bytes", "B/op"),
)


def per_layer_spec() -> list:
    """Every per-layer metric as ``(name, unit, better)``."""
    spec = []
    for layer in SPAN_LAYERS:
        spec += [(f"{layer}.calls", "1/op", "lower"), (f"{layer}.self_s", "s/op", "lower")]
    spec += [("boxes.calls", "1/op", "lower"), ("boxes.self_s", "s/op", "lower")]
    spec += [(name, unit, "lower") for name, unit in COUNT_METRICS]
    spec += [
        ("engine.candidates_per_pass", "1/pass", "lower"),
        ("satreduce.sat_scan_ratio", "ratio", "lower"),
        ("trace.op_s_mean", "s", "lower"),
        ("trace.overhead", "ratio", "lower"),
        ("trace.spans", "1/op", "lower"),
    ]
    return spec


def per_layer_metrics(tracer: Tracer, times: dict, traced_s: float, untraced_s: float) -> dict:
    """``{metric: value}`` for every name in :func:`per_layer_spec`;
    ``times`` is ``tracer.layer_times()``."""
    ops = tracer.op_id + 1
    counts = tracer.counts
    values = {}
    for layer in SPAN_LAYERS + ("boxes",):
        calls, _, own = times.get(layer, (0, 0, 0))
        values[f"{layer}.calls"] = calls / ops
        values[f"{layer}.self_s"] = own / 1e9 / ops
    for name, _ in COUNT_METRICS:
        values[name] = counts[name] / ops
    searches = times.get("engine.improving_candidates", (0, 0, 0))[0]
    values["engine.candidates_per_pass"] = counts["engine.candidates"] / searches if searches else 0
    space = counts["satreduce.sat_space"]
    values["satreduce.sat_scan_ratio"] = counts["satreduce.sat_tried"] / space if space else 0
    values["trace.op_s_mean"] = traced_s / ops
    values["trace.overhead"] = traced_s / untraced_s - 1
    values["trace.spans"] = len(tracer.start) / ops
    return values
