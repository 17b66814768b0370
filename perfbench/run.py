"""Benchmark entry point.

    python3 perfbench/run.py --workload walk --seed 1 --seconds 30 --trace 0

Each run starts one child process per set-up sample and one measuring
child, so that peak RSS belongs to the workload alone.  The measuring
child runs whole cycles of the workload's ops, one at a time (closed
loop, one client), until ``--seconds`` have passed, and checks every op's
output after its clock stops.  Between ops it times the fixed routine in
``reference.py``; every reported time is scaled to the speed at which that
routine takes ``REFERENCE_S`` (see ``end_to_end``), which cancels most of
the host's swings in speed.  With ``--trace 1`` it alternates an
untraced and a traced pass over each cycle and reports per-layer metrics
instead of end-to-end ones.  The last line of stdout is the result as
JSON; the lines before it list each cycle's op times and the same
metrics for humans.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_BEFORE = SETUP_AFTER = 4
#: reference samples a set-up child takes, after its set-up, to scale it
SETUP_REFERENCE_REPS = 3
#: share of op time spent timing perfbench.reference in an untraced run
REFERENCE_SHARE = 0.15
CHILD_TIMEOUT_S = 170
WORK_DIR = ".perfbench_work"
WORKLOADS = ("walk", "certify", "linesearch")

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("op_s_p50", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


# --------------------------------------------------------------- child --


def run_op(op, tracer=None):
    """``(seconds, failure or None, output bytes)`` of one op."""
    span = tracer.op_span() if tracer is not None else nullcontext()
    result = None
    start = time.perf_counter()
    try:
        with span:
            result = op.call()
    except (Exception, SystemExit) as exc:  # an op that raises is a failed op
        reason = f"{type(exc).__name__}: {exc}"
    else:
        reason = None
    seconds = time.perf_counter() - start
    if reason is None:
        try:
            reason = op.check(result)
        except Exception as exc:  # a check that cannot read the output fails the op
            reason = f"check raised {type(exc).__name__}: {exc}"
    out_bytes = len(result[1]) if isinstance(result, tuple) else 0
    if op.out_path is not None and op.out_path.exists():
        out_bytes += op.out_path.stat().st_size
        op.out_path.unlink()
    return seconds, reason, out_bytes


def child(role: str, workload: str, seed: int, seconds: int, trace: bool, workdir: Path) -> int:
    begin = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import pivotforge

    if Path(pivotforge.__file__).resolve().parent != ROOT / "src" / "pivotforge":
        print(f"error: pivotforge imported from {pivotforge.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from perfbench import workloads

    cycle_ops = workloads.build(workload, seed, workdir)
    setup_s = time.perf_counter() - begin
    from perfbench.reference import reference

    if role == "setup":
        refs = []
        for _ in range(SETUP_REFERENCE_REPS):
            start = time.perf_counter()
            reference()
            refs.append(time.perf_counter() - start)
        print(json.dumps({"setup_s": setup_s, "reference_s": statistics.median(refs)}))
        return 0

    from perfbench import tracing

    tracer = tracing.Tracer() if trace else None
    cycles, failures, ref_cycles = [], [], []
    traced_s = untraced_s = op_total = ref_total = 0.0
    loop_start = time.perf_counter()
    while not cycles or time.perf_counter() - loop_start < seconds:
        ops = cycle_ops(len(cycles))
        durations, refs = [], []
        for op in ops:
            if tracer is None:
                # machine-speed samples next to every op, REFERENCE_SHARE of op time
                while len(refs) < 2 or ref_total < REFERENCE_SHARE * op_total:
                    start = time.perf_counter()
                    reference()
                    refs.append(time.perf_counter() - start)
                    ref_total += refs[-1]
            dt, reason, _ = run_op(op)
            op_total += dt
            durations.append(dt)
            if reason is not None:
                failures.append(f"{op.label}: {reason}")
        cycles.append(durations)
        ref_cycles.append(refs)
        if tracer is not None:
            untraced_s += sum(durations)
            with tracing.installed(tracer):
                for op in ops:
                    dt, reason, out_bytes = run_op(op, tracer)
                    traced_s += dt
                    tracer.counts["cli.output_bytes"] += out_bytes
                    if reason is not None:
                        failures.append(f"{op.label} (traced): {reason}")

    report = {
        "setup_s": setup_s,
        "cycles": cycles,
        "reference": ref_cycles,
        "attempted": sum(map(len, cycles)) * (2 if tracer is not None else 1),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        spans = ROOT / WORK_DIR / "traces" / f"{workload}.spans.tsv"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans)
        times = tracer.layer_times()
        report["layers"] = tracing.per_layer_metrics(tracer, times, traced_s, untraced_s)
        report["shares"] = {name: (own / 1e9 / traced_s, total / 1e9 / traced_s)
                            for name, (_, total, own) in times.items()}
        report["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(report))
    return 0


# -------------------------------------------------------------- parent --


def run_child(role: str, args, workdir: Path, timeout: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", role, args.workload,
           str(args.seed), str(args.seconds), str(args.trace), str(workdir)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} child exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(report: dict, setups: list):
    """``(metrics, unscaled wall metrics, median reference seconds)``.

    Every time is given in seconds of a machine on which the reference
    takes ``REFERENCE_S``: a sample is scaled by ``REFERENCE_S`` over the
    median reference time measured in the same process.
    """
    from perfbench.reference import REFERENCE_S

    durations = [dt for cycle in report["cycles"] for dt in cycle]
    ref_s = statistics.median(r for refs in report["reference"] for r in refs)
    scale = REFERENCE_S / ref_s
    wall = {
        "ops_per_s": len(durations) / sum(durations),
        # the median over cycles of each cycle's median op: the middle of a
        # mix of op kinds, without the extreme order statistics that the
        # median of all ops picks between two kinds
        "op_s_p50": statistics.median(statistics.median(cycle) for cycle in report["cycles"]),
        "setup_s": statistics.median([s["setup_s"] for s in setups] + [report["setup_s"]]),
    }
    setup_scaled = ([s["setup_s"] * REFERENCE_S / s["reference_s"] for s in setups]
                    + [report["setup_s"] * scale])
    values = {
        "ops_per_s": wall["ops_per_s"] / scale,
        "op_s_p50": wall["op_s_p50"] * scale,
        "peak_rss_mb": report["peak_rss_mb"],
        "setup_s": statistics.median(setup_scaled),
    }
    return values, wall, ref_s


def main(argv=None) -> int:
    import argparse  # here, not at the top: pivotforge.cli's import of it is set-up time

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "pivotforge" / "__init__.py").is_file():
        print(f"error: no pivotforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    workdir = ROOT / WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        # set-up samples before and after the measuring child, so that their
        # median sees the same machine conditions as the timed ops
        setups = [run_child("setup", args, workdir, deadline - time.monotonic())
                  for _ in range(SETUP_BEFORE)]
        report = run_child("measure", args, workdir, deadline - time.monotonic())
        setups += [run_child("setup", args, workdir, deadline - time.monotonic())
                   for _ in range(SETUP_AFTER)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    cycles = report["cycles"]
    durations = [dt for cycle in cycles for dt in cycle]
    failures = report["failures"]
    attempted = report["attempted"]
    for reason in failures[:10]:
        print(f"FAILED {reason}", file=sys.stderr)
    if args.trace:
        from perfbench.tracing import per_layer_spec

        values = report["layers"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in per_layer_spec()}
        print("share of traced op time, self (inclusive):")
        for name, (own, total) in sorted(report["shares"].items(), key=lambda kv: -kv[1][0]):
            if own >= 0.001:
                print(f"  {name} {own:.1%} ({total:.1%})")
        print(f"spans written to {report['spans_file']}")
    else:
        from perfbench.reference import REFERENCE_S

        values, wall, ref_s = end_to_end(report, setups)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"reference median {ref_s:.6f} s over {sum(map(len, report['reference']))} samples "
              f"(REFERENCE_S {REFERENCE_S} s); unscaled wall: "
              + " ".join(f"{name}={value:.6g}" for name, value in wall.items()))
    for i, cycle in enumerate(cycles):
        print(f"cycle {i} op seconds: " + " ".join(f"{dt:.4f}" for dt in cycle))
    print(f"workload={args.workload} seed={args.seed} error_rate={len(failures)}/{attempted} "
          f"ops={len(durations)} in {len(cycles)} cycles, setup samples={len(setups) + 1}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        role, workload, seed, seconds, trace, workdir = sys.argv[2:8]
        sys.exit(child(role, workload, int(seed), int(seconds), trace == "1", Path(workdir)))
    sys.exit(main())
