"""Re-measure the ROADMAP Baseline figures through the benchmark's code.

    python3 perfbench/baseline.py

Writes ``perfbench/baseline.json``: each figure as the median of three
measurements, next to the value the ROADMAP states.  Every measurement runs in a fresh child
process, so its peak RSS is its own; commands are timed both in-process
(``pivotforge.cli.main``, as the benchmark runs them) and as a separate
``python3 -m pivotforge.cli`` process (as a user runs them).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).with_name("baseline.json")
REPEATS = 3

ROADMAP = {
    "active_set_run_us_per_pass": {"12": 70, "14": 82, "16": 88},
    "run_n14": {"wall_s": 3.3, "peak_rss_mb": 193, "json_mb": 16},
    "verify_uso_n10": {"wall_s": 2.2},
    "reduce_check_18_vars": {"wall_s": 1.6, "note": "brute_force_max alone, 129 terms"},
}


def child_main(argv: list) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import resource

    from perfbench import workloads

    if argv[0] == "--passes":
        from pivotforge import BoxProgram, LowerBoundPolynomial, active_set_run, make_rule

        n = int(argv[1])
        start = time.perf_counter()
        trajectory = active_set_run(BoxProgram.unit_cube(n), LowerBoundPolynomial(n),
                                    (0,) * n, make_rule("lowest-index"))
        wall = time.perf_counter() - start
        result = {"us_per_pass": wall / trajectory.iterations * 1e6, "wall_s": wall}
    else:
        start = time.perf_counter()
        code, _ = workloads.cli_call(argv)
        result = {"wall_s": time.perf_counter() - start, "exit": code}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


def in_child(argv: list) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--child", *argv], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, check=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def as_command(argv: list) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "pivotforge.cli", *argv], cwd=ROOT,
                            env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": time.perf_counter() - start, "exit": proc.returncode,
            "peak_rss_mb": usage.ru_maxrss / 1024}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            return next(line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor()


def median_of(measure, argv: list) -> dict:
    """``measure(argv)`` REPEATS times: the median of each figure, plus
    the wall-time samples (machine speed swings between runs)."""
    samples = [measure(argv) for _ in range(REPEATS)]
    out = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
    out["wall_s_samples"] = [s["wall_s"] for s in samples]
    return out


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import inputs

    measured = {"active_set_run_us_per_pass": {}}
    for n in (12, 14, 16):
        measured["active_set_run_us_per_pass"][str(n)] = median_of(in_child, ["--passes", str(n)])
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = str(Path(tmp) / "trajectory.json")
        run14 = ["run", "--n", "14", "--out", out]
        measured["run_n14"] = {"in_process": median_of(in_child, run14),
                               "command": median_of(as_command, run14),
                               "json_mb": os.path.getsize(out) / 2 ** 20}
        uso = ["verify", "uso", "--n", "10"]
        measured["verify_uso_n10"] = {"in_process": median_of(in_child, uso),
                                      "command": median_of(as_command, uso)}
        measured["reduce_check_18_vars"] = {}
        for satisfiable, text in inputs.certify_cnf_files(0)[:2]:
            cnf = Path(tmp) / "formula.cnf"
            cnf.write_text(text)
            argv = ["reduce", str(cnf), "--check", "--out", str(Path(tmp) / "poly.json")]
            measured["reduce_check_18_vars"]["sat" if satisfiable else "unsat"] = {
                "terms": inputs.penalty_term_count(inputs.dimacs_clauses(text)),
                "in_process": median_of(in_child, argv),
                "command": median_of(as_command, argv)}
    report = {
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "cpu": cpu_model(), "arch": platform.machine()},
        "measured": measured,
        "roadmap": ROADMAP,
        "notes": [],
    }
    if OUT.exists():
        report["notes"] = json.loads(OUT.read_text()).get("notes", [])
    OUT.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(measured, indent=2))
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        sys.exit(child_main(sys.argv[2:]))
    sys.exit(main())
