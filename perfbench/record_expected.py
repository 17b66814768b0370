"""Record the sha256 of every ``walk`` output into ``expected.json``.

    python3 perfbench/record_expected.py

Run it on a commit whose outputs are the reference; the walk workload then
fails any op whose output bytes differ from the recorded ones.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, workloads  # noqa: E402


def main() -> int:
    ops = {key: argv for rule_seed in range(inputs.WALK_RULE_SEEDS)
           for key, argv, _ in inputs.walk_mix(rule_seed)}
    expected = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp) / "out"
        for key, argv in sorted(ops.items()):
            code, _ = workloads.cli_call(argv + ["--out", str(out)])
            if code != 0:
                print(f"error: {key} exited {code}", file=sys.stderr)
                return 1
            expected[key] = workloads.sha256_file(out)
    workloads.EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(expected)} hashes in {workloads.EXPECTED.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
