"""Rewrite golden.json from this checkout's library.

    python3 bench/golden.py

For each workload, runs the fixed op list of a default run (seed 1, 10
seconds) and stores, for its first `GOLDEN_OPS` ops, the argv (the sweep's
output file shown as OUT), the exit code and the SHA-256 of the output
bytes.  Refuses to write if any op fails its oracle check.  Rerun only when the op generators change; a library change
that alters a digest is a failure, not a reason to rerun.
"""

from __future__ import annotations

import json
import sys

from run import DEFAULT_SECONDS, DEFAULT_SEED, GOLDEN, run_worker
from workloads import WORKLOADS, fixed_rounds

GOLDEN_OPS = 1000


def main() -> int:
    golden = {}
    for workload in WORKLOADS:
        rounds = fixed_rounds(workload, DEFAULT_SECONDS)
        result = run_worker(workload, DEFAULT_SEED, rounds, trace=False)
        if result["failures"]:
            print(f"{workload}: {result['failures'][:5]}", file=sys.stderr)
            return 1
        golden[workload] = result["ops"][:GOLDEN_OPS]
    # One op per line, so that a changed digest shows as a one-line diff.
    body = ",\n".join(
        f"{json.dumps(workload)}: [\n" + ",\n".join(json.dumps(op) for op in ops) + "\n]"
        for workload, ops in golden.items()
    )
    GOLDEN.write_text("{\n" + body + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
