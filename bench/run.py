"""Run one workload of the noetherline benchmark and print its metrics.

    python3 bench/run.py --workload sweep|records|monomials --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src`.
With `--trace 0` the run measures the end-to-end metrics: the import time of
`noetherline.cli` in fresh interpreters, then one fresh worker process that
runs the workload's fixed op list: as many rounds of ops as take S seconds at
nominal speed on the commit that defined the benchmark, the same ops on every
later commit.  With `--trace 1` two fresh workers replay the first rounds
of the workload, untraced and then traced, and the run prints the per-layer
metrics.  One worker runs at a time.  The last line of standard output is
one JSON object; the lines before it are for people.  See README.md for the
workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
GOLDEN = BENCH / "golden.json"

sys.path.insert(0, str(BENCH))
from speed import CLASS_NOMINAL_NS  # noqa: E402
from workloads import TRACE_ROUNDS, WORKLOADS, fixed_rounds  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 10
SETUP_RUNS = 21
# The traced run's wall time, the sum of its `main` spans, may fall short of
# the worker's own timing of the same ops by at most this share: the flush
# and the worker's bookkeeping around `main`.
TRACE_GAP_SHARE = 0.05
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "rows_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mib": "MiB",
}

# Times the import, with the class-creation kernel (speed.py) run just
# before and just after it.
_IMPORT_TIMER = (
    "import statistics, sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import speed\n"
    "k = []\n"
    "def probe():\n"
    "    for _ in range(2):\n"
    "        k0 = time.perf_counter_ns()\n"
    "        speed.class_kernel()\n"
    "        k.append(time.perf_counter_ns() - k0)\n"
    "probe()\n"
    "t = time.perf_counter_ns()\n"
    "import noetherline.cli\n"
    "t = time.perf_counter_ns() - t\n"
    "probe()\n"
    "print(t, statistics.median(k))\n"
)


def measure_setup() -> tuple[float, float]:
    """Median import time of `noetherline.cli` over fresh interpreters, in
    seconds, scaled by the machine-speed factor (see speed.py) and raw.

    A first, discarded import lets the interpreter write its bytecode cache,
    which a user pays once per install, not per run.
    """
    scaled, raw = [], []
    for _ in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER, str(ROOT / "src"), str(BENCH)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
        )
        import_ns, kernel_ns = (float(x) for x in done.stdout.split())
        scaled.append(import_ns * CLASS_NOMINAL_NS / kernel_ns / 1e9)
        raw.append(import_ns / 1e9)
    return statistics.median(scaled[1:]), statistics.median(raw[1:])


def run_worker(workload: str, seed: int, rounds: int, trace: bool) -> dict:
    """Run `worker.py` in a fresh process and return its results."""
    WORK.mkdir(parents=True, exist_ok=True)
    out = WORK / f"result-{workload}-{os.getpid()}-{int(trace)}.json"
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--rounds", str(rounds), "--trace", str(int(trace)), "--out", str(out),
    ]
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S)
    try:
        return json.loads(out.read_text(encoding="utf-8"))
    finally:
        out.unlink()


def _scaled_total(result: dict) -> float:
    return sum(t * f for t, f in zip(result["latency_ns"], result["scale"]))


def golden_mismatches(result: dict) -> dict[int, str]:
    """Ops whose argv, exit code or output digest differs from
    golden.json, by op index; only the default seed has goldens."""
    if result["seed"] != DEFAULT_SEED:
        return {}
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[result["workload"]]
    return {
        i: f"{got[0]}: exit {got[1]}, digest {got[2][:12]}; "
           f"golden {want[0]}: exit {want[1]}, digest {want[2][:12]}"
        for i, (got, want) in enumerate(zip(result["ops"], golden))
        if got != want
    }


def trace_problem(traced: dict) -> str | None:
    """Why the traced run's spans cannot be trusted, or None.

    The spans' wall time is checked against the worker's own timing of the
    same ops, taken outside the tracer: a span that lost time, or time that
    no span covers, shows as a gap between the two.
    """
    trace = traced["trace"]
    if trace["min_self_ns"] < 0:
        return f"a span has negative self time ({trace['min_self_ns']} ns)"
    timed = sum(traced["latency_ns"])
    gap = timed - trace["wall_ns"]
    if not 0 <= gap <= TRACE_GAP_SHARE * timed:
        return (f"traced wall time {trace['wall_ns']} ns against {timed} ns timed "
                f"by the worker: a gap of {gap / timed:.2%}")
    return None


def end_to_end(result: dict, setup: tuple[float, float]) -> tuple[dict, list[str]]:
    """The end-to-end metrics of an untraced run, and raw figures for people.

    Times are scaled op by op by the machine-speed factor (see speed.py).
    """
    raw = result["latency_ns"]
    lat = [t * f for t, f in zip(raw, result["scale"])]
    rows = sum(result["rows"])
    metrics = {
        "setup_s": setup[0],
        "wall_s": sum(lat) / 1e9,
        "rows_per_s": rows / (sum(lat) / 1e9),
        "latency_p50_ms": statistics.median(lat) / 1e6,
        "peak_rss_mib": result["peak_rss_kib"] / 1024,
    }
    notes = [
        f"samples: {len(lat)} ops, {rows} rows, {SETUP_RUNS} imports",
        f"raw: setup_s {setup[1]:.4f}, wall_s {sum(raw) / 1e9:.4f}, "
        f"rows_per_s {rows / (sum(raw) / 1e9):.1f}, "
        f"latency_p50_ms {statistics.median(raw) / 1e6:.4f}",
        f"machine-speed factor: median {statistics.median(result['scale']):.3f} "
        f"over {result['probe_samples']} kernel samples",
    ]
    # p99 has at least ten samples beyond it only from 1000 ops on.
    if len(lat) >= 1000:
        p99 = statistics.quantiles(lat, n=100)[98] / 1e6
        notes.append(f"latency_p99_ms: {p99:.4f} ms (n={len(lat)})")
    return metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "noetherline" / "cli.py").is_file():
        print(f"error: no noetherline sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.trace:
        rounds = TRACE_ROUNDS[args.workload]
        base = run_worker(args.workload, args.seed, rounds, trace=False)
        traced = run_worker(args.workload, args.seed, rounds, trace=True)
        runs = [base, traced]
        trace = traced["trace"]
        problem = trace_problem(traced)
        if problem:
            print(f"error: {problem}", file=sys.stderr)
            return 1
        values = {name: tuple(v) for name, v in trace["metrics"].items()}
        values["trace.overhead_ratio"] = (_scaled_total(traced) / _scaled_total(base), "ratio")
        notes = [f"spans written to {trace['spans_file']}"]
    else:
        setup = measure_setup()
        rounds = fixed_rounds(args.workload, args.seconds)
        result = run_worker(args.workload, args.seed, rounds, trace=False)
        runs = [result]
        metrics, notes = end_to_end(result, setup)
        values = {name: (v, END_TO_END_UNITS[name]) for name, v in metrics.items()}

    attempted = sum(len(r["latency_ns"]) for r in runs)
    failed = 0
    lines = []
    for r in runs:
        mismatches = golden_mismatches(r)
        # An op counts once, whether its oracle check, its digest or both failed.
        failed += len({f[0] for f in r["failures"]} | set(mismatches))
        lines += [f"  FAILED op {n}: {' '.join(argv)}: {why}" for n, argv, why in r["failures"][:20]]
        lines += [f"  GOLDEN op {n}: {why}" for n, why in list(mismatches.items())[:20]]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} ops, {failed} failed")
    for line in lines:
        print(line)
    for name, (value, unit) in values.items():
        print(f"  {name:52s} {value:14.6g} {unit}")
    print(f"  {'error_rate':52s} {failed / attempted:14.6g} ratio ({failed}/{attempted})")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
