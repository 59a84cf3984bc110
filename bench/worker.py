"""Run one workload's ops in this fresh process and write the raw results.

    python3 bench/worker.py --workload W --seed N --rounds R \
        --trace 0|1 --out RESULT.json

The ops run as a closed loop with one caller: `noetherline.cli.main(argv)`
is called in process, each op after the previous one returned.  The run is
the first R rounds of ops, however fast the library is, so that two runs
of the same R time the same ops.  Op times exclude the speed probe's kernel
runs (speed.py).  Each op's round is built before the op is timed; each op
is checked by `oracle` after its timer stops.  Standard output goes to a
file, as it would for a user who redirects it, and the flush is timed with
the op.

`bench/run.py` starts this script and turns its results into metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"

sys.path.insert(0, str(BENCH))
import oracle  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

# An output this large that repeats, byte for byte, the output of the same
# argv checked earlier in the run is counted with that check's result.
RECHECK_BYTES = 1 << 16


def import_cli():
    """Import `noetherline.cli` from this checkout's `src`, nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import noetherline.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"noetherline imported from {cli.__file__}, not {src}")
    return cli


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class _Runner:
    """Runs ops one after another and keeps what each one did."""

    def __init__(self, cli, probe: speed.Probe, tracer, work: Path) -> None:
        self.cli, self.probe, self.tracer = cli, probe, tracer
        self.stdout_path, self.out_path = work / "stdout", work / "output"
        self.out = open(self.stdout_path, "w", encoding="utf-8")
        self.windows, self.latency, self.rows = [], [], []
        self.ops, self.failures = [], []
        self.verified: dict[tuple, int] = {}

    def op(self, argv: list[str]) -> None:
        n, out, probe = len(self.latency), self.out, self.probe
        out.seek(0)
        out.truncate()
        if self.tracer:
            self.tracer.current_op = n
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, io.StringIO()
        error = None
        t0 = time.perf_counter_ns()
        try:
            code = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # main must return an exit code
            code, error = None, f"raised {exc!r}"
        finally:
            out.flush()
            t1 = time.perf_counter_ns()
            sys.stdout, sys.stderr = saved
        self.windows.append((t0, t1))
        self.latency.append(t1 - t0 - probe.inside(t0, t1))
        self._check(n, argv, code, error)

    def _check(self, n: int, argv: list[str], code, error) -> None:
        produced = self.out_path if "--output" in argv else self.stdout_path
        produced.touch()  # an output file never written reads as empty
        large = produced.stat().st_size > RECHECK_BYTES
        digest = _digest(produced)
        key = (tuple(argv), code, digest)
        try:
            if error:
                raise oracle.Mismatch(error)
            if large and key in self.verified:
                self.rows.append(self.verified[key])
            else:
                self.rows.append(oracle.check(argv, code, str(produced)))
                if large:
                    self.verified[key] = self.rows[-1]
        except oracle.Mismatch as exc:
            self.rows.append(0)
            self.failures.append([n, argv, str(exc)])
        shown = [a.replace(str(self.out_path), "OUT") for a in argv]
        self.ops.append([" ".join(shown), code, digest])
        if produced == self.out_path:
            produced.unlink()


def run(workload: str, seed: int, rounds: int, trace: bool) -> dict:
    """Run the first ``rounds`` rounds of the workload's ops."""
    cli = import_cli()
    enumerate_monomials = sys.modules["noetherline.linear_system"].enumerate_monomials
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    work = WORK / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    out_arg = str(work / "output")
    with speed.Probe() as probe:
        runner = _Runner(cli, probe, tracer, work)
        with runner.out:
            for r in range(rounds):
                for argv in workloads.round_ops(workload, seed, r, out_arg):
                    runner.op(argv)
    latency = runner.latency
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = [probe.scale(t0, t1) for t0, t1 in runner.windows]
    result = {
        "workload": workload,
        "seed": seed,
        "latency_ns": latency,
        "scale": scale,
        "probe_samples": len(probe.durations),
        "rows": runner.rows,
        "ops": runner.ops,
        "failures": runner.failures,
        "peak_rss_kib": peak_kib,
    }
    if tracer:
        tracer.uninstall()
        from tracer import layer_metrics

        cache_info = getattr(enumerate_monomials, "cache_info", None)
        info = cache_info() if cache_info else None
        summary = tracer.summary(zip(probe.starts, probe.durations))
        result["trace"] = {
            "wall_ns": summary["wall_ns"],
            "min_self_ns": summary["min_self_ns"],
            "calls": summary["calls"],
            "metrics": layer_metrics(
                summary,
                (info.hits, info.misses, info.currsize) if info else (0, 0, 0),
                sum(t * f for t, f in zip(latency, scale)) / sum(latency),
            ),
        }
        spans = WORK / f"spans-{workload}-seed{seed}.bin"
        tracer.write(str(spans))
        result["trace"]["spans_file"] = str(spans.relative_to(ROOT))
    shutil.rmtree(work)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.rounds, bool(args.trace))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
