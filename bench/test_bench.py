"""Checks of the benchmark itself, on short op lists.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import json
import sys
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import tracer  # noqa: E402
from run import (  # noqa: E402
    DEFAULT_SEED, END_TO_END_UNITS, TRACE_GAP_SHARE, golden_mismatches, run_worker, trace_problem,
)
from workloads import round_ops  # noqa: E402

# One round of the records workload: it reaches every listed function.
ROUND = len(round_ops("records", 7, 0, "OUT"))


@pytest.fixture(scope="module")
def traced_records():
    return [run_worker("records", 7, 1, trace=True) for _ in range(2)]


def _read_spans(path: Path) -> dict[str, array]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        spans = {}
        for field, code in header["arrays"]:
            spans[field] = array(code)
            spans[field].fromfile(fh, header["spans"])
    return spans


def test_every_listed_function_is_called(traced_records):
    metrics = traced_records[0]["trace"]["metrics"]
    for mod, fns in tracer.LAYER_FUNCTIONS.items():
        for fn in fns:
            assert metrics[f"{mod}.{fn}.calls"][0] >= 1, f"{mod}.{fn}: no calls, stale binding?"
    for phase in tracer.CLI_PHASES:
        assert metrics[f"{phase}.calls"][0] >= 1, phase
    assert metrics["singularities.classify_per_row"][0] > 0


def test_monomials_workload_reaches_enumeration():
    result = run_worker("monomials", 7, 1, trace=True)
    metrics = result["trace"]["metrics"]
    assert metrics["linear_system.enumerate_monomials.calls"][0] >= 50
    assert metrics["invariants.canonical_ring_rank.calls"][0] == 60
    assert metrics["linear_system.enumerate_monomials.cache_size"][0] >= 1


def test_self_times_are_nonnegative_and_cover_the_timed_ops(traced_records):
    traced = traced_records[-1]  # the spans file holds the last run
    trace = traced["trace"]
    spans = _read_spans(ROOT / trace["spans_file"])
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    assert min(own) >= 0
    # The reported self times also leave out the speed probe's pauses.
    assert trace["min_self_ns"] >= 0
    # Every op is one root span: `main`.
    assert sum(1 for p in parent if p < 0) == ROUND
    # The spans account for the worker's own timing of the ops, taken outside
    # the tracer, up to the flush and bookkeeping around `main`.
    timed = sum(traced["latency_ns"])
    assert 0 <= timed - trace["wall_ns"] <= TRACE_GAP_SHARE * timed
    assert trace_problem(traced) is None


def test_trace_check_catches_lost_time(traced_records):
    traced = traced_records[-1]
    lost = {**traced, "trace": {**traced["trace"]}}
    lost["trace"]["wall_ns"] = int(0.9 * sum(traced["latency_ns"]))
    assert "gap" in trace_problem(lost)
    extra = {**traced, "trace": {**traced["trace"]}}
    extra["trace"]["wall_ns"] = sum(traced["latency_ns"]) + 1
    assert "gap" in trace_problem(extra)


def test_two_runs_repeat_digests_and_call_counts(traced_records):
    first, second = traced_records
    assert first["failures"] == second["failures"] == []
    assert first["ops"] == second["ops"]
    assert first["trace"]["calls"] == second["trace"]["calls"]


def test_default_seed_matches_golden_digests():
    result = run_worker("records", DEFAULT_SEED, 1, trace=False)
    assert result["failures"] == []
    assert len(result["ops"]) == ROUND
    assert golden_mismatches(result) == {}


def _output(argv: list[str], path: Path) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from noetherline.cli import main

    with open(path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        return main(argv)


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_oracle_accepts_library_output_and_rejects_a_changed_byte(tmp_path, fmt):
    path = tmp_path / "out"
    for argv, old, new in (
        (["--format", fmt, "classify", "0", "12"], "terminal_points", "smooth"),
        (["--format", fmt, "inspect", "40", "33"], "92", "93"),
        (["--format", fmt, "monomials", "12"], "y^2", "y^3"),
    ):
        code = _output(argv, path)
        assert oracle.check(argv, code, str(path)) > 0
        text = path.read_text(encoding="utf-8")
        assert old in text, (argv, old)
        path.write_text(text.replace(old, new, 1), encoding="utf-8")
        with pytest.raises(oracle.Mismatch):
            oracle.check(argv, code, str(path))
        with pytest.raises(oracle.Mismatch):
            oracle.check(argv, 1 - code, str(path))


def test_oracle_rejects_a_missing_row(tmp_path):
    path = tmp_path / "out"
    argv = ["--format", "csv", "classify", "3", "6"]
    code = _output(argv, path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")
    with pytest.raises(oracle.Mismatch):
        oracle.check(argv, code, str(path))


def test_ring_rank_oracle_is_the_hilbert_function():
    # 1, 2 in degrees 0, 1, then 3 + n(n-1)/2: one relation in degree ten.
    assert [oracle.ring_rank(n) for n in range(4)] == [1, 2, 4, 6]
    assert oracle.ring_rank(10) == oracle.monomial_count(10) - 1 == 48


def test_benchmark_json_names_every_printed_metric(traced_records):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    printed = {name: unit for name, (_, unit) in traced_records[0]["trace"]["metrics"].items()}
    printed["trace.overhead_ratio"] = "ratio"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == printed
