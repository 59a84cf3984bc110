"""Seeded op generators for the three workloads.

An op is the argv list one `noetherline` invocation receives.  Ops come in
rounds: a round has a fixed shape (which commands, how many rows, which
formats) and the seed only picks the parameters inside narrow windows, or
the order, so two seeds cost about the same.  Round ``r`` depends on
``(workload, seed, r)`` alone, which lets a run build each round before
timing it and lets two runs replay the same ops.

Every generated op is valid: it either succeeds or exits with the code the
CLI documents for it (2 for ``e < 0``, 3 for an empty family).
"""

from __future__ import annotations

import math
import random

FORMATS = ("csv", "json", "text")
WORKLOADS = ("sweep", "records", "monomials")

# Nominal seconds of one round on the reference machine (see speed.py), as
# measured when the benchmark was defined.  A run of S seconds is the first
# `fixed_rounds(workload, S)` rounds: a count that depends on S alone, so
# that a faster or slower library runs the same ops and every seed runs the
# same mix.
ROUND_SECONDS = {"sweep": 5.5, "records": 0.075, "monomials": 4.6}


def fixed_rounds(workload: str, seconds: float) -> int:
    """Rounds in a run of ``seconds``: the fixed op list."""
    return max(1, math.ceil(seconds / ROUND_SECONDS[workload]))


# Rounds the traced run replays, once untraced and once traced: a third to
# a half of a 10-second run.
TRACE_ROUNDS = {"sweep": 1, "records": 60, "monomials": 1}

# Target rows of the three sweep invocations.  They are sized so that the
# three take about the same time today, which keeps the median latency of a
# run from jumping between op kinds.
SMALL_BAND_ROWS = 9000
LARGE_BAND_ROWS = 9300
D0_BAND_ROWS = 5000


def band_rows(d: int) -> int:
    """Rows `classify d d` emits: one per d0 in 0..3d/2."""
    return 3 * d // 2 + 1


def _rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{r}")


def _sweep_round(rng: random.Random, r: int, out: str) -> list[list[str]]:
    # Full band at small d: from a small d_min up to the target row count.
    d_min = rng.randint(0, 30)
    d_max, rows = d_min, band_rows(d_min)
    while rows < SMALL_BAND_ROWS:
        d_max += 1
        rows += band_rows(d_max)
    small = ["classify", str(d_min), str(d_max)]
    # A few full bands at d in the thousands.
    k = rng.choice((2, 3, 4))
    d = LARGE_BAND_ROWS * 2 // (3 * k) + rng.randint(-40, 40)
    large = ["classify", str(d), str(d + k - 1)]
    # A long --d0-restricted band: every d in range has the row (k0 <= 3a/2)
    # and every row exists (4 k0 >= b); the classes run from smooth through
    # terminal points to canonical curves.
    a = rng.randint(1500, 1600)
    b = a + D0_BAND_ROWS - 1
    k0 = rng.randint(-(-b // 4), 3 * a // 2)
    restricted = ["classify", str(a), str(b), "--d0", str(k0)]
    ops = []
    for i, cmd in enumerate((small, large, restricted)):
        fmt = FORMATS[(i + r) % 3]
        ops.append(["--format", fmt, "--output", out] + cmd)
    return ops


def _records_round(rng: random.Random) -> list[list[str]]:
    ops: list[list[str]] = []

    def add(cmd: list) -> None:
        ops.append([str(x) for x in cmd])

    # 24 inspects of nonempty families across the plane, 8 per format.
    for i in range(24):
        d = rng.randint(0, 400)
        d0 = rng.randint(-(-d // 4), 3 * d // 2)
        add(["inspect", d, d0])
    # Fixed shares of documented failures: two empty families (exit 3) and
    # two parameter pairs with e < 0 (exit 2).
    for _ in range(2):
        d = rng.randint(4, 400)
        add(["inspect", d, rng.randint(0, (d - 1) // 4)])
    d = rng.randint(0, 400)
    add(["inspect", d, 3 * d // 2 + rng.randint(1, 50)])
    d = rng.randint(0, 400)
    add(["nef", d, 3 * d // 2 + rng.randint(1, 50), 1, -2])
    for _ in range(2):
        add(["flip", rng.randint(2, 4)])
    for _ in range(2):
        d = rng.randint(0, 400)
        add(["nef", d, rng.randint(0, 3 * d // 2), rng.randint(-2, 5), rng.randint(-30, 30)])
    # One bundle with N >= 0 (the Euler characteristics are computed), one
    # with any sign of N.
    e1 = rng.randint(0, 60)
    add(["bundle", rng.randint(0, 5), e1, rng.randint(-(-2 * e1 // 3), 60)])
    add(["bundle", rng.randint(0, 5), rng.randint(0, 60), rng.randint(0, 60)])
    for _ in range(2):
        add(["moduli", 3 * rng.randint(3, 300) - 2])
    a = rng.randint(0, 300)
    add(["kobayashi", a, rng.randint(0, a)])
    add(["monomials", 10])
    for _ in range(2):
        d = rng.randint(0, 2000)
        add(["classify", d, d, "--d0", rng.randint(0, 3 * d // 2)])
    fmts = [FORMATS[i % 3] for i in range(len(ops))]
    rng.shuffle(fmts)
    out = [["--format", f] + op for f, op in zip(fmts, ops)]
    rng.shuffle(out)
    return out


# A round lists the fifty degrees 3, 6, ..., 150 once each, the format
# rotating with the degree, and degree 84 ten times more, as csv; the seed
# picks the order.  Every seed thus fills the enumeration cache with the same
# degrees and has the same ops around the median: with seeded degrees, peak
# RSS and the median latency moved by 13-17% from seed to seed, since a
# listing's cost grows as the cube of its degree.  The repeats hit the cache
# within the round, and their 30 near-equal latencies in a run straddle the
# median, about as many ops being faster as slower, so the median latency is
# one of theirs and not a single op in a steep part of the distribution.
# Later rounds repeat the first in another order: they hit the cache
# throughout, and their outputs are checked by digest.
MONOMIAL_DEGREES = tuple(range(3, 151, 3))
MEDIAN_DEGREE = 84


def _monomials_round(rng: random.Random) -> list[list[str]]:
    ops = [
        ["--format", FORMATS[m // 3 % 3], "monomials", str(m)]
        for m in MONOMIAL_DEGREES
    ]
    ops += [["--format", "csv", "monomials", str(MEDIAN_DEGREE)] for _ in range(10)]
    rng.shuffle(ops)
    return ops


def round_ops(workload: str, seed: int, r: int, out: str) -> list[list[str]]:
    """The argv lists of round ``r``; ``out`` is the sweep's --output file."""
    rng = _rng(workload, seed, r)
    if workload == "sweep":
        return _sweep_round(rng, r, out)
    if workload == "records":
        return _records_round(rng)
    if workload == "monomials":
        return _monomials_round(rng)
    raise ValueError(f"unknown workload {workload!r}")
