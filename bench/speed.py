"""A probe that tracks the speed of a shared machine while ops run.

The machines this benchmark runs on are shared with other work, and their
speed drifts by tens of percent within a second: on the 2-core reference
machine one op took 0.68 s and 1.17 s a few seconds apart, in CPU time as in
wall time.  Raw times of two runs, or of two commits, then differ by more
than the changes the benchmark must resolve.

So while a worker runs, a timer signal interrupts it every `INTERVAL_S` and
runs a fixed kernel of about a millisecond.  Each op's time is taken without
the kernel runs inside it and scaled by ``NOMINAL_NS / median kernel time``
over the samples taken during the op and just around it: the time the op
would have taken on a machine where the kernel takes ``NOMINAL_NS``.  The
kernel does what the library spends its time on (hashing and comparing
small frozen dataclasses, frozensets, `Fraction`, dicts, `json`), but it
runs no noetherline code.  It shares the worker's heap and caches, though:
holding 159 MiB of live frozen dataclasses did not move its median beyond
the machine's drift (see README.md).  Raw times are reported next to the
scaled ones.

Import time is scaled the same way by `class_kernel`, which creates frozen
dataclasses as the library's modules do when they are imported; on this
machine it tracks the import's slowdowns much more closely than `kernel`
does (see README.md).
"""

from __future__ import annotations

import gc
import json
import signal
import time
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, make_dataclass
from fractions import Fraction
from statistics import median

INTERVAL_S = 0.025

# About the kernel's time on the reference machine when it runs at full
# speed (Python 3.11); any fixed value works, it only sets the scale.
NOMINAL_NS = 700_000

# About `class_kernel`'s time on the reference machine at full speed.
CLASS_NOMINAL_NS = 4_400_000


@dataclass(frozen=True, slots=True)
class _Mono:
    a0: int
    a1: int
    a2: int
    a5: int


@dataclass(frozen=True, slots=True)
class _Local:
    x: int
    y: int
    z: int


_MONOS = tuple(
    _Mono(10 - 5 * a5 - 2 * a2 - a1, a1, a2, a5)
    for a5 in range(3)
    for a2 in range((10 - 5 * a5) // 2 + 1)
    for a1 in range(10 - 5 * a5 - 2 * a2 + 1)
)
_ENDS = (_Mono(0, 0, 0, 2), _Mono(0, 0, 5, 0))
_PAIRS = ((40, 33), (12, 7), (300, 250), (9, 5), (64, 56), (7, 2), (150, 149), (31, 20))


def kernel() -> int:
    """Fixed work of about a millisecond; the result defeats elision."""
    n = 0
    for d, d0 in _PAIRS:
        support = [
            m for m in _MONOS
            if m in _ENDS or (
                m.a5 == 0 and m.a2 != 5
                and m.a0 * d0 + m.a1 * (3 * d - d0) + 2 * m.a2 * d - 10 * d >= 0
            )
        ]
        local = frozenset(_Local(m.a1, m.a2, 0) for m in support)
        k3 = Fraction(4 * d - 6) + Fraction(d, 2 * d0 + 1)
        record = {
            "d": d, "d0": d0, "count": len(local),
            "K3": {"num": k3.numerator, "den": k3.denominator},
            "support": [f"x0^{m.a0} x1^{m.a1} y^{m.a2}" for m in support],
        }
        n += len(json.dumps(record))
    return n


_FIELDS = [("a", int), ("b", int), ("c", Fraction), ("d", tuple)]


def class_kernel() -> int:
    """Creates six frozen, slotted dataclasses: a few milliseconds of the
    work that importing the library's modules does."""
    return sum(
        len(make_dataclass(f"C{i}", _FIELDS, frozen=True, slots=True).__slots__)
        for i in range(6)
    )


class Probe:
    """Runs `kernel` on a timer signal and keeps (start, duration) samples."""

    def __init__(self) -> None:
        self.starts = array("q")
        self.durations = array("q")
        self._saved = None

    def _sample(self, signum, frame) -> None:
        # A cyclic collection started by the kernel's allocations would time
        # the program's heap, not the machine.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter_ns()
        kernel()
        t1 = time.perf_counter_ns()
        if collecting:
            gc.enable()
        self.starts.append(t0)
        self.durations.append(t1 - t0)

    def __enter__(self) -> "Probe":
        self._sample(None, None)
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def inside(self, t0: int, t1: int) -> int:
        """Kernel nanoseconds spent between t0 and t1."""
        lo, hi = bisect_left(self.starts, t0), bisect_right(self.starts, t1)
        return sum(self.durations[lo:hi])

    def scale(self, t0: int, t1: int) -> float:
        """NOMINAL_NS over the median kernel time of the samples taken from
        four intervals before t0 to four intervals after t1, or of the
        nearest samples if there are none (there is one from the start)."""
        margin = int(4 * INTERVAL_S * 1e9)
        lo = bisect_left(self.starts, t0 - margin)
        hi = bisect_right(self.starts, t1 + margin)
        if lo == hi:
            lo, hi = max(0, lo - 1), min(len(self.starts), lo + 1)
        return NOMINAL_NS / median(self.durations[lo:hi])
