"""Spans around the library's public functions, recorded from outside.

`Tracer.install` wraps each listed function and rebinds the wrapper at every
place the function is looked up: the defining module, every module that
took it with a `from` import, and the package namespace.  (The package
attribute `noetherline.invariants` is the function, not the module, so
modules are always reached through `sys.modules`.)  The parser's
`parse_args` is looked up on the `ArgumentParser` class and is wrapped there.

Each call appends one span (name, parent span, op id, start, end) to arrays
kept in memory; `write` stores them at the end of the run.  A span's self
time is its duration minus the durations of its direct children and of the
speed probe's pauses inside it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from array import array
from bisect import bisect_right

PACKAGE = "noetherline"

# The public functions timed per layer, by module.
LAYER_FUNCTIONS = {
    "toric": (
        "h0_class", "quartic_intersection", "curve_intersection",
        "is_nef", "is_ample", "weight_matrix",
    ),
    "linear_system": (
        "enumerate_monomials", "normal_form_support", "coefficient_profile",
        "family_dimension", "base_locus",
    ),
    "singularities": ("classify_general_member", "local_support_at_s0"),
    "invariants": (
        "invariants", "plurigenus", "flip_analysis", "moduli_components",
        "kobayashi_translate", "canonical_ring_rank",
    ),
    "bundles": ("chi_invariants",),
}

# CLI phases and the cli functions whose spans make them up.  `cli.serialize`
# is every `cmd_*` handler, found when the tracer is installed; `cli.write`
# is `main`, whose self time is what the other phases leave of an op.
CLI_PHASES = {
    "cli.parse": ("build_parser", "parse_args"),
    "cli.record": ("classify_record", "inspect_record", "flip_record"),
    "cli.serialize": (),
    "cli.write": ("main",),
}

MODULES = (*LAYER_FUNCTIONS, "cli")

_CLASSIFY = "singularities.classify_general_member"
_CLASSIFY_RECORD = "cli.classify_record"


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("q")
        self.end = array("q")
        self.current_op = -1
        self.existent_rows: set[int] = set()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, on_result=None):
        nid = len(self.names)
        self.names.append(name)
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end
        stack, clock, tracer = self._stack, time.perf_counter_ns, self

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.current_op)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(i, result)
            return result

        return traced

    def _rebind(self, orig, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def install(self) -> None:
        """Wrap every listed function; `uninstall` restores the originals."""
        cli = sys.modules[f"{PACKAGE}.cli"]
        targets = [
            (sys.modules[f"{PACKAGE}.{mod}"], fn, f"{mod}.{fn}")
            for mod, fns in LAYER_FUNCTIONS.items()
            for fn in fns
        ]
        handlers = sorted(n for n in vars(cli) if n.startswith("cmd_"))
        for fns in (*CLI_PHASES.values(), handlers):
            targets += [(cli, fn, f"cli.{fn}") for fn in fns if fn != "parse_args"]

        def mark_existent(i, record) -> None:
            if record["class"] != "not_existent":
                self.existent_rows.add(i)

        for mod, fn, name in targets:
            orig = getattr(mod, fn)
            hook = mark_existent if name == _CLASSIFY_RECORD else None
            self._rebind(orig, self._wrap(orig, name, hook))
        orig = argparse.ArgumentParser.parse_args
        argparse.ArgumentParser.parse_args = self._wrap(orig, "cli.parse_args")
        self._undo.append((argparse.ArgumentParser, "parse_args", orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def self_times(self) -> list[int]:
        """Per span: duration minus the durations of its direct children."""
        starts, ends, parents = self.start, self.end, self.parent
        own = [e - s for s, e in zip(starts, ends)]
        for i, p in enumerate(parents):
            if p >= 0:
                own[p] -= ends[i] - starts[i]
        return own

    def summary(self, pauses=()) -> dict:
        """Calls and self time per span name, traced wall time, and the
        number of classifications per existent classify row.

        ``pauses`` are (start, duration) intervals the program did not run,
        the speed probe's kernel runs (see speed.py); each one is taken out
        of the innermost span around it and out of the wall time.
        """
        own = self.self_times()
        starts, ends, parents = self.start, self.end, self.parent
        wall = sum(e - s for s, e, p in zip(starts, ends, parents) if p < 0)
        for t0, duration in pauses:
            # The innermost span around the pause is the last one started
            # before it or an ancestor of that one; a span and a pause never
            # overlap partly, since the pause runs between two bytecodes.
            i = bisect_right(starts, t0) - 1
            while i >= 0 and ends[i] < t0 + duration:
                i = parents[i]
            if i >= 0:
                own[i] -= duration
                wall -= duration
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for nid, t in zip(self.name, own):
            calls[nid] += 1
            self_ns[nid] += t
        # Classifications made under each classify_record span.
        per_record: dict[int, int] = {}
        classify_id = self.names.index(_CLASSIFY)
        record_id = self.names.index(_CLASSIFY_RECORD)
        for i, nid in enumerate(self.name):
            if nid != classify_id:
                continue
            j = self.parent[i]
            while j >= 0 and self.name[j] != record_id:
                j = self.parent[j]
            if j >= 0:
                per_record[j] = per_record.get(j, 0) + 1
        rows = self.existent_rows
        return {
            "wall_ns": wall,
            "min_self_ns": min(own, default=0),
            "calls": dict(zip(self.names, calls)),
            "self_ns": dict(zip(self.names, self_ns)),
            "classify_per_row": (
                sum(per_record.get(i, 0) for i in rows) / len(rows) if rows else 0.0
            ),
        }

    def write(self, path: str) -> None:
        """Store the spans: one JSON header line, then the five arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [
                [field, getattr(self, field).typecode]
                for field in ("name", "parent", "op", "start", "end")
            ],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in header["arrays"]:
                getattr(self, field).tofile(fh)


def layer_metrics(summary: dict, cache_info, scale: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, by name, as (value, unit).

    Self times are multiplied by ``scale``, the run's machine-speed factor
    (see speed.py); shares and counts are not.
    """
    calls, self_ns = summary["calls"], summary["self_ns"]
    to_ms = scale / 1e6
    wall = summary["wall_ns"] or 1
    out: dict[str, tuple[float, str]] = {}
    for mod, fns in LAYER_FUNCTIONS.items():
        for fn in fns:
            name = f"{mod}.{fn}"
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
            out[f"{name}.self_ms"] = (self_ns.get(name, 0) * to_ms, "ms")
    handlers = [n for n in calls if n.startswith("cli.cmd_")]
    for phase, fns in CLI_PHASES.items():
        names = [f"cli.{fn}" for fn in fns] if fns else handlers
        out[f"{phase}.calls"] = (sum(calls.get(n, 0) for n in names), "count")
        out[f"{phase}.self_ms"] = (sum(self_ns.get(n, 0) for n in names) * to_ms, "ms")
    for mod in MODULES:
        own = sum(t for n, t in self_ns.items() if n.split(".", 1)[0] == mod)
        out[f"{mod}.self_share"] = (own / wall, "ratio")
    out["singularities.classify_per_row"] = (summary["classify_per_row"], "calls/row")
    hits, misses, size = cache_info
    lookups = hits + misses
    out["linear_system.enumerate_monomials.cache_hit_ratio"] = (
        hits / lookups if lookups else 0.0, "ratio",
    )
    out["linear_system.enumerate_monomials.cache_size"] = (size, "entries")
    return out
