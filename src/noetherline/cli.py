"""Command-line front end.

Subcommands: classify (parameter sweep), inspect (single model), flip,
moduli, kobayashi, bundle, monomials, nef.  Output formats: aligned text,
JSON (one object per row for classify, one object otherwise) and CSV.
Rationals are printed as "p/q" in lowest terms, never as decimals; JSON
encodes them as {"num": p, "den": q}.  Output is byte-identical across runs.

Every command is one row of `COMMANDS`: a record builder, which computes
the command's record (a dict of JSON values) from the parsed arguments, and
a text renderer, which reads only that record.  One emitter, `emit`, writes
a record as indented JSON, as CSV (a flat `field,value` listing, or the rows
that classify and monomials supply) or as the renderer's text.  Indented
JSON comes from this module's own writer, `_json_text`, which writes the
same bytes as the standard library's `json.dumps` with an indent of 2
without falling back to that encoder's pure-Python path; each container
writes its str and int items in place, with no call per scalar.

Listings are written from one `%` template per row shape, in runs.  A JSON
list of 12 dicts or more whose first item holds only exact str and int
values makes one template of that item's keys (`_json_shape`); a run of up
to 256 items is checked a column at a time (the same keys in the same
order, one exact type per column) and written as the template over its
columns, and a run that fails recurses item by item.  A dict record's list
of more than 256 items is written a run at a time (`_json_lines`), so a
long listing is never one string.  CSV rows, the monomials table and the
flat listing alike, go through `pieces.csv_lines`: a run of rows is one
`%s` template where its cells are exact ints and strs of one width and its
text proves that no cell needs quoting, and `csv_line` per row otherwise.
The monomials come from the cache of `linear_system.enumerate_monomials`,
which fills a degree 4096 monomials at a time, setting each field a column
at a time through its slot rather than running the frozen dataclass
`__init__` per monomial.

classify walks each line of its sweep (one d over d0, or the --d0 band over
d) piece by piece (`singularities.row_pieces`), and a `pieces.Piece` is the
unit of its output: the first record with each int that changes marked, the
row count and the column of values of each mark.  `classify_record` derives
the first two rows and the last row of a piece; the last row as the writers
write it must equal the derived one, and the order test must agree with
4*d0 >= d on every support pattern the piece crosses, before any row of the
piece is written.  A piece ends only where a field of its rows can change,
so the 3001 rows of d = 2000 are 7 pieces and cost 15 derivations.
`pieces` writes each format from one `%` template per piece, at most 256
rows to a string; csv and compact JSON stream as the pieces are computed,
and the text table makes two passes over the pieces, the first keeping the
pieces, not their rows, to size the columns, the second writing.

Exit codes: 0 success, 2 usage or domain error (an --output file that
cannot be written included), 3 mathematically empty result (the requested
family has no member with canonical singularities).  `classify` takes
0 <= d_min <= d_max <= 10000 and --d0 >= 0, and `monomials` 0 <= m <= 300 (a
listing costs time and memory like m^3).  Arguments are checked before the
output file is opened, so a usage error leaves no file behind.
When the reader of standard output goes away (``classify ... | head``),
writing stops without a traceback and the exit code is the command's own
(0 for classify).

`main(argv)` can be called repeatedly in one process: the parser is built
once, and every call gets a fresh namespace and its own diagnostics.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import itertools
import operator
import os
import sys
import warnings
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable

from .bundles import FibrationData, chi_invariants
from .invariants import (
    canonical_ring_rank,
    flip_analysis,
    invariants,
    kobayashi_params,
    kobayashi_translate,
    moduli_components,
)
from .linear_system import (
    base_locus,
    coefficient_profile,
    enumerate_monomials,
    family_dimension,
    normal_form_support,
)
from .pieces import RUN, Piece, csv_line, csv_lines, write_csv, write_json, write_text
from .singularities import (
    EmptyFamilyError,
    classify_general_member,
    order_test,
    row_pieces,
    support_breaks,
)
from .toric import (
    BundleParams,
    CrossCheckError,
    DivisorClass,
    SpecialCurve,
    curve_intersection,
    coordinate_divisor_class,
    is_ample,
    is_nef,
    quartic_intersection,
    weight_matrix,
)

__all__ = ["main", "run"]

# ---------------------------------------------------------------------------
# serialization helpers

def _frac(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator}


def _unfrac(q: dict) -> Fraction:
    return Fraction(q["num"], q["den"])


def _scalar(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _yesno(value) -> str:
    if value is None:
        return "-"
    return "yes" if value else "no"


def _flatten(prefix: str, value, rows: list[list[str]]) -> list[list[str]]:
    """Append a [field, value] row per scalar leaf of a dict or list;
    only nested dicts and lists recurse."""
    is_dict = isinstance(value, dict)
    for key, sub in value.items() if is_dict else enumerate(value):
        if is_dict:
            field = f"{prefix}.{key}" if prefix else key
        else:
            field = f"{prefix}[{key}]"
        if isinstance(sub, (dict, list)):
            _flatten(field, sub, rows)
        else:
            rows.append([field, _scalar(sub)])
    return rows


def _json_text(value, indent: str = "\n") -> str:
    """`value` as indented JSON, byte for byte what the standard library's
    encoder writes with an indent of 2, for the types the record builders
    make: dict with str keys, list, str, int, bool and None; any other type
    raises TypeError.  Strings go through the library's C quoting and each
    container is one join; a container writes its str and int items in place
    and recurses only for the others, and a list of dicts of one shape is
    written from one template (`_json_shape`).  `indent` is the newline and
    indentation of the line `value` starts on."""
    kind = type(value)
    if kind is str:
        return _json_str(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        parts = []
        for key, item in value.items():
            parts += ",", inner, _json_str(key), ": ", (
                _json_str(item) if (t := type(item)) is str
                else int.__repr__(item) if t is int
                else _json_text(item, inner)
            )
        parts[0] = "{"  # the first item's comma
        parts += indent, "}"
        return "".join(parts)
    if kind is list:
        if not value:
            return "[]"
        inner = indent + "  "
        if len(value) >= _TEMPLATE_MIN and (shape := _json_shape(value, inner)):
            return "".join(_json_runs(value, shape, indent))
        return "[" + inner + ("," + inner).join([
            _json_str(item) if (t := type(item)) is str
            else int.__repr__(item) if t is int
            else _json_text(item, inner)
            for item in value
        ]) + indent + "]"
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    raise TypeError(f"{kind.__name__} is not a JSON value of a record")


def _json_lines(record) -> Iterable[str]:
    """`_json_text(record)` and its newline, in parts: a list value of a
    dict record that has more than `RUN` items and a template is written a
    run of items at a time (`_json_runs`), and the text between such lists
    is one string, so a long listing is never one string."""
    if type(record) is not dict or not record:
        yield _json_text(record) + "\n"
        return
    parts, sep = [], "{"
    for key, item in record.items():
        parts += sep, "\n  ", _json_str(key), ": "
        sep = ","
        if type(item) is list and len(item) > RUN and (shape := _json_shape(item, "\n    ")):
            yield "".join(parts)
            parts = []
            yield from _json_runs(item, shape, "\n  ")
        else:
            parts.append(_json_text(item, "\n  "))
    parts.append("\n}\n")
    yield "".join(parts)


# Lists shorter than this recurse for every item: a template and its checks
# cost more than the items they would write.
_TEMPLATE_MIN = 12


def _json_shape(items: list, indent: str) -> tuple | None:
    """(template, keys, value types) of the items of a nonempty list whose
    items start at `indent`, made from its first item when that is a
    nonempty dict of exact int and str values; otherwise None.  Keys are
    quoted once, with any `%` doubled; an int is written by `%d`, a str by
    `%s` of its quoted text."""
    first = items[0]
    if type(first) is not dict or not first:
        return None
    types = tuple(map(type, first.values()))
    if not set(types) <= {int, str}:
        return None
    inner = indent + "  "
    slots = [
        inner + _json_str(key).replace("%", "%%") + (": %d" if t is int else ": %s")
        for key, t in zip(first, types)
    ]
    return "{" + ",".join(slots) + indent + "}", tuple(first), types


def _json_runs(items: list, shape: tuple, indent: str) -> Iterable[str]:
    """The indented JSON of a list with a template (`_json_shape`), a run of
    at most `RUN` items at a time.  Where every item of a run is a dict of
    the template's keys, in order, and value types, checked a column at a
    time, the run is the template over its columns, each str column quoted
    at once; otherwise every item of the run recurses."""
    template, keys, types = shape
    inner = indent + "  "
    sep = "[" + inner
    for start in range(0, len(items), RUN):
        run = items[start:start + RUN]
        texts = None
        if set(map(type, run)) == {dict} and set(map(tuple, run)) == {keys}:
            columns = list(zip(*map(dict.values, run)))
            if all(set(map(type, column)) == {t} for column, t in zip(columns, types)):
                columns = [c if t is int else map(_json_str, c) for c, t in zip(columns, types)]
                texts = map(template.__mod__, zip(*columns))
        if texts is None:
            texts = [_json_text(item, inner) for item in run]
        yield sep + ("," + inner).join(texts)
        sep = "," + inner
    yield indent + "]"


def emit(fmt: str, record, render, table=None) -> Iterable[str]:
    """The lines of a record: indented json, csv (a flat `field,value`
    listing, or the header and rows that `table` makes of the record) or the
    text that `render` makes of it.  A long list is written a run of items
    or rows at a time (`_json_lines`, `pieces.csv_lines`)."""
    if fmt == "json":
        return _json_lines(record)
    if fmt == "csv":
        header, rows = table(record) if table else (["field", "value"], _flatten("", record, []))
        return itertools.chain((csv_line(header),), csv_lines(rows))
    return render(record)


# ---------------------------------------------------------------------------
# record builders

def classify_record(params: BundleParams) -> dict:
    """The classify row of one model, derived: its classification, then the
    invariants of an existent member."""
    cls = classify_general_member(params)
    record = {
        "d": params.d,
        "d0": params.d0,
        "e": params.e,
        "class": cls.kind.value,
        "count": cls.count,
    }
    if cls.exists:
        inv = invariants(params, cls)
        record.update(
            pg=inv.pg,
            K3=_frac(inv.K3),
            image=inv.canonical_image.label(),
            K_ample=inv.K_ample,
            K_nef=inv.K_nef,
            noether=inv.on_noether_line,
            mds=inv.mori_dream_general,
        )
    else:
        record.update(
            pg=None, K3=None, image=None, K_ample=None, K_nef=None,
            noether=None, mds=None,
        )
    return record


def _segment_records(start: tuple[int, int], step: tuple[int, int], count: int):
    """The pieces of the rows start + i*step, 0 <= i < count (`row_pieces`).
    `classify_record` derives the first two rows and the last row of a
    piece, and `order_test` runs on the first row of every other support
    pattern the piece crosses (`support_breaks`).  A piece is yielded only
    after those checks pass and its last row, read from the marks and
    columns that the writers write, equals the derived one."""
    (d, d0), (sd, sd0) = start, step
    # A line of three rows or fewer is all anchors.
    breaks = support_breaks(start, step, count) if count > 3 else []
    for lo, hi in row_pieces(start, step, count):
        p0 = BundleParams(d + lo * sd, d0 + lo * sd0)
        first = classify_record(p0)
        if hi - lo == 1:
            yield Piece(first)
            continue
        p1 = BundleParams(p0.d + sd, p0.d0 + sd0)
        piece = Piece.from_rows(first, classify_record(p1), p0, p1, hi - lo)
        n = hi - lo - 1  # the index of the last row
        if n > 1:
            last = classify_record(BundleParams(p0.d + n * sd, p0.d0 + n * sd0))
            if piece.row(n) != last:
                raise CrossCheckError(
                    f"{p0.label()} to X({last['d']};{last['d0']}): the advanced "
                    "last row differs from the derived one"
                )
            # The patterns that start after row lo + 1, but for the one that
            # holds on the last row.
            inner = breaks[bisect.bisect_right(breaks, lo + 1):bisect.bisect_left(breaks, hi)]
            for i in inner[:-1]:
                order_test(BundleParams(d + i * sd, d0 + i * sd0))
        yield piece


def _classify_records(d_min: int, d_max: int, d0: int | None):
    """The sweep's pieces in order: the band of each d over d0 or, with
    --d0, the band of that d0 over d."""
    if d0 is None:
        for d in range(d_min, d_max + 1):
            yield from _segment_records((d, 0), (0, 1), 3 * d // 2 + 1)
    elif d0 >= 0:
        d = max(d_min, -(-2 * d0 // 3))  # the least d with d0 <= 3d/2
        yield from _segment_records((d, d0), (1, 0), max(0, d_max + 1 - d))


def flip_record(d: int) -> dict:
    rec = flip_analysis(d)
    return {
        "d": rec.params.d,
        "d0": rec.params.d0,
        "K_dot_s0": rec.K_dot_s0,
        "pg": rec.pg,
        "P2": rec.P2,
        "chi_O": rec.chi_O,
        "basket": [{"r": q.r, "b": q.b, "label": q.label()} for q in rec.basket],
        "K3_plus": _frac(rec.K3_plus),
        "nef_cone_Fplus": [{"a": c.a, "b": c.b} for c in rec.nef_cone_Fplus],
    }


def inspect_record(params: BundleParams) -> dict:
    cls = classify_general_member(params)
    matrix = weight_matrix(params)
    record: dict = {
        "params": {"d": params.d, "d0": params.d0, "e": params.e},
        "classification": {
            "kind": cls.kind.value,
            "count": cls.count,
            "product": cls.product,
            "description": cls.describe(),
        },
        "weight_matrix": [list(matrix.base_row), list(matrix.fibre_row)],
    }
    if not cls.exists:
        return record
    inv = invariants(params, cls)
    img = inv.canonical_image
    degenerate = min(params.d, params.d0) <= 1
    record["invariants"] = {
        "pg": inv.pg,
        "q1": inv.q1,
        "q2": inv.q2,
        "chi_O": inv.chi_O,
        "K3": _frac(inv.K3),
        "e": inv.e,
        "image": {
            "kind": img.kind.value,
            "e": img.e,
            "embedding": list(img.embedding) if img.embedding else None,
            "label": img.label(),
            "note": img.note,
        },
        "on_noether_line": inv.on_noether_line,
        "K_ample": inv.K_ample,
        "K_nef": inv.K_nef,
        "mds": inv.mori_dream_general,
        "degenerate_note": img.note if degenerate else None,
    }
    locus = base_locus(params)
    record["base_locus"] = {
        "family": locus.family_base.name.lower() if locus.family_base else None,
        "canonical": locus.canonical_base.name.lower() if locus.canonical_base else None,
    }
    profile = coefficient_profile(params)
    record["family_dimension"] = family_dimension(params, profile)
    a, e = kobayashi_params(params)
    record["blowup_parameters"] = {"a": a, "e": e, "in_range": e <= params.d}
    record["support"] = [
        {"a0": m.a0, "a1": m.a1, "a2": m.a2, "a5": m.a5, "label": m.label()}
        for m in normal_form_support(params)
    ]
    record["coefficient_profile"] = [
        {"label": mono.label(), "degree": degree} for mono, degree in profile
    ]
    record["flip"] = flip_record(params.d) if params.d0 == 1 and params.d in (2, 3, 4) else None
    return record


def moduli_record(pg: int) -> dict:
    info = moduli_components(pg)
    second = info.second_component
    return {
        "pg": info.pg,
        "d": info.d,
        "components": info.components,
        "second": {"d": second.d, "d0": second.d0} if second else None,
    }


def kobayashi_record(a: int, e: int) -> dict:
    params = kobayashi_translate(a, e)
    return {"a": a, "e": e, "d": params.d, "d0": params.d0, "pg": 3 * params.d - 2}


def bundle_record(b: int, e1: int, e2: int) -> dict:
    # A library warning, as a diagnostic that every call prints.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        data = FibrationData(b, e1, e2)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    record = {
        "b": data.genus_b,
        "deg_E1": data.deg_E1,
        "deg_E2": data.deg_E2,
        "deg_E5": data.deg_E5,
        "N": data.N,
        "exists": data.exists,
    }
    if data.exists:
        chi = chi_invariants(data)
        record.update(
            chi_OB=chi.chi_OB,
            chi_E1=chi.chi_E1,
            chi_omega_X=chi.chi_omega_X,
            K3=_frac(chi.K3),
            noether_gap=_frac(Fraction(data.N, 6)),
        )
    return record


def monomials_record(m: int) -> dict:
    if not 0 <= m <= 300:
        raise ValueError("need 0 <= m <= 300")
    monos = enumerate_monomials(m)
    return {
        "degree": m,
        "count": len(monos),
        "ring_rank": canonical_ring_rank(m),
        "monomials": [
            {"a0": x.a0, "a1": x.a1, "a2": x.a2, "a5": x.a5, "label": x.label()}
            for x in monos
        ],
    }


def nef_record(d: int, d0: int, a: int, b: int) -> dict:
    params = BundleParams(d, d0)
    cls = DivisorClass(a, b)
    # The fibre line is cut out by t0, y and z.
    t0, y, z = (coordinate_divisor_class(name, params) for name in ("t0", "y", "z"))
    curves = {"fibre_line": _frac(quartic_intersection(cls, t0, y, z, params))}
    for curve in SpecialCurve:
        curves[curve.name.lower()] = _frac(curve_intersection(cls, curve, params))
    return {
        "d": params.d,
        "d0": params.d0,
        "class": {"a": cls.a, "b": cls.b},
        "nef": is_nef(cls, params),
        "ample": is_ample(cls, params),
        "curves": curves,
    }


# ---------------------------------------------------------------------------
# text renderers, which yield lines, and csv tables; each reads only its
# command's record

def _inspect_text(record: dict):
    p = record["params"]
    yield f"X({p['d']};{p['d0']})  e = {p['e']}\n"
    yield f"classification: {record['classification']['description']}\n"
    yield "weight matrix (t0 t1 x0 x1 y z):\n"
    for name, row in zip(("base ", "fibre"), record["weight_matrix"]):
        yield "  " + name + "  " + " ".join(f"{v:>4d}" for v in row) + "\n"
    inv = record.get("invariants")
    if inv is None:
        return
    if inv["degenerate_note"]:
        yield f"degenerate: {inv['degenerate_note']}\n"
    else:
        yield (
            f"invariants: pg = {inv['pg']}, q1 = {inv['q1']}, q2 = {inv['q2']}, "
            f"chi_O = {inv['chi_O']}, K3 = {_unfrac(inv['K3'])}\n"
        )
        flags = (inv["K_ample"], inv["K_nef"], inv["on_noether_line"], inv["mds"])
        yield (
            "flags: K ample = {}, K nef = {}, on Noether line = {}, "
            "Mori dream (general member) = {}\n".format(*map(_yesno, flags))
        )
        img = inv["image"]
        if img["kind"] == "hirzebruch" and img["embedding"]:
            m, n = img["embedding"]
            delta = "delta" if n == 1 else f"{n} delta"
            yield f"canonical image: {img['label']}, embedded by |{m} l + {delta}|\n"
        else:
            yield f"canonical image: {img['label']} ({img['note']})\n"
    locus = record["base_locus"]
    yield (
        f"base locus: family {locus['family'] or 'empty'}, "
        f"canonical system {locus['canonical'] or 'none'}\n"
    )
    yield f"family dimension: {record['family_dimension']}\n"
    blow = record["blowup_parameters"]
    status = "within" if blow["in_range"] else "outside"
    yield f"blowup parameters: a = {blow['a']}, e = {blow['e']} ({status} the a >= e range)\n"
    support = record["support"]
    yield f"support ({len(support)} monomials):\n"
    degrees = {entry["label"]: entry["degree"] for entry in record["coefficient_profile"]}
    for mono in support:
        yield f"  {mono['label']}  (coefficient degree {degrees[mono['label']]})\n"
    if record["flip"]:
        yield f"flip: see `flip {p['d']}`\n"


def _flip_text(record: dict):
    yield (
        f"X({record['d']};{record['d0']}): K.S0 = {record['K_dot_s0']}, "
        f"pg = {record['pg']}, P2 = {record['P2']}, chi_O = {record['chi_O']}\n"
    )
    yield f"basket: {', '.join(q['label'] for q in record['basket'])}\n"
    yield f"K3+ = {_unfrac(record['K3_plus'])}\n"
    cone = (DivisorClass(c["a"], c["b"]) for c in record["nef_cone_Fplus"])
    yield f"nef cone of the flipped bundle: {', '.join(map(str, cone))}\n"


def _moduli_text(record: dict):
    second = record["second"]
    yield f"pg = {record['pg']}: d = {record['d']}, " + (
        f"{record['components']} components; second: X({second['d']};{second['d0']})\n"
        if second else "1 component\n"
    )


def _kobayashi_text(record: dict):
    yield (
        f"(a, e) = ({record['a']}, {record['e']}) -> "
        f"X({record['d']};{record['d0']}), pg = {record['pg']}\n"
    )


def _bundle_text(record: dict):
    yield (
        f"genus {record['b']}, deg E1 = {record['deg_E1']}, "
        f"deg E2 = {record['deg_E2']}, deg E5 = {record['deg_E5']}\n"
    )
    yield f"N = {record['N']}" + ("\n" if record["exists"] else "  (N < 0: no such fibration)\n")
    if record["exists"]:
        yield (
            f"chi(O_B) = {record['chi_OB']}, chi(E1) = {record['chi_E1']}, "
            f"chi(omega_X) = {record['chi_omega_X']}\n"
        )
        yield (
            f"K3 = {_unfrac(record['K3'])}, "
            f"gap above the Noether bound = {_unfrac(record['noether_gap'])}\n"
        )


def _monomials_text(record: dict):
    yield (
        f"degree {record['degree']}: {record['count']} monomials, "
        f"ring rank {record['ring_rank']}\n"
    )
    for m in record["monomials"]:
        yield f"  {m['label']}\n"


def _monomials_table(record: dict):
    header = ["a0", "a1", "a2", "a5", "label"]
    return header, map(operator.itemgetter(*header), record["monomials"])


def _nef_text(record: dict):
    cls = DivisorClass(record["class"]["a"], record["class"]["b"])
    yield (
        f"{cls} on the bundle of X({record['d']};{record['d0']}): "
        f"nef = {_yesno(record['nef'])}, ample = {_yesno(record['ample'])}\n"
    )
    for name, value in record["curves"].items():
        yield f"  degree on {name}: {_unfrac(value)}\n"


# ---------------------------------------------------------------------------
# the command table, its handlers and the parser built from it

# name: (help, integer positionals, record builder from the parsed arguments,
# text renderer, csv table or None for the flat listing).  A builder looks
# its `*_record` function up in the module's globals when it is called.
COMMANDS = {
    "classify": ("classification sweep over (d, d0)", "d_min d_max",
                 lambda a: _classify_records(a.d_min, a.d_max, a.d0), None, None),
    "inspect": ("full record of a single model", "d d0",
                lambda a: inspect_record(BundleParams(a.d, a.d0)), _inspect_text, None),
    "flip": ("flip data for X(d;1), d in {2,3,4}", "d",
             lambda a: flip_record(a.d), _flip_text, None),
    "moduli": ("moduli component count for a genus", "pg",
               lambda a: moduli_record(a.pg), _moduli_text, None),
    "kobayashi": ("translate blowup parameters (a, e)", "a e",
                  lambda a: kobayashi_record(a.a, a.e), _kobayashi_text, None),
    "bundle": ("degree arithmetic over a genus-b base", "b e1 e2",
               lambda a: bundle_record(a.b, a.e1, a.e2), _bundle_text, None),
    "monomials": ("fibre monomials of a weighted degree", "m",
                  lambda a: monomials_record(a.m), _monomials_text, _monomials_table),
    "nef": ("nef/ample test and curve degrees of a class", "d d0 a b",
            lambda a: nef_record(a.d, a.d0, a.a, a.b), _nef_text, None),
}


def cmd_record(args) -> tuple[int, Iterable[str]]:
    """The lines of one record; `inspect` of an empty family exits 3."""
    record = args.build(args)
    empty = record.get("classification", {}).get("kind") == "not_existent"
    return (3 if empty else 0), emit(args.format, record, args.render, args.table)


def cmd_classify(args) -> tuple[int, Iterable[str]]:
    """The sweep's lines, computed a piece at a time as they are read."""
    if not 0 <= args.d_min <= args.d_max <= 10000:
        raise ValueError("need 0 <= d_min <= d_max <= 10000")
    if args.d0 is not None and args.d0 < 0:
        raise ValueError("need d0 >= 0")
    write = {"csv": write_csv, "json": write_json, "text": write_text}[args.format]
    return 0, write(args.build(args))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by later ones."""
    parser = argparse.ArgumentParser(
        prog="noetherline",
        description="Exact invariants of canonical threefolds on the Noether line.",
    )
    parser.add_argument(
        "--format", "-f", choices=("text", "json", "csv"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument("--output", "-o", metavar="FILE", help="write output to FILE")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, ints, build, render, table) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for dest in ints.split():
            p.add_argument(dest, type=int)
        if name == "classify":
            p.add_argument("--d0", type=int, default=None, help="restrict to a single d0")
        handler = cmd_classify if name == "classify" else cmd_record
        p.set_defaults(handler=handler, build=build, render=render, table=table)
    return parser


def _discard_stdout() -> None:
    """Point standard output at the null device after its reader went away,
    so that no later flush, the interpreter's last one included, fails."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code, body = args.handler(args)
    except EmptyFamilyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.output:
        try:
            sys.stdout.writelines(body)
        except BrokenPipeError:
            _discard_stdout()
        return code
    try:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.writelines(body)
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc.strerror}", file=sys.stderr)
        return 2
    return code


def run() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _discard_stdout()
    sys.exit(code)
