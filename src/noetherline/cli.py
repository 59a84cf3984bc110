"""Command-line front end.

Subcommands: classify (parameter sweep), inspect (single model), flip,
moduli, kobayashi, bundle, monomials, nef.  Output formats: aligned text,
JSON (one object per row for classify, one object otherwise) and CSV.
Rationals are printed as "p/q" in lowest terms, never as decimals; JSON
encodes them as {"num": p, "den": q}.  Output is byte-identical across runs.

Every command is one row of `COMMANDS`: a record builder, which computes
the command's record from the parsed arguments, and a text renderer, which
reads only that record, or, for the listings classify and monomials, a
writer per format.  One emitter, `emit`, writes a record as indented JSON,
as a flat CSV listing, one `field,value` line per leaf (the csv module's
line where a cell needs quoting), or as the renderer's text.  Indented JSON
comes from this module's own writer, `_json_text`, which writes the same
bytes as the standard library's `json.dumps` with an indent of 2 without
that encoder's pure-Python path, and writes a list of dicts of one shape
from one template (`_json_listing`).

monomials is written a block, the monomials of one (a5, a2), at a time
(`_monomial_rows`): each is checked against the cached
`linear_system.enumerate_monomials(m)` tuple (CrossCheckError), then joined
from the strings that change along it, kept per rest in `_PAIRS`, so no row
calls `label()` or formats a number.  No long listing is one string.

classify walks each line of its sweep (one d over d0, or the --d0 band over
d) piece by piece: a piece is a line's intersection with a cell, the rows
where the forms a row reads have fixed signs (`singularities.cell`), and
every field is affine in (d, d0) on a cell.  Every piece is built by its
cell's integer affine row map (`pieces.row_map`), fit before the cell's
first piece at its anchors, the only rows `classify_record` derives: the
first two rows and the last of the cell's first and last pieces, and the
first row of its second, all kept by a first walk of every sweep.  Rows
between a cell's anchors are not derived: `classify 10 111` derives 38 of
9,333 rows.  A failing check raises CrossCheckError before any row of the
cell or piece is written.  `pieces` writes each format from one `%`
template per piece, at most 256 rows to a string; csv and compact JSON
stream, and the text table sizes its columns in a first pass.

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
import os
import re
import sys
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
from .linear_system import _X0, _X1, _Y, _Z, base_locus, coefficient_profile, enumerate_monomials
from .linear_system import family_dimension, normal_form_support
from .pieces import RUN, _rational_text, csv_line, row_map, write_csv, write_json, write_text
from .singularities import (
    EmptyFamilyError,
    cell,
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


# A character that the csv module quotes (some versions: a carriage return)
# or, before Python 3.11, refuses to write unescaped (NUL).
_CSV_SPECIAL = re.compile('[,"\r\n\0]').search


def _flatten(prefix: str, value, lines: list[str]) -> list[str]:
    """Append the csv line `field,value` of each scalar leaf of a dict or
    list; only nested dicts and lists recurse.  A line whose field or value
    holds a character in `_CSV_SPECIAL` is the csv module's (`csv_line`)."""
    is_dict = isinstance(value, dict)
    for key, sub in value.items() if is_dict else enumerate(value):
        if is_dict:
            field = f"{prefix}.{key}" if prefix else key
        else:
            field = f"{prefix}[{key}]"
        if isinstance(sub, (dict, list)):
            _flatten(field, sub, lines)
        else:
            text = _scalar(sub)
            lines.append(csv_line([field, text]) if _CSV_SPECIAL(field) or _CSV_SPECIAL(text)
                         else f"{field},{text}\n")
    return lines


def _json_text(value, indent: str = "\n") -> str:
    """`value` as indented JSON, byte for byte what the standard library's
    encoder writes with an indent of 2, for the types the record builders
    make: dict with str keys, list, str, int, bool and None; any other type
    raises TypeError.  Strings go through the library's C quoting and each
    container is one join; a container writes its str and int items in place
    and recurses only for the others, and a list of dicts of one shape is
    written from one template (`_json_listing`).  `indent` is the newline and
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
        if len(value) >= _TEMPLATE_MIN and (text := _json_listing(value, indent)):
            return text
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


# JSON lists shorter than this are written item by item: a template and its
# checks cost more than the items they would write.
_TEMPLATE_MIN = 12


def _json_listing(items: list, indent: str) -> str | None:
    """The indented JSON of a list of dicts that share their keys, in order,
    and one exact int or str type per key, written from one `%` template;
    None for any other list.  Keys are quoted once, with any `%` doubled; an
    int is written by `%d`, a str by `%s` of its quoted text, each column
    checked and quoted at once.  `indent` is the newline and indentation of
    the line the list starts on."""
    first = items[0]
    if (type(first) is not dict or not first or set(map(type, items)) != {dict}
            or set(map(tuple, items)) != {tuple(first)}):
        return None
    columns = list(zip(*map(dict.values, items)))
    types = [set(map(type, column)) for column in columns]
    if not all(t == {int} or t == {str} for t in types):
        return None
    inner = indent + "  "
    template = "{" + ",".join([
        inner + "  " + _json_str(key).replace("%", "%%") + (": %d" if t == {int} else ": %s")
        for key, t in zip(first, types)
    ]) + inner + "}"
    columns = [c if t == {int} else map(_json_str, c) for c, t in zip(columns, types)]
    return "[" + inner + ("," + inner).join(map(template.__mod__, zip(*columns))) + indent + "]"


def emit(fmt: str, record, render) -> Iterable[str]:
    """The lines of a record: indented json, a flat `field,value` csv
    listing (`_flatten`) or the text that `render` makes of it."""
    if fmt == "json":
        return (_json_text(record) + "\n",)
    if fmt == "csv":
        return ("".join(_flatten("", record, ["field,value\n"])),)
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


def _walk(lines):
    """The pieces of each line (start, step, count) of `lines()`, cut by
    `row_pieces`.  A first walk derives nothing and keeps each cell's first,
    second and last piece; the second fits a cell's map (`row_map`) at its
    first piece, at its anchors in those pieces, and builds each piece by it:
    a piece of two rows or more must end in its cell, its last row as written
    must be the map's, and `order_test` runs on the first row of every other
    support pattern it crosses."""
    kept = {}  # a cell's first, second and last piece: (start, step, lo, hi)
    for start, step, count in lines():
        for lo, hi in row_pieces(start, step, count):
            seen = kept.setdefault(cell(start[0] + lo * step[0], start[1] + lo * step[1]), [])
            seen[min(len(seen), 2):] = [(start, step, lo, hi)]
    anchors = {key: [(x + i * sx, y + i * sy) for k, ((x, y), (sx, sy), lo, hi) in enumerate(seen)
                     for i in ((lo,) if k == 1 < len(seen) - 1 else (lo, lo + 1, hi - 1)) if i < hi]
               for key, seen in kept.items()}
    maps = {}
    for start, step, count in lines():
        (d, d0), (sd, sd0) = start, step
        breaks = None  # the line's support breaks, once a piece has inner rows
        for lo, hi in row_pieces(start, step, count):
            n = hi - lo - 1  # the index of the last row
            first, last = (d + lo * sd, d0 + lo * sd0), (d + (hi - 1) * sd, d0 + (hi - 1) * sd0)
            if (key := cell(*first)) not in maps:
                maps[key] = row_map(anchors[key], classify_record)
            row, build = maps[key]
            piece = build(first, step, hi - lo)
            if n:
                if cell(*last) != key:
                    raise CrossCheckError("X(%d;%d) to X(%d;%d): the piece leaves its cell" % (*first, *last))
                if piece.row(n) != row(last):
                    raise CrossCheckError("X(%d;%d) to X(%d;%d): the advanced last row differs" % (*first, *last))
                # The patterns that start after row lo + 1, but for the one that
                # holds on the last row.
                breaks = support_breaks(start, step, count) if breaks is None else breaks
                inner = breaks[bisect.bisect_right(breaks, lo + 1):bisect.bisect_left(breaks, hi)]
                for i in inner[:-1]:
                    order_test(BundleParams(d + i * sd, d0 + i * sd0))
            yield piece


def _classify_records(d_min: int, d_max: int, d0: int | None):
    """The sweep's pieces in order (`_walk`): the band of each d over d0 or,
    with --d0, the band of that d0 over d."""
    if d0 is None:
        lines = lambda: (((d, 0), (0, 1), 3 * d // 2 + 1) for d in range(d_min, d_max + 1))
    else:
        least = max(d_min, -(-2 * d0 // 3))  # the least d with d0 <= 3d/2
        lines = lambda: [((least, d0), (1, 0), max(0, d_max + 1 - least))] * (d0 >= 0)
    return _walk(lines)


def _classify_sweep(args):
    """The pieces of `classify`, after its range is checked."""
    if not 0 <= args.d_min <= args.d_max <= 10000:
        raise ValueError("need 0 <= d_min <= d_max <= 10000")
    if args.d0 is not None and args.d0 < 0:
        raise ValueError("need d0 >= 0")
    return _classify_records(args.d_min, args.d_max, args.d0)


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
    record: dict = {
        "params": {"d": params.d, "d0": params.d0, "e": params.e},
        "classification": {
            "kind": cls.kind.value,
            "count": cls.count,
            "product": cls.product,
            "description": cls.describe(),
        },
        "weight_matrix": [list(row) for row in weight_matrix(params)],
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
    family, canonical = base_locus(params)
    record["base_locus"] = {
        "family": family.name.lower() if family else None,
        "canonical": canonical.name.lower() if canonical else None,
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
    data = FibrationData(b, e1, e2)
    if not data.semipositive:
        print("warning: negative characteristic-sheaf degree violates semipositivity", file=sys.stderr)
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
    """The listing of degree m: its header fields, and under "monomials" the
    cached `enumerate_monomials(m)` tuple, which the writers check a block
    at a time (`_monomial_rows`)."""
    if not 0 <= m <= 300:
        raise ValueError("need 0 <= m <= 300")
    monos = enumerate_monomials(m)
    return {"degree": m, "count": len(monos), "ring_rank": canonical_ring_rank(m), "monomials": monos}


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
# text renderers, which yield lines, and the monomials writers; each reads only its
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
            f"chi_O = {inv['chi_O']}, K3 = {_rational_text(inv['K3'])}\n"
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
    yield f"K3+ = {_rational_text(record['K3_plus'])}\n"
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
            f"K3 = {_rational_text(record['K3'])}, "
            f"gap above the Noether bound = {_rational_text(record['noether_gap'])}\n"
        )


class _BlockPairs(dict):
    """Per (rest, sep), built when first asked for, the strings that change
    along a monomials block, a1 = 0..rest and a0 = rest - a1: the label
    pairs `_X0[a0] + _X1[a1]` for sep None, else f"{a0}{sep}{a1}".  rest <= 300
    and one fixed sep per format bound them: ~2.4 MiB up to rest 150."""

    def __missing__(self, key: tuple[int, str | None]) -> list[str]:
        rest, sep = key
        pairs = self[key] = [_X0[rest - a1] + _X1[a1] if sep is None else f"{rest - a1}{sep}{a1}"
                             for a1 in range(rest + 1)]
        return pairs


_PAIRS = _BlockPairs()


def _monomial_rows(record: dict, head: str, sep: str | None, middle: str, end: str) -> Iterable[str]:
    """A monomials listing's rows, `head`, a0 `sep` a1 and `middle` of a2 and
    a5 unless `sep` is None, the label and `end`, in strings of `RUN` rows or
    more (the last may be shorter) that end with a block, those of one
    (a5, a2).  A block's first and last monomials must be (rest, 0, a2, a5)
    and (0, rest, a2, a5) for the (a5, a2) after the last block's, and the
    tuple must end with the last block, or CrossCheckError before the block
    is written as one join over its rest's `_PAIRS`, each label pair and the
    tail y^a2 z^a5; without a tail (a2 = a5 = 0) a pair drops its space."""
    m, monos = record["degree"], record["monomials"]
    i = a2 = a5 = start = 0  # rows holds monos[start:i]
    rows = []
    while i < len(monos):
        if i - start >= RUN:
            yield "".join(rows)
            rows, start = [], i
        rest = m - 2 * a2 - 5 * a5
        j = i + rest
        first, last = monos[i], monos[min(j, len(monos) - 1)]
        if (rest < 0 or j >= len(monos) or (first.a0, first.a1, first.a2, first.a5) != (rest, 0, a2, a5)
                or (last.a0, last.a1, last.a2, last.a5) != (0, rest, a2, a5)):
            raise CrossCheckError(f"monomials {m}: monomials {i} to {j} are not the block "
                                  f"x0^a0 x1^a1 y^{a2} z^{a5}, a0 + a1 = {rest}")
        tail = _Y[a2] + _Z[a5]
        labels = _PAIRS[rest, None] if tail else [pair[:-1] or "1" for pair in _PAIRS[rest, None]]
        if sep is not None:
            labels = map(middle.format(a2=a2, a5=a5).join, zip(_PAIRS[rest, sep], labels))
        close = tail[:-1] + end
        rows += head, (close + head).join(labels), close
        i = j + 1
        a2, a5 = (a2 + 1, a5) if rest >= 2 else (0, a5 + 1)
    if monos and a5 != m // 5 + 1:
        raise CrossCheckError(f"monomials {m}: the listing ends before its last block, y^{a2} z^{a5}")
    yield "".join(rows)


def _monomials_text(record: dict) -> Iterable[str]:
    yield "degree %(degree)d: %(count)d monomials, ring rank %(ring_rank)d\n" % record
    yield from _monomial_rows(record, "  ", None, "", "\n")


def _monomials_csv(record: dict) -> Iterable[str]:
    # The csv module quotes no cell of these rows: each is an int or a label,
    # which holds only x0, x1, y, z, `^`, digits and spaces.
    yield csv_line(["a0", "a1", "a2", "a5", "label"])
    yield from _monomial_rows(record, "", ",", ",{a2},{a5},", "\n")


def _monomials_json(record: dict) -> Iterable[str]:
    """The record's text with an empty listing, filled, its first comma the
    listing's opening bracket.  A label needs no escape (see `_monomials_csv`)."""
    head, foot = _json_text({**record, "monomials": []}).rsplit("[]", 1)
    rows = _monomial_rows(record, ',\n    {\n      "a0": ', ',\n      "a1": ',
                          ',\n      "a2": {a2},\n      "a5": {a5},\n      "label": "', '"\n    }')
    first = next(rows)
    yield head + ("[" + first[1:] if first else "[]" + foot + "\n")
    if first:
        yield from rows
        yield "\n  ]" + foot + "\n"


def _nef_text(record: dict):
    cls = DivisorClass(record["class"]["a"], record["class"]["b"])
    yield (
        f"{cls} on the bundle of X({record['d']};{record['d0']}): "
        f"nef = {_yesno(record['nef'])}, ample = {_yesno(record['ample'])}\n"
    )
    for name, value in record["curves"].items():
        yield f"  degree on {name}: {_rational_text(value)}\n"


# ---------------------------------------------------------------------------
# the command table, its handlers and the parser built from it

# name: (help, integer positionals, record builder from the parsed arguments,
# and a text renderer or, for a listing, its writer per format).  A builder
# looks its `*_record` function up in the module's globals when it is called.
COMMANDS = {
    "classify": ("classification sweep over (d, d0)", "d_min d_max", _classify_sweep,
                 {"csv": write_csv, "json": write_json, "text": write_text}),
    "inspect": ("full record of a single model", "d d0",
                lambda a: inspect_record(BundleParams(a.d, a.d0)), _inspect_text),
    "flip": ("flip data for X(d;1), d in {2,3,4}", "d",
             lambda a: flip_record(a.d), _flip_text),
    "moduli": ("moduli component count for a genus", "pg",
               lambda a: moduli_record(a.pg), _moduli_text),
    "kobayashi": ("translate blowup parameters (a, e)", "a e",
                  lambda a: kobayashi_record(a.a, a.e), _kobayashi_text),
    "bundle": ("degree arithmetic over a genus-b base", "b e1 e2",
               lambda a: bundle_record(a.b, a.e1, a.e2), _bundle_text),
    "monomials": ("fibre monomials of a weighted degree", "m",
                  lambda a: monomials_record(a.m),
                  {"csv": _monomials_csv, "json": _monomials_json, "text": _monomials_text}),
    "nef": ("nef/ample test and curve degrees of a class", "d d0 a b",
            lambda a: nef_record(a.d, a.d0, a.a, a.b), _nef_text),
}


def cmd_record(args) -> tuple[int, Iterable[str]]:
    """The lines of one record; `inspect` of an empty family exits 3."""
    record = args.build(args)
    empty = record.get("classification", {}).get("kind") == "not_existent"
    return (3 if empty else 0), emit(args.format, record, args.write)


def cmd_listing(args) -> tuple[int, Iterable[str]]:
    """A listing's lines, computed a piece or block at a time as they are read."""
    return 0, args.write[args.format](args.build(args))


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
    for name, (help_, ints, build, write) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for dest in ints.split():
            p.add_argument(dest, type=int)
        if name == "classify":
            p.add_argument("--d0", type=int, default=None, help="restrict to a single d0")
        handler = cmd_listing if type(write) is dict else cmd_record
        p.set_defaults(handler=handler, build=build, write=write)
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
    if args.output is None:
        try:
            sys.stdout.writelines(body)
        except BrokenPipeError:
            _discard_stdout()
        return code
    try:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.writelines(body)
    except OSError as exc:
        print(f"error: cannot write {args.output!r}: {exc.strerror}", file=sys.stderr)
        return 2
    return code


def run() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _discard_stdout()
    sys.exit(code)
