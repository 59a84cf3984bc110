"""Command-line front end.

Subcommands: classify (parameter sweep), inspect (single model), flip,
moduli, kobayashi, bundle, monomials, nef.  Output formats: aligned text,
JSON (one object per row for classify, one object otherwise) and CSV.
Rationals are printed as "p/q" in lowest terms, never as decimals; JSON
encodes them as {"num": p, "den": q}.  Output is byte-identical across runs.

Exit codes: 0 success, 2 usage or domain error (an --output file that
cannot be written included), 3 mathematically empty result (the requested
family has no member with canonical singularities).  Arguments are checked
before the output file is opened, so a usage error leaves no file behind.
When the reader of standard output goes away (``classify ... | head``),
writing stops without a traceback and the exit code is the command's own
(0 for classify).

`classify` streams: csv and json rows are written as they are computed.
The text table buffers its rows, as strings, to size the columns.

`main(argv)` can be called repeatedly in one process: the parser is built
once, and every call gets a fresh namespace and its own diagnostics.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import warnings
from fractions import Fraction
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
from .singularities import EmptyFamilyError, classify_general_member
from .toric import (
    BundleParams,
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

CSV_CLASSIFY_HEADER = [
    "d", "d0", "e", "pg", "K3_num", "K3_den", "class", "count",
    "image", "K_ample", "K_nef", "noether", "mds",
]


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


def _flatten(prefix: str, value, rows: list[list[str]]) -> None:
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


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _csv_flat(record: dict) -> str:
    rows: list[list[str]] = []
    _flatten("", record, rows)
    return _csv_text(["field", "value"], rows)


def _csv_lines(header: list[str], rows):
    """The csv module's text of the header and of each row, line by line."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    yield buf.getvalue()
    for row in rows:
        buf.seek(0)
        buf.truncate()
        writer.writerow(row)
        yield buf.getvalue()


def _table_lines(header: list[str], rows: list[list[str]]):
    """An aligned text table, line by line; every row sizes the columns."""
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(header)
    ]
    for row in (header, *rows):
        yield "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n"


def _json_record(record: dict) -> str:
    return json.dumps(record, indent=2) + "\n"


# ---------------------------------------------------------------------------
# record builders

def _image_dict(inv) -> dict:
    img = inv.canonical_image
    return {
        "kind": img.kind.value,
        "e": img.e,
        "embedding": list(img.embedding) if img.embedding else None,
        "label": img.label(),
        "note": img.note,
    }


def classify_record(params: BundleParams) -> dict:
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


def _classify_csv_row(record: dict) -> list[str]:
    k3 = record["K3"]
    return [
        _scalar(record["d"]),
        _scalar(record["d0"]),
        _scalar(record["e"]),
        _scalar(record["pg"]),
        _scalar(k3["num"] if k3 else None),
        _scalar(k3["den"] if k3 else None),
        record["class"],
        _scalar(record["count"]),
        _scalar(record["image"]),
        _scalar(record["K_ample"]),
        _scalar(record["K_nef"]),
        _scalar(record["noether"]),
        _scalar(record["mds"]),
    ]


def _classify_text_row(record: dict) -> list[str]:
    k3 = record["K3"]
    return [
        str(record["d"]),
        str(record["d0"]),
        str(record["e"]),
        record["class"],
        _scalar(record["count"]) or "-",
        _scalar(record["pg"]) or "-",
        str(Fraction(k3["num"], k3["den"])) if k3 else "-",
        record["image"] or "-",
        _yesno(record["K_ample"]),
        _yesno(record["K_nef"]),
        _yesno(record["noether"]),
        _yesno(record["mds"]),
    ]


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
    degenerate = min(params.d, params.d0) <= 1
    record["invariants"] = {
        "pg": inv.pg,
        "q1": inv.q1,
        "q2": inv.q2,
        "chi_O": inv.chi_O,
        "K3": _frac(inv.K3),
        "e": inv.e,
        "image": _image_dict(inv),
        "on_noether_line": inv.on_noether_line,
        "K_ample": inv.K_ample,
        "K_nef": inv.K_nef,
        "mds": inv.mori_dream_general,
        "degenerate_note": inv.canonical_image.note if degenerate else None,
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
        {"label": entry.monomial.label(), "degree": entry.degree}
        for entry in profile
    ]
    record["flip"] = flip_record(params.d) if params.d0 == 1 and params.d in (2, 3, 4) else None
    return record


def _inspect_text(record: dict) -> str:
    p = record["params"]
    lines = [f"X({p['d']};{p['d0']})  e = {p['e']}"]
    lines.append(f"classification: {record['classification']['description']}")
    matrix = record["weight_matrix"]
    lines.append("weight matrix (t0 t1 x0 x1 y z):")
    for name, row in zip(("base ", "fibre"), matrix):
        lines.append("  " + name + "  " + " ".join(f"{v:>4d}" for v in row))
    inv = record.get("invariants")
    if inv is None:
        return "\n".join(lines) + "\n"
    if inv["degenerate_note"]:
        lines.append(f"degenerate: {inv['degenerate_note']}")
    else:
        k3 = Fraction(inv["K3"]["num"], inv["K3"]["den"])
        lines.append(
            f"invariants: pg = {inv['pg']}, q1 = {inv['q1']}, q2 = {inv['q2']}, "
            f"chi_O = {inv['chi_O']}, K3 = {k3}"
        )
        lines.append(
            "flags: K ample = {}, K nef = {}, on Noether line = {}, "
            "Mori dream (general member) = {}".format(
                _yesno(inv["K_ample"]), _yesno(inv["K_nef"]),
                _yesno(inv["on_noether_line"]), _yesno(inv["mds"]),
            )
        )
        img = inv["image"]
        if img["kind"] == "hirzebruch" and img["embedding"]:
            m, n = img["embedding"]
            delta = "delta" if n == 1 else f"{n} delta"
            lines.append(
                f"canonical image: {img['label']}, embedded by |{m} l + {delta}|"
            )
        else:
            lines.append(f"canonical image: {img['label']} ({img['note']})")
    locus = record["base_locus"]
    lines.append(
        "base locus: family {}, canonical system {}".format(
            locus["family"] or "empty", locus["canonical"] or "none"
        )
    )
    lines.append(f"family dimension: {record['family_dimension']}")
    blow = record["blowup_parameters"]
    status = "within" if blow["in_range"] else "outside"
    lines.append(
        f"blowup parameters: a = {blow['a']}, e = {blow['e']} "
        f"({status} the a >= e range)"
    )
    support = record["support"]
    lines.append(f"support ({len(support)} monomials):")
    degrees = {entry["label"]: entry["degree"] for entry in record["coefficient_profile"]}
    for mono in support:
        lines.append(f"  {mono['label']}  (coefficient degree {degrees[mono['label']]})")
    if record["flip"]:
        lines.append("flip: see `flip {}`".format(p["d"]))
    return "\n".join(lines) + "\n"


def _flip_text(record: dict) -> str:
    k3 = Fraction(record["K3_plus"]["num"], record["K3_plus"]["den"])
    cone = ", ".join(
        str(DivisorClass(c["a"], c["b"])) for c in record["nef_cone_Fplus"]
    )
    return (
        f"X({record['d']};{record['d0']}): K.S0 = {record['K_dot_s0']}, "
        f"pg = {record['pg']}, P2 = {record['P2']}, chi_O = {record['chi_O']}\n"
        f"basket: {', '.join(q['label'] for q in record['basket'])}\n"
        f"K3+ = {k3}\n"
        f"nef cone of the flipped bundle: {cone}\n"
    )


# ---------------------------------------------------------------------------
# command handlers

def _classify_params(d_min: int, d_max: int, d0: int | None):
    for d in range(d_min, d_max + 1):
        if d0 is None:
            yield from (BundleParams(d, k) for k in range(0, 3 * d // 2 + 1))
        elif 0 <= d0 <= 3 * d // 2:
            yield BundleParams(d, d0)


def cmd_classify(args) -> tuple[int, Iterable[str]]:
    """The sweep's lines; csv and json rows are computed as they are read."""
    if not 0 <= args.d_min <= args.d_max <= 10000:
        raise ValueError("need 0 <= d_min <= d_max <= 10000")
    records = map(classify_record, _classify_params(args.d_min, args.d_max, args.d0))
    if args.format == "json":
        return 0, (json.dumps(r) + "\n" for r in records)
    if args.format == "csv":
        return 0, _csv_lines(CSV_CLASSIFY_HEADER, map(_classify_csv_row, records))
    header = ["d", "d0", "e", "class", "count", "pg", "K3", "image",
              "K_ample", "K_nef", "noether", "mds"]
    return 0, _table_lines(header, [_classify_text_row(r) for r in records])


def cmd_inspect(args) -> tuple[int, str]:
    params = BundleParams(args.d, args.d0)
    record = inspect_record(params)
    empty = record["classification"]["kind"] == "not_existent"
    if args.format == "json":
        out = _json_record(record)
    elif args.format == "csv":
        out = _csv_flat(record)
    else:
        out = _inspect_text(record)
    return (3 if empty else 0), out


def cmd_flip(args) -> tuple[int, str]:
    record = flip_record(args.d)
    if args.format == "json":
        return 0, _json_record(record)
    if args.format == "csv":
        return 0, _csv_flat(record)
    return 0, _flip_text(record)


def cmd_moduli(args) -> tuple[int, str]:
    info = moduli_components(args.pg)
    second = (
        {"d": info.second_component.d, "d0": info.second_component.d0}
        if info.second_component
        else None
    )
    record = {"pg": info.pg, "d": info.d, "components": info.components,
              "second": second}
    if args.format == "json":
        return 0, _json_record(record)
    if args.format == "csv":
        return 0, _csv_flat(record)
    if second:
        text = (
            f"pg = {info.pg}: d = {info.d}, {info.components} components; "
            f"second: X({second['d']};{second['d0']})\n"
        )
    else:
        text = f"pg = {info.pg}: d = {info.d}, 1 component\n"
    return 0, text


def cmd_kobayashi(args) -> tuple[int, str]:
    params = kobayashi_translate(args.a, args.e)
    record = {
        "a": args.a,
        "e": args.e,
        "d": params.d,
        "d0": params.d0,
        "pg": 3 * params.d - 2,
    }
    if args.format == "json":
        return 0, _json_record(record)
    if args.format == "csv":
        return 0, _csv_flat(record)
    return 0, (
        f"(a, e) = ({args.a}, {args.e}) -> X({params.d};{params.d0}), "
        f"pg = {record['pg']}\n"
    )


def cmd_bundle(args) -> tuple[int, str]:
    # A library warning, as a diagnostic that every call prints.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        data = FibrationData(args.b, args.e1, args.e2)
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
    if args.format == "json":
        return 0, _json_record(record)
    if args.format == "csv":
        return 0, _csv_flat(record)
    lines = [
        f"genus {record['b']}, deg E1 = {record['deg_E1']}, "
        f"deg E2 = {record['deg_E2']}, deg E5 = {record['deg_E5']}",
        f"N = {record['N']}" + ("" if record["exists"] else "  (N < 0: no such fibration)"),
    ]
    if data.exists:
        lines.append(
            f"chi(O_B) = {chi.chi_OB}, chi(E1) = {chi.chi_E1}, "
            f"chi(omega_X) = {chi.chi_omega_X}"
        )
        lines.append(f"K3 = {chi.K3}, gap above the Noether bound = {Fraction(data.N, 6)}")
    return 0, "\n".join(lines) + "\n"


def cmd_monomials(args) -> tuple[int, str]:
    monos = enumerate_monomials(args.m)
    record = {
        "degree": args.m,
        "count": len(monos),
        "ring_rank": canonical_ring_rank(args.m),
        "monomials": [
            {"a0": m.a0, "a1": m.a1, "a2": m.a2, "a5": m.a5, "label": m.label()}
            for m in monos
        ],
    }
    if args.format == "json":
        return 0, _json_record(record)
    if args.format == "csv":
        rows = [[str(m.a0), str(m.a1), str(m.a2), str(m.a5), m.label()] for m in monos]
        return 0, _csv_text(["a0", "a1", "a2", "a5", "label"], rows)
    lines = [
        f"degree {args.m}: {record['count']} monomials, "
        f"ring rank {record['ring_rank']}"
    ]
    lines.extend(f"  {m.label()}" for m in monos)
    return 0, "\n".join(lines) + "\n"


def cmd_nef(args) -> tuple[int, str]:
    params = BundleParams(args.d, args.d0)
    cls = DivisorClass(args.a, args.b)
    fibre_line = quartic_intersection(
        cls,
        coordinate_divisor_class("t0", params),
        coordinate_divisor_class("y", params),
        coordinate_divisor_class("z", params),
        params,
    )
    curves = {"fibre_line": fibre_line}
    for curve in SpecialCurve:
        curves[curve.name.lower()] = curve_intersection(cls, curve, params)
    record = {
        "d": params.d,
        "d0": params.d0,
        "class": {"a": cls.a, "b": cls.b},
        "nef": is_nef(cls, params),
        "ample": is_ample(cls, params),
        "curves": {name: _frac(v) for name, v in curves.items()},
    }
    if args.format == "json":
        return 0, _json_record(record)
    if args.format == "csv":
        return 0, _csv_flat(record)
    lines = [
        f"{cls} on the bundle of X({params.d};{params.d0}): "
        f"nef = {_yesno(record['nef'])}, ample = {_yesno(record['ample'])}"
    ]
    lines.extend(f"  degree on {name}: {value}" for name, value in curves.items())
    return 0, "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing

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

    p = sub.add_parser("classify", help="classification sweep over (d, d0)")
    p.add_argument("d_min", type=int)
    p.add_argument("d_max", type=int)
    p.add_argument("--d0", type=int, default=None, help="restrict to a single d0")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("inspect", help="full record of a single model")
    p.add_argument("d", type=int)
    p.add_argument("d0", type=int)
    p.set_defaults(handler=cmd_inspect)

    p = sub.add_parser("flip", help="flip data for X(d;1), d in {2,3,4}")
    p.add_argument("d", type=int)
    p.set_defaults(handler=cmd_flip)

    p = sub.add_parser("moduli", help="moduli component count for a genus")
    p.add_argument("pg", type=int)
    p.set_defaults(handler=cmd_moduli)

    p = sub.add_parser("kobayashi", help="translate blowup parameters (a, e)")
    p.add_argument("a", type=int)
    p.add_argument("e", type=int)
    p.set_defaults(handler=cmd_kobayashi)

    p = sub.add_parser("bundle", help="degree arithmetic over a genus-b base")
    p.add_argument("b", type=int)
    p.add_argument("e1", type=int)
    p.add_argument("e2", type=int)
    p.set_defaults(handler=cmd_bundle)

    p = sub.add_parser("monomials", help="fibre monomials of a weighted degree")
    p.add_argument("m", type=int)
    p.set_defaults(handler=cmd_monomials)

    p = sub.add_parser("nef", help="nef/ample test and curve degrees of a class")
    p.add_argument("d", type=int)
    p.add_argument("d0", type=int)
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.set_defaults(handler=cmd_nef)

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
    lines = (body,) if isinstance(body, str) else body
    if not args.output:
        try:
            sys.stdout.writelines(lines)
        except BrokenPipeError:
            _discard_stdout()
        return code
    try:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
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
