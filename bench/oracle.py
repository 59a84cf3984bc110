"""Independent checks of every op's exit code and output.

The expected values come from closed forms written here, not from the
library: the (d, d0) trichotomy, p_g = 3d - 2, K^3 = 4d - 6, the canonical
image label, monomial counts by direct summation and the ring rank as the
Hilbert function of one degree-ten relation.  Outputs are read line by line
from the file the op wrote, so checking a large output adds little memory to
the run whose peak RSS is measured.

`check(argv, code, path)` returns the number of rows the op produced (a
classify row, a monomial, or one record) and raises `Mismatch` when the op
broke its contract.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from itertools import zip_longest

CLASSIFY_FIELDS = (
    "d", "d0", "e", "pg", "K3_num", "K3_den", "class", "count",
    "image", "K_ample", "K_nef", "noether", "mds",
)


class Mismatch(Exception):
    """An op's exit code or output differs from the closed forms."""


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# ---------------------------------------------------------------------------
# closed forms

def classification(d: int, d0: int) -> tuple[str, int | None]:
    """Class and count of the general member of X(d; d0), e >= 0."""
    if 4 * d0 < d:
        return "not_existent", None
    if d == 0 or d0 >= d or 8 * d0 == 7 * d:
        return "smooth", None
    if 8 * d0 > 7 * d:
        return "terminal_points", 8 * d0 - 7 * d
    return "canonical_curve", 4 * d0 - d


def pg_of(d: int) -> int:
    # X(0;0) is the product of a line with a surface, which has p_g = 0; the
    # formula 3d - 2 holds from d = 1 on.
    return 3 * d - 2 if d else 0


def image_label(d: int, d0: int) -> str:
    e = 3 * d - 2 * d0
    if min(d, d0) <= 1:
        return "degenerate"
    return f"cone{e}" if d0 == 2 else f"F{e}"


def classify_row(d: int, d0: int) -> tuple:
    """The expected classify row as (field values in CSV column order)."""
    e = 3 * d - 2 * d0
    kind, count = classification(d, d0)
    if kind == "not_existent":
        return (d, d0, e, None, None, None, kind, None, None, None, None, None, None)
    pg, k3 = pg_of(d), 4 * d - 6
    m = min(d, d0)
    return (
        d, d0, e, pg, k3, 1, kind, count, image_label(d, d0),
        m >= 3, m >= 2, 3 * k3 == 4 * pg - 10, d >= d0,
    )


def monomial_count(m: int) -> int:
    """Monomials x0^a0 x1^a1 y^a2 z^a5 with a0 + a1 + 2 a2 + 5 a5 = m."""
    if m < 0:
        return 0
    return sum(
        m - 5 * a5 - 2 * a2 + 1
        for a5 in range(m // 5 + 1)
        for a2 in range((m - 5 * a5) // 2 + 1)
    )


def ring_rank(m: int) -> int:
    """Degree-m part of the fibre ring modulo its one degree-ten relation."""
    return monomial_count(m) - monomial_count(m - 10)


# ---------------------------------------------------------------------------
# argv and value parsing

def _split(argv: list[str]) -> tuple[str, list[str]]:
    """The format and the command words of an argv the workloads built."""
    fmt, rest = argv[1], argv[2:]
    if rest[0] == "--output":
        rest = rest[2:]
    return fmt, rest


def _bool(text: str) -> bool | None:
    return {"true": True, "false": False, "": None}[text]


def _yesno(text: str) -> bool | None:
    return {"yes": True, "no": False, "-": None}[text]


def _int(text: str) -> int | None:
    return None if text in ("", "-") else int(text)


def _scalar(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _flatten(prefix: str, value, out: dict[str, str]) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else key, sub, out)
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            _flatten(f"{prefix}[{i}]", sub, out)
    else:
        out[prefix] = _scalar(value)


def _fields(fmt: str, path: str) -> dict[str, str]:
    """A single record in json or csv form, as a flat field -> text map."""
    with open(path, encoding="utf-8", newline="") as fh:
        if fmt == "json":
            out: dict[str, str] = {}
            _flatten("", json.load(fh), out)
            return out
        rows = list(csv.reader(fh))
    _expect(rows[0] == ["field", "value"], "csv record header")
    return {row[0]: row[1] for row in rows[1:]}


def _lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _match(fields: dict[str, str], expected: dict[str, object]) -> None:
    for key, value in expected.items():
        got = fields.get(key)
        _expect(got == _scalar(value), f"{key}: got {got!r}, want {_scalar(value)!r}")


def _yn(value: bool) -> str:
    return "yes" if value else "no"


# ---------------------------------------------------------------------------
# per-command checks; each returns the row count

def _classify_rows(fmt: str, path: str):
    """Yield each classify row of the output as a tuple in CSV column order."""
    with open(path, encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            reader = csv.reader(fh)
            _expect(next(reader) == list(CLASSIFY_FIELDS), "csv header")
            for r in reader:
                yield (
                    int(r[0]), int(r[1]), int(r[2]), _int(r[3]), _int(r[4]),
                    _int(r[5]), r[6], _int(r[7]), r[8] or None,
                    _bool(r[9]), _bool(r[10]), _bool(r[11]), _bool(r[12]),
                )
        elif fmt == "json":
            for line in fh:
                o = json.loads(line)
                k3 = o["K3"]
                yield (
                    o["d"], o["d0"], o["e"], o["pg"],
                    k3["num"] if k3 else None, k3["den"] if k3 else None,
                    o["class"], o["count"], o["image"],
                    o["K_ample"], o["K_nef"], o["noether"], o["mds"],
                )
        else:
            header = next(fh).split()
            _expect(header == ["d", "d0", "e", "class", "count", "pg", "K3",
                               "image", "K_ample", "K_nef", "noether", "mds"],
                    "text header")
            for line in fh:
                c = line.split()
                k3 = None if c[6] == "-" else Fraction(c[6])
                yield (
                    int(c[0]), int(c[1]), int(c[2]), _int(c[5]),
                    k3.numerator if k3 is not None else None,
                    k3.denominator if k3 is not None else None,
                    c[3], _int(c[4]), None if c[7] == "-" else c[7],
                    _yesno(c[8]), _yesno(c[9]), _yesno(c[10]), _yesno(c[11]),
                )


def _check_classify(fmt: str, args: list[str], path: str) -> int:
    d_min, d_max = int(args[0]), int(args[1])
    only = int(args[3]) if len(args) > 2 else None
    if only is None:
        expected = (
            classify_row(d, d0)
            for d in range(d_min, d_max + 1)
            for d0 in range(3 * d // 2 + 1)
        )
    else:
        expected = (
            classify_row(d, only)
            for d in range(d_min, d_max + 1)
            if only <= 3 * d // 2
        )
    rows = 0
    got_rows = _classify_rows(fmt, path)
    for want in expected:
        got = next(got_rows, None)
        _expect(got == want, f"classify row {rows}: got {got}, want {want}")
        rows += 1
    _expect(next(got_rows, None) is None, "classify: extra rows")
    return rows


_DESCRIBE = {
    "not_existent": "no member with canonical singularities",
    "smooth": "smooth",
    "terminal_points": "{} isolated terminal points on S0",
    "canonical_curve": "canonical singularities along S0, {} dissident points",
}


def _check_inspect(fmt: str, args: list[str], path: str) -> int:
    d, d0 = int(args[0]), int(args[1])
    e = 3 * d - 2 * d0
    kind, count = classification(d, d0)
    exists = kind != "not_existent"
    pg = pg_of(d)
    if fmt == "text":
        lines = _lines(path)
        _expect(lines[0] == f"X({d};{d0})  e = {e}", "inspect title")
        desc = _DESCRIBE[kind].format(count)
        if d == 0:
            desc = "smooth (product with a fixed surface)"
        _expect(lines[1] == f"classification: {desc}", "inspect classification")
        if not exists:
            _expect(not any(l.startswith("base locus") for l in lines), "empty family lists a base locus")
        elif min(d, d0) >= 2:
            _expect(
                f"invariants: pg = {pg}, q1 = 0, q2 = 0, chi_O = {1 - pg}, K3 = {4 * d - 6}" in lines,
                "inspect invariants",
            )
            _expect(
                any(l.startswith(f"canonical image: {image_label(d, d0)}") for l in lines),
                "inspect image",
            )
        else:
            _expect(any(l.startswith("degenerate: ") for l in lines), "inspect degenerate note")
        return 1
    fields = _fields(fmt, path)
    expected: dict[str, object] = {
        "params.d": d, "params.d0": d0, "params.e": e,
        "classification.kind": kind, "classification.count": count,
        "classification.product": d == 0,
    }
    if exists:
        m = min(d, d0)
        expected.update({
            "invariants.pg": pg, "invariants.chi_O": 1 - pg,
            "invariants.K3.num": 4 * d - 6, "invariants.K3.den": 1,
            "invariants.image.label": image_label(d, d0),
            "invariants.on_noether_line": 3 * (4 * d - 6) == 4 * pg - 10,
            "invariants.K_ample": m >= 3, "invariants.K_nef": m >= 2,
            "invariants.mds": d >= d0,
        })
    else:
        _expect("invariants.pg" not in fields, "empty family carries invariants")
    _match(fields, expected)
    return 1


def _check_flip(fmt: str, args: list[str], path: str) -> int:
    d = int(args[0])
    pg = 3 * d - 2
    if fmt == "text":
        lines = _lines(path)
        _expect(lines[0].startswith(f"X({d};1): K.S0 = -1, pg = {pg}, "), "flip title")
        return 1
    _match(_fields(fmt, path), {"d": d, "d0": 1, "K_dot_s0": -1, "pg": pg, "chi_O": 1 - pg})
    return 1


def _check_nef(fmt: str, args: list[str], path: str) -> int:
    d, d0, a, b = (int(x) for x in args)
    m = min(d, d0)
    nef, ample = a >= 0 and b >= -a * m, a > 0 and b > -a * m
    if fmt == "text":
        first = _lines(path)[0]
        _expect(
            first.endswith(f"X({d};{d0}): nef = {_yn(nef)}, ample = {_yn(ample)}"),
            "nef line",
        )
        return 1
    _match(_fields(fmt, path), {
        "d": d, "d0": d0, "class.a": a, "class.b": b, "nef": nef, "ample": ample,
    })
    return 1


def _check_bundle(fmt: str, args: list[str], path: str) -> int:
    b, e1, e2 = (int(x) for x in args)
    n = 3 * e2 - 2 * e1
    if fmt == "text":
        lines = _lines(path)
        _expect(
            lines[0] == f"genus {b}, deg E1 = {e1}, deg E2 = {e2}, deg E5 = {e1 + e2}",
            "bundle degrees",
        )
        _expect(lines[1].startswith(f"N = {n}"), "bundle N")
        return 1
    fields = _fields(fmt, path)
    _match(fields, {
        "b": b, "deg_E1": e1, "deg_E2": e2, "deg_E5": e1 + e2, "N": n, "exists": n >= 0,
    })
    _expect(("chi_OB" in fields) == (n >= 0), "bundle chi fields")
    return 1


def _check_moduli(fmt: str, args: list[str], path: str) -> int:
    pg = int(args[0])
    d = (pg + 2) // 3
    comps = 2 if d % 8 == 0 else 1
    if fmt == "text":
        text = f"pg = {pg}: d = {d}, " + ("2 components; " if comps == 2 else "1 component")
        _expect(_lines(path)[0].startswith(text), "moduli line")
        return 1
    _match(_fields(fmt, path), {"pg": pg, "d": d, "components": comps})
    return 1


def _check_kobayashi(fmt: str, args: list[str], path: str) -> int:
    a, e = int(args[0]), int(args[1])
    d, d0 = 2 * a - e, 3 * a - 2 * e
    if fmt == "text":
        _expect(
            _lines(path) == [f"(a, e) = ({a}, {e}) -> X({d};{d0}), pg = {3 * d - 2}"],
            "kobayashi line",
        )
        return 1
    _match(_fields(fmt, path), {"a": a, "e": e, "d": d, "d0": d0, "pg": 3 * d - 2})
    return 1


_JSON_KEYS = ('"a0"', '"a1"', '"a2"', '"a5"', '"label"')


def _power(name: str, exp: int) -> str:
    return "" if exp == 0 else name if exp == 1 else f"{name}^{exp}"


def listing(m: int):
    """The documented listing of degree m: (a0, a1, a2, a5, label), ordered
    by (a5, a2, a1)."""
    x0 = [_power("x0", i) for i in range(m + 1)]
    x1 = [_power("x1", i) for i in range(m + 1)]
    for a5 in range(m // 5 + 1):
        for a2 in range((m - 5 * a5) // 2 + 1):
            rest = m - 5 * a5 - 2 * a2
            tail = " ".join(p for p in (_power("y", a2), _power("z", a5)) if p)
            for a1 in range(rest + 1):
                a0 = rest - a1
                label = " ".join([p for p in (x0[a0], x1[a1], tail) if p]) or "1"
                yield a0, a1, a2, a5, label


def _listed(fmt: str, path: str):
    """Yield one comparable item per listed monomial, after the header."""
    with open(path, encoding="utf-8", newline="") as fh:
        if fmt == "text":
            next(fh)
            for line in fh:
                yield line.strip()
        elif fmt == "csv":
            _expect(next(fh) == "a0,a1,a2,a5,label\n", "csv header")
            for line in fh:
                yield line.rstrip("\n")
        else:
            item = []
            for line in fh:
                key, sep, value = line.strip().partition(": ")
                if not sep or key not in _JSON_KEYS:
                    continue
                if key != '"label"':
                    item.append(int(value.rstrip(",")))
                    continue
                yield (*item, json.loads(value))
                item = []


def _check_monomials(fmt: str, args: list[str], path: str) -> int:
    m = int(args[0])
    count, rank = monomial_count(m), ring_rank(m)
    with open(path, encoding="utf-8") as fh:
        head = [fh.readline().strip() for _ in range(4)]
    if fmt == "text":
        _expect(head[0] == f"degree {m}: {count} monomials, ring rank {rank}", "monomials title")
        expected = (w[4] for w in listing(m))
    elif fmt == "csv":
        expected = (",".join(map(str, w)) for w in listing(m))
    else:
        _expect(head == ["{", f'"degree": {m},', f'"count": {count},', f'"ring_rank": {rank},'],
                "monomials degree, count and rank")
        expected = listing(m)
    rows = 0
    for got, want in zip_longest(_listed(fmt, path), expected):
        _expect(got == want, f"monomial {rows}: got {got!r}, want {want!r}")
        rows += 1
    _expect(rows == count, f"monomials: {rows} listed, {count} expected")
    return rows


_CHECKS = {
    "classify": _check_classify,
    "inspect": _check_inspect,
    "flip": _check_flip,
    "nef": _check_nef,
    "bundle": _check_bundle,
    "moduli": _check_moduli,
    "kobayashi": _check_kobayashi,
    "monomials": _check_monomials,
}


def expected_exit(cmd: str, args: list[str]) -> int:
    """2 for parameters with e < 0, 3 for an empty family, else 0."""
    if cmd in ("inspect", "nef"):
        d, d0 = int(args[0]), int(args[1])
        if 3 * d - 2 * d0 < 0:
            return 2
        if cmd == "inspect" and 4 * d0 < d:
            return 3
    return 0


def check(argv: list[str], code: int, path: str) -> int:
    """Verify one op; return its row count or raise `Mismatch`."""
    fmt, (cmd, *args) = _split(argv)
    want = expected_exit(cmd, args)
    _expect(code == want, f"exit code {code}, want {want}")
    if want == 2:
        with open(path, "rb") as fh:
            _expect(fh.read(1) == b"", "output on a usage error")
        return 0
    try:
        return _CHECKS[cmd](fmt, args, path)
    except (ValueError, KeyError, IndexError, TypeError, RuntimeError) as exc:
        raise Mismatch(f"unparseable {cmd} output: {exc!r}") from exc
