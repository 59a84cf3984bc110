"""classify's rows a piece at a time.

Along a line of its sweep, every field of a classify row is constant or
affine on a piece of the line (`singularities.row_pieces`).  A `Piece` is
such a run of rows: its first record with every int that changes replaced
by a mark, its row count and the column of values of each mark.  Its cell's
map (`row_map`) builds it.  Ints are affine, K3 among them: every member
lies on the Noether line, where K3 = 4d - 6, so a fractional K3 that
changes within a cell fails its map.  An image label that changes is its
kind's prefix and the row's e, the degree of a cone or Hirzebruch image.

Each format encodes a piece's marked record once (the csv module,
`json.dumps`, the text cells) and splits the encoding at the marks; a row
is the fixed parts with the decimal text of the row's changing ints between
them, from one shared list of `str(i)`, and a one-row piece is its one part.
A piece can be a whole line, so its rows are written in runs of at most
`RUN`.  A writer takes a walk, a function that yields the pieces anew at
each call; the text table calls it twice: the first walk sizes the columns
from each piece's ends, keeping no piece, the second writes the rows.
"""

from __future__ import annotations

import csv
import json
import math
import operator
from itertools import chain, repeat
from types import SimpleNamespace
from typing import Callable, Iterable

from .toric import BundleParams, CrossCheckError

__all__ = [
    "CSV_CLASSIFY_HEADER", "RUN", "Piece", "csv_line", "rational_text", "row_map", "write_csv",
    "write_json", "write_text",
]

CSV_CLASSIFY_HEADER = [
    "d", "d0", "e", "pg", "K3_num", "K3_den", "class", "count",
    "image", "K_ample", "K_nef", "noether", "mds",
]

#: The csv module's text of one row.  `writerow` returns what the sink's
#: `write` returns: here, the line.
csv_line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow

# A changing int in a piece's marked record: each writer encodes the marked
# record once and splits the encoding at the mark.  No string a record
# holds (a class, an image label) contains it, and no encoder treats it as
# special: not NUL, which the csv writer of Python 3.10 takes for its unset
# escapechar and refuses to write.
_MARK = "\ue000"


class Piece:
    """Classify rows on which every field is constant or affine in the row
    index i.  `marked` is the record of row 0 with each int that
    changes from row to row replaced by `_MARK`; `columns` holds the values
    of those ints, one sequence per mark, in the order of the marks.  A
    column is named after its csv column: an int field, K3_num, or image,
    whose values are e's: an image label that changes is its kind's prefix
    and the row's e.  A piece has as many rows as a column has values, one
    row where it has no column (`_rows`)."""

    __slots__ = ("marked", "columns")

    def __init__(self, record: dict, columns: dict):
        self.marked, self.columns = record, columns


def row_map(anchors: list, derive):
    """The row map of a cell through `anchors`, its rows (d, d0), as `derive`
    gives them: each changing int, K3's numerator too, as c + a*d + b*d0 with
    int a, b, c, an image label as its prefix and e.  Three anchors not on one
    line fix it, or two on one line with no step across it, or one; every
    anchor must be its row, field by field (CrossCheckError).  Returns
    `piece`, which builds the `Piece` of `count` rows from `start` by `step`
    and refuses a piece with an end off the span of the anchors."""
    points = list(dict.fromkeys(anchors))
    rows = [derive(BundleParams(*p)) for p in points]
    template, (x0, y0), affine = rows[0], points[0], []
    on_span = points[0].__eq__
    if len(points) > 1:
        (x1, y1), k = points[1], 0  # k: the anchor of the third point, or the first
        dx1, dy1 = x1 - x0, y1 - y0
        on_line = lambda p: dx1 * (p[1] - y0) == (p[0] - x0) * dy1
        if off := [i for i, p in enumerate(points) if not on_line(p)]:
            (x2, y2), k, on_span = points[off[0]], off[0], lambda p: True
        else:  # The third point is one lattice step across the line, where
            # every field keeps its first value: the steps (ux, uy) along the
            # line and (x2 - x0, y2 - y0) span the lattice, so a, b are ints.
            ux, uy = dx1 // (g := math.gcd(dx1, dy1)), dy1 // g
            wy = pow(ux, -1, abs(uy)) if uy else ux
            x2, y2, on_span = x0 + ((wy * ux - 1) // uy if uy else 0), y0 + wy, on_line
        dx2, dy2, second, third = x2 - x0, y2 - y0, rows[1], rows[k]
        det = dx1 * dy2 - dx2 * dy1
        for key, v0 in template.items():
            v1, v2, name, wrap = second[key], third[key], key, None
            if v0 == v1 == v2:
                continue
            if key == "K3" and v0 and v1 and v2 and v0["den"] == v1["den"] == v2["den"] == 1:
                v0, v1, v2, name = v0["num"], v1["num"], v2["num"], "K3_num"
                wrap = lambda v: {"num": v, "den": 1}
            elif key == "image" and v0 and v1 and v2:
                wrap = lambda v, prefix=v0[: len(v0) - len(str(template["e"]))]: prefix + str(v)
                v0, v1, v2 = template["e"], second["e"], third["e"]
            elif not type(v0) is type(v1) is type(v2) is int:
                raise CrossCheckError(f"X({x0};{y0}): {key} changes within one cell")
            # Floored: a map that is not integral misses one of the anchors.
            a = ((v1 - v0) * dy2 - (v2 - v0) * dy1) // det
            b = (dx1 * (v2 - v0) - dx2 * (v1 - v0)) // det
            affine.append((key, name, v0 - a * x0 - b * y0, a, b, wrap))
    changing = {key for key, *_ in affine}
    # The class is a str, constant on a cell, so there is always a constant field.
    constant = operator.itemgetter(*[key for key in template if key not in changing])
    fixed = constant(template)
    for (x, y), record in zip(points, rows):
        if constant(record) != fixed or any(record[key] != (wrap(v) if wrap else v)
                                            for key, _, c, a, b, wrap in affine for v in [c + a * x + b * y]):
            raise CrossCheckError(f"X({x0};{y0}): a derived row of its cell differs from the cell's map")

    def piece(start: tuple, step: tuple, count: int) -> Piece:
        """The piece, refused (CrossCheckError) unless its last row as the
        writers write it is the map's, field by field: each column's value
        there, and each entry of the marked record, which holds the value of
        every field that does not change along the piece."""
        (d, d0), (sd, sd0), n = start, step, count - 1
        x, y = d + n * sd, d0 + n * sd0
        if not (on_span(start) and on_span((x, y))):
            raise CrossCheckError("X(%d;%d) to X(%d;%d): off the span of its cell's anchors" % (d, d0, x, y))
        marked, columns, last = template.copy(), {}, []
        for key, name, c, a, b, wrap in affine:
            v = c + a * d + b * d0
            if n and (s := a * sd + b * sd0):
                columns[name], v = range(v, v + count * s, s), _MARK
                last.append(c + a * x + b * y)
            marked[key] = wrap(v) if wrap else v
        values = list(marked.values())
        built = Piece(marked, columns)
        if list(built.marked.values()) != values or [v[n] for v in built.columns.values()] != last:
            raise CrossCheckError("X(%d;%d) to X(%d;%d): the advanced last row differs" % (d, d0, x, y))
        return built

    return piece


#: The rows joined into one string: a piece can be a whole line of
#: thousands of rows, and a listing hundreds of thousands.
RUN = 256

#: `str(i)` at index i, up to the largest value asked for, kept for the process:
#: no legal sweep prints an int past 39,994 (K3 at d = 10000), about 2.5 MiB.
_DECIMALS: list[str] = []


def _decimals(values: range) -> list[str]:
    """The decimal text of a column's values: a slice of `_DECIMALS`, grown
    first to the largest, or `str` of each where one is negative."""
    first, last = values[0], values[-1]
    if first < 0 or last < 0:
        return list(map(str, values))
    if (top := max(first, last)) >= (size := len(_DECIMALS)):
        # Set as a slice: a table that another thread grew meanwhile keeps its length and `str(i)` at i.
        _DECIMALS[size:top + 1] = map(str, range(size, top + 1))
    # A column down to 0 stops at -1, which a slice reads as its last index.
    return _DECIMALS[first:values.stop if values.stop >= 0 else None:values.step]


def _rows(parts: list[str], columns: list[range], widths: list[int] | None = None) -> Iterable[str]:
    """The text of a piece's rows, `RUN` rows at a time: `parts`, its encoded
    marked record split at the marks, with a row's value of each column, as
    `_decimals` writes it, between them.  In the text table each column is
    padded to its width: once, in the next part, where the run's values have
    one digit count, else value by value.  A piece without a column is one
    row (rows of a piece differ in d or d0), its one part."""
    if not columns:
        yield parts[0]
        return
    for k in range(0, len(columns[0]), RUN):
        fixed, texts = parts.copy(), []
        for j, column in enumerate(columns):
            values = column[k:k + RUN]
            text = _decimals(values)
            if widths:
                if values[0] >= 0 <= values[-1] and len(text[0]) == len(text[-1]):
                    fixed[j + 1] = " " * (widths[j] - len(text[0])) + fixed[j + 1]
                else:
                    text = map(str.ljust, text, repeat(widths[j]))
            texts.append(text)
        streams = [*chain.from_iterable(zip(map(repeat, fixed), texts)), repeat(fixed[-1])]
        yield "".join(chain.from_iterable(zip(*streams)))


def _flags(record: dict, yes: str, no: str, none: str) -> list[str]:
    return [none if v is None else yes if v else no
            for v in (record["K_ample"], record["K_nef"], record["noether"], record["mds"])]


# The mark as `json.dumps` writes it: escaped, and quoted as a whole value.
_JSON_MARK = json.dumps(_MARK)


def write_json(walk: Callable[[], Iterable[Piece]]) -> Iterable[str]:
    """One compact JSON object per row of the pieces that `walk()` gives, as
    `json.dumps` writes the record: a changing int is bare, and the image
    label's degree inside its string."""
    for piece in walk():
        text = json.dumps(piece.marked).replace(_JSON_MARK, _JSON_MARK[1:-1])
        yield from _rows((text + "\n").split(_JSON_MARK[1:-1]), list(piece.columns.values()))


_NO_K3 = {"num": None, "den": None}


def _csv_cells(record: dict) -> list:
    """A classify record's csv cells in column order: K3 as its numerator
    and denominator, flags as true/false.  The csv writer writes an int as
    `str` does and None as ""."""
    k3 = record["K3"] or _NO_K3
    return [
        record["d"], record["d0"], record["e"], record["pg"], k3["num"], k3["den"],
        record["class"], record["count"], record["image"], *_flags(record, "true", "false", ""),
    ]


def write_csv(walk: Callable[[], Iterable[Piece]]) -> Iterable[str]:
    """The csv header, then the csv module's text of every row of the pieces
    that `walk()` gives."""
    yield csv_line(CSV_CLASSIFY_HEADER)
    for piece in walk():
        columns = piece.columns
        yield from _rows(csv_line(_csv_cells(piece.marked)).split(_MARK),
                         [columns[k] for k in CSV_CLASSIFY_HEADER if k in columns])


_TEXT_HEADER = ["d", "d0", "e", "class", "count", "pg", "K3", "image",
                "K_ample", "K_nef", "noether", "mds"]

# The text column of each of a piece's columns.
_TEXT_COLUMNS = {"d": 0, "d0": 1, "e": 2, "count": 4, "pg": 5, "K3_num": 6, "image": 7}


def rational_text(q: dict) -> str:
    """A rational {num, den} in lowest terms as p/q, or p where q = 1."""
    return str(q["num"]) if q["den"] == 1 else f"{q['num']}/{q['den']}"


def _text_cells(record: dict) -> list[str]:
    """A classify record's cells in the text table: K3 as p/q (p where
    q = 1), flags as yes/no, "-" for None."""
    k3, count, pg = record["K3"], record["count"], record["pg"]
    return [
        str(record["d"]), str(record["d0"]), str(record["e"]), record["class"],
        "-" if count is None else str(count),
        "-" if pg is None else str(pg),
        "-" if k3 is None else rational_text(k3),
        record["image"] or "-",
        *_flags(record, "yes", "no", "-"),
    ]


def _text_slots(piece: Piece) -> tuple[list[str], dict, list[int]]:
    """The text cells of a piece's marked record, the values of each changing
    cell by its text column, in column order, and each cell's width over the
    piece.  A changing cell is an int after a fixed prefix: it ends with its
    one mark, and is widest at one end of the piece."""
    columns, cells = piece.columns, _text_cells(piece.marked)
    slots = {j: columns[k] for k, j in _TEXT_COLUMNS.items() if k in columns}
    widths = list(map(len, cells))
    for j, values in slots.items():
        widths[j] += max(len(str(values[0])), len(str(values[-1]))) - 1
    return cells, slots, widths


def _text_line(cells: list[str], widths: list[int]) -> str:
    return "  ".join(map(str.ljust, cells, widths)).rstrip() + "\n"


def write_text(walk: Callable[[], Iterable[Piece]]) -> Iterable[str]:
    """The rows of the pieces that `walk()` gives as an aligned table for
    people, in two walks: the first sizes the columns, the second writes the
    rows.  A changing cell is left unpadded around its mark for `_rows` to
    pad; the last column is a flag, constant on a piece, so only its padding
    is stripped."""
    widths = list(map(len, _TEXT_HEADER))
    for piece in walk():
        widths = list(map(max, widths, _text_slots(piece)[2]))
    yield _text_line(_TEXT_HEADER, widths)
    for piece in walk():
        cells, slots, _ = _text_slots(piece)
        line = _text_line(cells, [0 if j in slots else width for j, width in enumerate(widths)])
        yield from _rows(line.split(_MARK), [*slots.values()], [widths[j] + 1 - len(cells[j]) for j in slots])
