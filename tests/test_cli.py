import argparse
import csv
import hashlib
import io
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import noetherline
import noetherline.invariants as invariants_module
from noetherline import cli, linear_system, pieces, singularities
from noetherline.cli import classify_record, main
from noetherline.invariants import ImageKind, kobayashi_params
from noetherline.linear_system import support_pattern
from noetherline.pieces import CSV_CLASSIFY_HEADER, write_csv, write_json, write_text
from noetherline.singularities import SingularityKind, row_pieces
from noetherline.toric import BundleParams, CrossCheckError
from oracles import (
    advance, bundle_params, classify_output, classify_rows, flat_csv, monomials_output,
    monomials_record, percent_rows, piece_rows,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line]


# --- classify ----------------------------------------------------------------


def test_classify_8_8_includes_smooth_row(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "classify", "8", "8")
    assert code == 0
    rows = {r["d0"]: r for r in json_lines(out)}
    row = rows[7]
    assert row["class"] == "smooth"
    assert row["pg"] == 22
    assert row["K3"] == {"num": 26, "den": 1}
    assert row["image"] == "F10"


def test_classify_3_3_includes_canonical_curve_row(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "classify", "3", "3")
    assert code == 0
    rows = {r["d0"]: r for r in json_lines(out)}
    assert rows[1]["class"] == "canonical_curve"
    assert rows[1]["count"] == 1
    assert rows[0]["class"] == "not_existent"
    assert rows[0]["pg"] is None


def test_classify_2_2_flags_nef_not_ample(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "classify", "2", "2")
    assert code == 0
    rows = {r["d0"]: r for r in json_lines(out)}
    assert rows[3]["K_nef"] is True and rows[3]["K_ample"] is False


def test_classify_csv_header_and_rows(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "classify", "8", "8", "--d0", "7")
    assert code == 0
    reader = list(csv.reader(io.StringIO(out)))
    assert reader[0] == CSV_CLASSIFY_HEADER
    assert reader[1][:6] == ["8", "7", "10", "22", "26", "1"]
    assert reader[1][6] == "smooth"


def test_classify_text_table(capsys):
    code, out, _ = run_cli(capsys, "classify", "8", "8", "--d0", "7")
    assert code == 0
    assert out.splitlines()[0].split()[:4] == ["d", "d0", "e", "class"]
    assert "smooth" in out


def test_classify_rejects_bad_range(capsys):
    code, _, err = run_cli(capsys, "classify", "5", "3")
    assert code == 2 and "d_min" in err


def test_classify_missing_argument_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "classify", "5")
    assert code == 2


# --- inspect -----------------------------------------------------------------


def test_inspect_8_7_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "inspect", "8", "7")
    assert code == 0
    record = json.loads(out)
    assert record["weight_matrix"] == [[1, 1, 1, -9, 0, 0], [0, 0, 1, 1, 2, 5]]
    labels = [m["label"] for m in record["support"]]
    assert "x0^9 x1" in labels
    assert record["invariants"]["pg"] == 22
    assert record["base_locus"]["family"] == "s0"
    assert record["blowup_parameters"] == {"a": 9, "e": 10, "in_range": False}
    assert record["flip"] is None


def test_inspect_1_1_flags_kodaira_zero(capsys):
    code, out, _ = run_cli(capsys, "inspect", "1", "1")
    assert code == 0
    assert "Kodaira dimension 0" in out
    assert "invariants:" not in out


def test_inspect_5_1_empty_family_exit_3(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "inspect", "5", "1")
    assert code == 3
    assert json.loads(out)["classification"]["kind"] == "not_existent"


def test_inspect_flip_case_carries_flip_record(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "inspect", "2", "1")
    assert code == 0
    record = json.loads(out)
    assert record["flip"]["K3_plus"] == {"num": 9, "den": 4}
    assert record["invariants"]["degenerate_note"]


def test_inspect_rejects_unnormalized_params(capsys):
    code, _, err = run_cli(capsys, "inspect", "2", "4")
    assert code == 2 and "swap" in err


def test_inspect_json_round_trips(capsys):
    from noetherline.cli import inspect_record
    from noetherline.toric import BundleParams

    code, out, _ = run_cli(capsys, "--format", "json", "inspect", "8", "2")
    assert code == 0
    assert json.loads(out) == inspect_record(BundleParams(8, 2))


# --- thin wrappers --------------------------------------------------------------


def test_flip_text_prints_exact_rational(capsys):
    code, out, _ = run_cli(capsys, "flip", "2")
    assert code == 0
    assert "9/4" in out and "pg = 4" in out


def test_flip_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "flip", "3")
    assert code == 0
    record = json.loads(out)
    assert record["K3_plus"] == {"num": 85, "den": 14}
    assert record["P2"] == 22
    assert [q["r"] for q in record["basket"]] == [2, 7]


def test_flip_rejects_bad_degree(capsys):
    code, _, err = run_cli(capsys, "flip", "5")
    assert code == 2 and "flip" in err


def test_moduli_output(capsys):
    code, out, _ = run_cli(capsys, "moduli", "22")
    assert code == 0
    assert "2 components; second: X(8;7)" in out
    code, out, _ = run_cli(capsys, "moduli", "7")
    assert code == 0 and "1 component" in out
    code, _, err = run_cli(capsys, "moduli", "8")
    assert code == 2


def test_kobayashi_out_of_range(capsys):
    code, _, err = run_cli(capsys, "kobayashi", "9", "10")
    assert code == 2
    assert "outside the Kobayashi-Chen-Hu range" in err
    assert "X(8;7)" in err


def test_kobayashi_translation(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "kobayashi", "9", "8")
    assert code == 0
    record = json.loads(out)
    assert (record["d"], record["d0"]) == (10, 11)
    assert record["pg"] == 28


def test_bundle_output(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "bundle", "1", "10", "10")
    assert code == 0
    record = json.loads(out)
    assert record["N"] == 10
    assert record["K3"] == {"num": 15, "den": 1}
    code, out, _ = run_cli(capsys, "--format", "json", "bundle", "0", "2", "1")
    record = json.loads(out)
    assert record["exists"] is False and "K3" not in record


def test_monomials_output(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "monomials", "10")
    assert code == 0
    record = json.loads(out)
    assert record["count"] == 49 and record["ring_rank"] == 48
    code, out, _ = run_cli(capsys, "--format", "csv", "monomials", "5")
    assert len(out.splitlines()) == 14  # header + 13 monomials


def test_nef_output(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "nef", "5", "4", "1", "-2")
    assert code == 0
    record = json.loads(out)
    assert record["nef"] is True and record["ample"] is True
    assert record["curves"]["s0"] == {"num": 2, "den": 1}
    assert record["curves"]["fibre_line"] == {"num": 1, "den": 1}
    assert record["curves"]["s5"] == {"num": 3, "den": 5}


def test_class_text():
    # Every branch: a zero, a unit and a larger coefficient of each sign.
    assert cli._class_text(1, -2) == "H - 2F"
    assert cli._class_text(-9, 18) == "-9H + 18F"
    assert cli._class_text(0, 0) == "0"
    assert cli._class_text(-1, 3) == "-H + 3F"
    assert cli._class_text(0, 1) == "F"
    assert cli._class_text(0, -1) == "-F"
    assert cli._class_text(2, 0) == "2H"
    assert cli._class_text(1, 1) == "H + F"


# --- output plumbing ---------------------------------------------------------------


def test_output_is_byte_identical_across_runs(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "--format", "json", "classify", "0", "9")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_output_file_writing(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code = main(["--format", "csv", "--output", str(target), "classify", "2", "2"])
    capsys.readouterr()
    assert code == 0
    content = target.read_text(encoding="utf-8")
    assert content.splitlines()[0] == ",".join(CSV_CLASSIFY_HEADER)


def test_classify_json_round_trips(capsys):
    from noetherline.cli import classify_record
    from noetherline.toric import BundleParams

    code, out, _ = run_cli(capsys, "--format", "json", "classify", "4", "4")
    assert code == 0
    rows = json_lines(out)
    rebuilt = [
        classify_record(BundleParams(4, d0)) for d0 in range(0, 7)
    ]
    assert rows == rebuilt


# --- streamed classify --------------------------------------------------------

# SHA-256 of `classify` output recorded before rows were streamed: a small
# band, a band at large d and a band restricted to one d0.  The bands from
# "0 3000 --d0 700" on were recorded before rows were classified piece by piece:
# one d0 across every slope from 3/2 to 1/4, the degenerate, cone, X(2;3)
# and product rows of d0 = 1, 2, 3, and the largest d the CLI accepts.
CLASSIFY_DIGESTS = {
    ("csv", "0 60"): "9873b2988708e91b1b62706a4eb03d965659c612901068431e7242d242ab64e5",
    ("csv", "2000 2003"): "6b4bfd8acab90fc5da504e58ce66246fedc4b97b8202b2a6a1d2c687c5662bc1",
    ("csv", "0 400 --d0 37"): "7126764138bdd66bcb18d66b8262c6d18dd4b7c34d7e3401e1442b52ca4ab71c",
    ("json", "0 60"): "0d001bafafac95146359621d892e022292a9809c2c06436bd15a31fe9a8b9912",
    ("json", "2000 2003"): "fd054d35d51d4de6da460a4f43182d43172101556abd805fbb3257ba3adb7b40",
    ("json", "0 400 --d0 37"): "f13ced0c50988527eb12824a2957f9bcdb5aa94eea095597e4e67aaa9192cea0",
    ("text", "0 60"): "b811d03d6ec94841065b16add55d638bf7eed7781677d24562c540fcf4df59bb",
    ("text", "2000 2003"): "8bbdd46611f76f8ee2cc9f519ccaeeabe4191f229d64b413aa97b4082678f124",
    ("text", "0 400 --d0 37"): "4bb051678eeb3ece8b73c228b01e5dccd43b36ee499d5b1b190eb6877db55a32",
    ("csv", "0 3000 --d0 700"): "4f9e03c3a6853472f1edef6d327cc9a41b13d7fb58cf4bfcd3537e4236c04ca8",
    ("json", "0 3000 --d0 700"): "d67fd46dd1c6e1ee91ce1549440953d83e5e3481493f070f8b9672ce43ec6c2e",
    ("text", "0 3000 --d0 700"): "55ae961839ece849c23cd24e4759fb1f301a7eba00570744c5e2840098e7f599",
    ("csv", "0 20 --d0 1"): "ee2567730a28082e014b930e01520a0a56d6adc2eeca9468702c462828d3ee7b",
    ("json", "0 20 --d0 1"): "2e23e95828b1fb40c72f46fcdf8d60480019e4b68d9620014a7df8e83556d7c1",
    ("text", "0 20 --d0 1"): "0f39fdf8d80ccf82de8674bdbf18bae98e1b5fdd77590011ba1e436d4b74cd88",
    ("csv", "0 20 --d0 2"): "cb725573f6966cda05b9be9055800d7d4f59adca73dd5e0795a126d8a9c33e0a",
    ("json", "0 20 --d0 2"): "0615016f3b3923150c3b8c648123a84ca3ef61866d60fcc32f339061b9645065",
    ("text", "0 20 --d0 2"): "d5b66989273f623be57696800b1fa037067d292898b2d7ee676b4b5986fad8b8",
    ("csv", "0 20 --d0 3"): "0a4f0181400ce16479e058b47b98bfb19f410f7ebecd95b5be562cb67b6d4251",
    ("json", "0 20 --d0 3"): "51d6bf1d18fc1c394b058ba61736854f62f99e5317afd28cf2841ef58fe63dee",
    ("text", "0 20 --d0 3"): "076c45aeaaa724dfb1602a7b780cdf4cad212d96ceff278f2879284b6f8e5d23",
    ("csv", "10000 10000"): "e5dbeca438d10423ac189ac0805dc3928c28b33db9f8f7c969503562953efedd",
    ("json", "10000 10000"): "17b571d3642c649412ad57412a3e50a3cc334b14d1fb6bdbd56d8cba8582fb81",
    ("text", "10000 10000"): "35013a5c50a90c73f79362063f018e02e8c93e60ea99c5e6a83482ec3a26712d",
}


@pytest.mark.parametrize("fmt, band", sorted(CLASSIFY_DIGESTS))
def test_classify_output_matches_recorded_digests(capsys, fmt, band):
    code, out, _ = run_cli(capsys, "--format", fmt, "classify", *band.split())
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == CLASSIFY_DIGESTS[fmt, band]


def test_classify_output_file_matches_recorded_digest(tmp_path, capsys):
    target = tmp_path / "rows.json"
    code = main(["--format", "json", "--output", str(target), "classify", "0", "60"])
    capsys.readouterr()
    assert code == 0
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == CLASSIFY_DIGESTS["json", "0 60"]


def test_the_invariants_module_is_the_package_attribute(monkeypatch):
    """`import noetherline.invariants as invariants_module`, above, binds the
    module, not the function of that name, so a monkeypatch through it
    reaches what classify runs: K3 made to change along the line d = 8
    fails its piece."""
    assert invariants_module is sys.modules["noetherline.invariants"] is noetherline.invariants
    assert invariants_module.invariants is cli.invariants
    assert len(list(cli._classify_records(8, 8, None)())) == 7
    monkeypatch.setattr(invariants_module, "quartic_intersection",
                        lambda c1, c2, c3, c4, params: Fraction(params.d0, 3))
    with pytest.raises(CrossCheckError):
        list(cli._classify_records(8, 8, None)())


def test_classify_derives_each_cell_at_its_anchors_only(monkeypatch, capsys):
    calls = []
    original = cli.classify_general_member

    def counting(params):
        calls.append(params)
        return original(params)

    # Every module that looks the function up by name.
    monkeypatch.setattr(cli, "classify_general_member", counting)
    monkeypatch.setattr(invariants_module, "classify_general_member", counting)
    code, out, _ = run_cli(capsys, "--format", "csv", "classify", "2000", "2003")
    assert code == 0
    rows = len(out.splitlines()) - 1
    # The anchors of a cell: the first two rows and the last of its first and
    # last pieces [lo, hi), and the first row of its second.
    by_cell = {}
    for d in range(2000, 2004):
        for lo, hi in row_pieces((d, 0), (0, 1), 3 * d // 2 + 1):
            by_cell.setdefault(singularities.cell(d, lo), []).append((d, lo, hi))
    anchors = {
        BundleParams(d, k)
        for seen in by_cell.values()
        for n, (d, lo, hi) in enumerate(seen) if n in (0, 1, len(seen) - 1)
        for k in ({lo} if 0 < n < len(seen) - 1 else {lo, lo + 1, hi - 1}) if k < hi
    }
    assert len(calls) == len(set(calls))
    assert set(calls) <= anchors
    assert 50 * len(anchors) < rows


@pytest.mark.parametrize("band, budget", [
    ("10 111", 41), ("2000 2000", 20), ("3 109", 47), ("0 1000", 52),
])
def test_classify_anchor_budget(monkeypatch, capsys, band, budget):
    """The 9,333 rows of `classify 10 111`, the 3,001 of d = 2000, the
    9,068 of `classify 3 109` and the 751,501 of `classify 0 1000` cost at
    most `budget` derivations."""
    calls = []
    original = cli.classify_general_member

    def counting(params):
        calls.append(params)
        return original(params)

    monkeypatch.setattr(cli, "classify_general_member", counting)
    monkeypatch.setattr(invariants_module, "classify_general_member", counting)
    code, out, _ = run_cli(capsys, "--format", "csv", "classify", *band.split())
    assert code == 0
    assert len(calls) <= budget < len(out.splitlines()) - 1


def test_classify_works_per_cell_not_per_piece(monkeypatch):
    """The walk of `classify 0 1000` runs the order test once per (cell,
    support pattern) pair at most, and calls `singularities.cell` at most
    twice per piece, its plan included."""
    cells, tested = [], []
    monkeypatch.setattr(cli, "cell", lambda d, d0: cells.append(d) or singularities.cell(d, d0))
    monkeypatch.setattr(cli, "order_test", lambda p: tested.append(p) or singularities.order_test(p))
    count = sum(1 for _ in cli._classify_records(0, 1000, None)())
    pairs = [(singularities.cell(p.d, p.d0), support_pattern(p)) for p in tested]
    assert 0 < len(pairs) == len(set(pairs))
    assert len(cells) <= 2 * count


def test_the_plan_holds_every_first_second_and_last_piece():
    """The premise of the plan of a sweep over d (`cli._classify_records`),
    on every line up to the CLI's bound: from d = 13 on, lines d and d + 8
    meet the same cells in the same order, and every 16 lines in a row
    cross the same (cell, support pattern) pairs at the rows where the order
    test runs, the first inner row of each."""
    cells, pairs = {}, {}
    for d in range(13, 10001):
        known, _ = cli._plan([((d, 0), (0, 1), 3 * d // 2 + 1)])
        cells[d] = [key for _, _, key, _ in known[d, 0]]
        pairs[d] = {(key, support_pattern(BundleParams(d, i))) for _, _, key, rows in known[d, 0] for i in rows}
    assert all(cells[d] == cells[d + 8] for d in range(13, 9993))
    every = set().union(*pairs.values())
    assert every and all(set().union(*(pairs[d + k] for k in range(16))) == every for d in range(13, 9986))


@pytest.mark.parametrize("d_min, d_max", [(0, 300), (29, 200)])
def test_a_sweeps_plan_is_the_plan_of_all_its_lines(monkeypatch, d_min, d_max):
    """The lines a sweep over d is planned on give the anchors and the order
    tests that all its lines give."""
    walks = []
    monkeypatch.setattr(cli, "_walk", lambda lines, planned: walks.append((list(lines()), list(planned))))
    cli._classify_records(d_min, d_max, None)
    [(lines, planned)] = walks
    (known, anchors), (every_known, every_anchor) = cli._plan(planned), cli._plan(lines)
    assert len(planned) < len(lines) and anchors == every_anchor
    tests = lambda known: [(start, lo, rows) for start, cut in known.items() for lo, _, _, rows in cut if rows]
    assert tests(known) == tests(every_known)


@st.composite
def segments(draw):
    """(start, step, count) of a run of rows along d0 or along d, its ends
    often within one row of a breakpoint: d0 in {d/4, 7d/8, d, 0..3} or
    d <= 4."""
    if draw(st.booleans()):  # along d0, at one d
        d = draw(st.integers(0, 4) | st.integers(0, 400))
        top = 3 * d // 2
        near = st.sampled_from((d // 4, 7 * d // 8, d, 0, 1, 2, 3)).map(lambda k: min(k, top))
        end = st.integers(0, top) | near.flatmap(
            lambda k: st.integers(max(0, k - 1), min(top, k + 1))
        )
        lo, hi = sorted((draw(end), draw(end)))
        return (d, lo), (0, 1), hi - lo + 1
    d0 = draw(st.integers(0, 3) | st.integers(0, 300))  # along d, at one d0
    least = -(-2 * d0 // 3)  # the least d with d0 <= 3d/2
    near = st.sampled_from((4 * d0, 8 * d0 // 7, d0, 0, 1, 2, 3, 4)).map(lambda k: max(k, least))
    end = st.integers(least, 4 * d0 + 40) | near.flatmap(
        lambda k: st.integers(max(least, k - 1), k + 1)
    )
    lo, hi = sorted((draw(end), draw(end)))
    return (lo, d0), (1, 0), hi - lo + 1


@settings(max_examples=60, deadline=None)
@given(segments())
@example(((2000, 0), (0, 1), 3001))
@example(((467, 700), (1, 0), 2534))
@example(((0, 0), (1, 0), 40))
def test_band_walk_matches_the_per_row_oracle(segment):
    (d, d0), (sd, sd0), count = segment
    expected = [classify_record(BundleParams(d + i * sd, d0 + i * sd0)) for i in range(count)]
    assert list(piece_rows(cli._walk(lambda: [segment], [segment])())) == expected


@pytest.mark.parametrize("band", [(0, 40, None), (2, 9, 3), (0, 12, 1), (5, 3, None), (0, 9, 14), (0, 4, -1)])
def test_classify_records_match_the_per_row_walk(band):
    assert list(piece_rows(cli._classify_records(*band)())) == list(classify_rows(*band))


def _affine(points, values):
    """Whether `values` at `points`, pairs (d, d0), are one affine function
    of (d, d0), in exact arithmetic; through three points not on one line
    its coefficients must be integers."""
    (x0, y0), v0 = points[0], values[0]
    far = [i for i, p in enumerate(points) if p != points[0]]
    if not far:
        return len(set(values)) == 1
    (x1, y1), v1 = points[far[0]], values[far[0]]
    off = [i for i in far if (x1 - x0) * (points[i][1] - y0) != (points[i][0] - x0) * (y1 - y0)]
    if not off:  # collinear: affine in the parameter along the line
        norm = (x1 - x0) ** 2 + (y1 - y0) ** 2
        return all(v0 + Fraction((x - x0) * (x1 - x0) + (y - y0) * (y1 - y0), norm) * (v1 - v0) == v
                   for (x, y), v in zip(points, values))
    (x2, y2), v2 = points[off[0]], values[off[0]]
    det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    a = Fraction((v1 - v0) * (y2 - y0) - (v2 - v0) * (y1 - y0), det)
    b = Fraction((x1 - x0) * (v2 - v0) - (x2 - x0) * (v1 - v0), det)
    return a.denominator == b.denominator == 1 and all(
        v0 + a * (x - x0) + b * (y - y0) == v for (x, y), v in zip(points, values))


def test_every_field_is_affine_on_each_cell():
    """The premise of a sweep's cell maps, on every row with d < 160: the
    rows fall in 21 cells, the sign vectors of `CLASS_FORMS` and, where
    4*d0 >= d, of `INVARIANT_FORMS`; on each, every int field and K3's
    numerator are affine in (d, d0), K3's denominator is 1 wherever K3
    varies, the image label is a fixed prefix and the row's e, and every
    other field is constant."""
    def sign(v):
        return (v > 0) - (v < 0)

    cells = {}
    for d in range(160):
        for d0 in range(3 * d // 2 + 1):
            forms = singularities.CLASS_FORMS
            if 4 * d0 >= d:
                forms += singularities.INVARIANT_FORMS
            key = tuple(sign(a * d + b * d0 + c) for a, b, c in forms)
            assert singularities.cell(d, d0) == key
            cells.setdefault(key, []).append(classify_record(BundleParams(d, d0)))
    assert len(cells) == 21
    for rows in cells.values():
        points = [(r["d"], r["d0"]) for r in rows]
        for key in rows[0]:
            values = [r[key] for r in rows]
            if len(set(map(repr, values))) == 1:
                continue
            if key == "K3":
                assert {v["den"] for v in values} == {1}, points[0]
                values = [v["num"] for v in values]
            elif key == "image":
                e = str(rows[0]["e"])
                prefix = values[0][: len(values[0]) - len(e)]
                assert values == [f"{prefix}{r['e']}" for r in rows], points[0]
                continue
            assert {type(v) for v in values} == {int}, (points[0], key)
            assert _affine(points, values), (points[0], key)


@pytest.mark.parametrize("direction", [(1, 1), (8, 7), (4, 1)], ids=["d0=d", "8d0=7d", "4d0=d"])
def test_a_ray_cells_map_gives_its_rows_past_its_anchors(direction):
    """The map of a ray cell through three of its derived rows, at 4, 5 and
    9 steps from the origin, gives the ray's rows up to 60 steps past the
    first, refuses a point one step off the ray, and builds a piece of 60
    rows along it.  On d0 = d and 4*d0 = d the lattice step across the ray
    is found modulo 1; only on 8*d0 = 7*d is 8 inverted modulo 7."""
    ux, uy = direction
    points = [(t * ux, t * uy) for t in range(4, 65)]
    assert len({singularities.cell(*p) for p in points}) == 1
    build = pieces.row_map([points[0], points[1], points[5]], classify_record)
    rows = [classify_record(BundleParams(*p)) for p in points]
    assert [build(p, direction, 1).marked for p in points] == rows
    with pytest.raises(CrossCheckError, match="off the span"):
        build((points[0][0], points[0][1] + 1), direction, 1)
    assert list(piece_rows([build(points[0], direction, 60)])) == rows[:60]


# The ends of multi-line bands: d <= 4, where the strips of the forms
# d, d0 in {0..3} meet, and multiples of 8, where the ray 8*d0 = 7*d has
# rows; a band spans at most 24 lines, so that the per-row walk stays short.
BAND_ENDS = (0, 1, 2, 3, 4, *range(8, 161, 8))


@st.composite
def bands(draw):
    """(d_min, d_max, None) of a sweep over two lines or more, each end
    within one line of an end of `BAND_ENDS`."""
    a = draw(st.sampled_from(BAND_ENDS))
    b = draw(st.sampled_from([k for k in BAND_ENDS if 0 < abs(k - a) <= 24]))
    lo, hi = sorted(draw(st.integers(max(0, k - 1), k + 1)) for k in (a, b))
    return lo, hi + (lo == hi), None


@settings(max_examples=40, deadline=None)
@given(bands())
@example((3, 109, None))
@example((30, 40, None))
@example((0, 8, None))
def test_cell_maps_match_the_per_row_walk(band):
    """A sweep whose cells meet several lines writes them from cell maps:
    its rows are the rows derived one by one."""
    assert list(piece_rows(cli._classify_records(*band)())) == list(classify_rows(*band))


WRITERS = {"csv": write_csv, "json": write_json, "text": write_text}


@settings(max_examples=60, deadline=None)
@given(segments())
@example(((2000, 0), (0, 1), 3001))
@example(((467, 700), (1, 0), 2534))
@example(((0, 0), (1, 0), 40))
@example(((9, 9), (0, 1), 5))
def test_piece_writers_match_the_per_row_writers(segment):
    (d, d0), (sd, sd0), count = segment
    records = [classify_record(BundleParams(d + i * sd, d0 + i * sd0)) for i in range(count)]
    walk = cli._walk(lambda: [segment], [segment])
    for fmt, write in WRITERS.items():
        assert "".join(write(walk)) == classify_output(fmt, records), fmt


@pytest.mark.parametrize("fmt", sorted(WRITERS))
@pytest.mark.parametrize("band", ["0 40", "2 9 --d0 3", "0 12 --d0 1", "0 2", "40 40 --d0 35", "0 4 --d0 9"])
def test_classify_output_matches_the_per_row_writers(capsys, fmt, band):
    code, out, err = run_cli(capsys, "--format", fmt, "classify", *band.split())
    d_min, d_max, *rest = map(int, band.replace("--d0", "").split())
    assert (code, err) == (0, "")
    assert out == classify_output(fmt, list(classify_rows(d_min, d_max, *rest or [None])))


# Columns of `pieces._rows`, each a range as `row_map` makes them.
TABLE_COLUMNS = {
    "ascending": [range(3, 3 + 3 * 40, 3), range(0, 40)],
    "descending to 0": [range(300, -1, -1), range(600, -1, -2)],
    "descending to 1": [range(41, -1, -2)],
    "negative": [range(-20, -5), range(-6, 14, 4), range(2, -3, -1)],
    "past the end": [range(39_000, 39_995), range(50_000, 48_000, -2)],
    "9 to 10": [range(0, 12), range(12, 0, -1)],
    "99 to 100": [range(95, 105), range(9, 119, 11)],
    "9999 to 10000": [range(9_990, 10_010), range(10_005, 9_995, -1), range(9_800, 10_400, 3)],
    "longer than RUN": [range(0, 3 * pieces.RUN + 5), range(7, 7 + 2 * (3 * pieces.RUN + 5), 2)],
    "one row": [range(7, 8), range(12, 13)],
    "no column": [],
}


@pytest.mark.parametrize("text", [False, True], ids=["csv-json", "text"])
@pytest.mark.parametrize("name", TABLE_COLUMNS)
def test_the_table_join_writes_the_percent_rows(monkeypatch, name, text):
    """`_rows` joins the split parts with each value's text from the shared
    table, or pads it to its column's width, as one `%` per row writes it,
    from a cold table and then a warm one, at most `RUN` rows a string."""
    columns = TABLE_COLUMNS[name]
    parts = [f"<{j}%>" for j in range(len(columns))] + ["|\n"]
    widths = [max(len(str(v)) for v in column) + j for j, column in enumerate(columns)] if text else None
    expected = percent_rows(parts, columns, widths)
    monkeypatch.setattr(pieces, "_DECIMALS", list(map(str, range(20))))
    for _ in range(2):
        runs = list(pieces._rows(parts, columns, widths))
        assert "".join(runs) == expected
        assert all(run.count("\n") <= pieces.RUN for run in runs)
    assert pieces._DECIMALS == list(map(str, range(len(pieces._DECIMALS))))


@pytest.mark.parametrize("fmt", sorted(WRITERS))
def test_a_sweep_writes_the_same_bytes_from_a_cold_and_a_warm_table(capsys, monkeypatch, fmt):
    monkeypatch.setattr(pieces, "_DECIMALS", [])
    cold, warm = (run_cli(capsys, "--format", fmt, "classify", "0", "40") for _ in range(2))
    assert cold == warm == (0, classify_output(fmt, list(classify_rows(0, 40, None))), "")
    # Up to e = 120 at X(40;0), the largest int that changes along a line.
    assert pieces._DECIMALS == list(map(str, range(3 * 40 + 1)))


@pytest.mark.parametrize("fmt", sorted(WRITERS))
def test_a_one_row_classify_leaves_the_table_empty(capsys, monkeypatch, fmt):
    monkeypatch.setattr(pieces, "_DECIMALS", [])
    assert run_cli(capsys, "--format", fmt, "classify", "40", "40", "--d0", "33")[0] == 0
    assert pieces._DECIMALS == []


# Rows 0 and 1 of a piece with K3 replaced by (num0, den0) and (num1, den1):
# an integer throughout, then a constant denominator above 1, and one that
# changes with the row, with negative numerators too.
K3_STEPS = [((2, 1), (6, 1)), ((1, 3), (4, 3)), ((1, 3), (5, 6)), ((-7, 2), (1, 3)), ((5, 4), (-1, 6))]


@pytest.mark.parametrize("k3s", K3_STEPS)
@pytest.mark.parametrize("start, count", [((20, 6), 25), ((20, 29), 1), ((20, 12), 2), ((9, 4), 10)])
def test_piece_writers_reduce_a_changing_k3(k3s, start, count):
    """A piece built by the map of a cell fit through its first two rows,
    whose K3 changes as an integer, is written as the per-row writers write
    the rows that `advance` makes from those two rows.  A K3 that changes as
    a fraction fails the map's cross-check: every row of the family lies on
    the Noether line, where K3 = 4d - 6."""
    p0 = BundleParams(*start)
    p1 = BundleParams(p0.d, p0.d0 + 1)
    first, second = classify_record(p0), classify_record(p1)
    for record, (num, den) in zip((first, second), k3s):
        record["K3"] = {"num": num, "den": den}
    anchors = {p0: first, p1: second}
    if k3s[0][1] != 1 or k3s[1][1] != 1:
        with pytest.raises(CrossCheckError, match="K3 changes within one cell"):
            pieces.row_map([start, (p1.d, p1.d0)], anchors.__getitem__)
        return
    row = advance(first, second, p0, p1)
    rows = [row(i) for i in range(count)]
    build = pieces.row_map([start, (p1.d, p1.d0)], anchors.__getitem__)
    piece = build(start, (0, 1), count)
    assert list(piece_rows([piece])) == rows
    for fmt, write in WRITERS.items():
        assert "".join(write(lambda: [piece])) == classify_output(fmt, rows), fmt


@pytest.mark.parametrize("band, start, step, count, earlier", [
    ("7 9", (8, 0), (0, 1), 13, 11),  # a flag changes between the two pieces
    ("0 12 --d0 12", (8, 12), (1, 0), 5, 0),  # only the advanced last row differs
    ("0 40", (30, 0), (0, 1), 46, 675),  # a line the plan does not cut leaves its cell
])
def test_no_row_of_a_failing_piece_is_written(monkeypatch, tmp_path, band, start, step, count, earlier):
    """The last two pieces of the segment from `start`, merged, fail their
    cross-check: the rows before them are written, none of theirs."""
    original = cli.row_pieces

    def merged(start_, step_, count_):
        pieces = original(start_, step_, count_)
        if start_ == start:
            pieces[-2:] = [(pieces[-2][0], pieces[-1][1])]
        return pieces

    monkeypatch.setattr(cli, "row_pieces", merged)
    target = tmp_path / "rows.csv"
    with pytest.raises(CrossCheckError):
        main(["--format", "csv", "--output", str(target), "classify", *band.split()])
    lo = original(start, step, count)[-2][0]
    d_min, d_max, *d0 = map(int, band.replace("--d0", "").split())
    rows = list(classify_rows(d_min, d_max, *d0 or [None]))
    assert target.read_text() == classify_output("csv", rows[: earlier + lo])


def test_a_one_line_piece_that_leaves_its_cell_is_refused(monkeypatch, tmp_path):
    """On the one line of `--d0 10` from X(7;10), the piece that ends at
    X(39;10) merged with the zero row X(40;10) of 4*d0 = d after it leaves
    its cell: `CrossCheckError`, and only the rows before the piece, d = 7
    to 11, are written."""
    original = cli.row_pieces

    def merged(start, step, count):
        pieces = original(start, step, count)
        if start == (7, 10):
            i = next(i for i, (lo, hi) in enumerate(pieces) if 7 + hi - 1 == 39)
            pieces[i:i + 2] = [(pieces[i][0], pieces[i + 1][1])]
        return pieces

    monkeypatch.setattr(cli, "row_pieces", merged)
    target = tmp_path / "rows.csv"
    with pytest.raises(CrossCheckError, match="the piece leaves its cell"):
        main(["--format", "csv", "--output", str(target), "classify", "7", "46", "--d0", "10"])
    assert target.read_text() == classify_output("csv", list(classify_rows(7, 46, 10))[:5])


def test_a_cell_the_plan_misses_is_refused(monkeypatch, tmp_path):
    """A cell met only on d = 60, a line that the plan of `classify 0 100`
    does not cut: `CrossCheckError`, and only the rows before it are written."""
    monkeypatch.setattr(cli, "cell", lambda d, d0: singularities.cell(d, d0) + (d == 60,))
    target = tmp_path / "rows.csv"
    with pytest.raises(CrossCheckError, match="the plan misses its cell"):
        main(["--format", "csv", "--output", str(target), "classify", "0", "100"])
    assert target.read_text() == classify_output("csv", list(classify_rows(0, 59, None)))


def test_every_support_pattern_of_a_piece_gets_the_order_test(monkeypatch, tmp_path):
    """The order test's verdict on a support pattern that only the inside of
    a piece crosses, never one of its anchors, flipped: `CrossCheckError`,
    and the rows before the piece are written, none of its own."""
    d, row = 20, 10
    count = 3 * d // 2 + 1
    pieces = row_pieces((d, 0), (0, 1), count)
    lo = next(lo for lo, hi in pieces if lo <= row < hi)
    anchors = {k for a, b in pieces for k in (a, a + 1, b - 1) if a <= k < b}
    pattern = support_pattern(BundleParams(d, row))
    assert pattern not in {support_pattern(BundleParams(d, k)) for k in anchors}
    assert 4 * row >= d  # so the flipped verdict says no member exists
    before = classify_output("csv", list(classify_rows(d, d, None))[:lo])
    monkeypatch.setattr(singularities, "_VERDICTS", {pattern: False})
    target = tmp_path / "rows.csv"
    with pytest.raises(CrossCheckError, match=re.escape(BundleParams(d, row).label())):
        main(["--format", "csv", "--output", str(target), "classify", str(d), str(d)])
    assert target.read_text() == before


def _last_off_by_one(column):
    def spoil(piece):
        if column in piece.columns:
            values = list(piece.columns[column])
            values[-1] += 1
            piece.columns[column] = values
    return spoil


def _constant_den_doubled(piece):
    k3 = piece.marked["K3"]
    if type(k3) is dict and type(k3["den"]) is int:
        piece.marked["K3"] = {**k3, "den": 2 * k3["den"]}


# Along d0, d0, e, count and the image label change; along d, K3 too (its
# denominator is 1 on every piece of these bands).
@pytest.mark.parametrize("spoil, band", [
    (_last_off_by_one("d0"), (0, 40, None)),
    (_last_off_by_one("image"), (0, 40, None)),
    (_last_off_by_one("K3_num"), (0, 300, 40)),
    (_last_off_by_one("pg"), (0, 300, 40)),
    (_constant_den_doubled, (0, 300, 40)),
], ids=["d0", "image", "K3_num", "pg", "K3 den"])
def test_the_cross_check_reads_what_the_writers_write(monkeypatch, spoil, band):
    """A piece that its cell's map builds with marks or columns wrong at its
    last row fails the last-row check: the check reads the values that the
    rows are written from, not a second evaluation of the map."""
    original = pieces.Piece

    def spoiled(*args):
        piece = original(*args)
        spoil(piece)
        return piece

    monkeypatch.setattr(pieces, "Piece", spoiled)
    with pytest.raises(CrossCheckError, match="the advanced last row differs"):
        list(cli._classify_records(*band)())


def test_text_table_keeps_no_row_text():
    """The text table of a sweep walks it twice and keeps neither its 67,951
    rows nor its pieces: its traced peak is within 0.25 MiB of csv's.  The
    peak was 32.7 MiB when the table kept every row as strings, and 1.7 MiB
    (csv: 0.09 MiB) when it kept every piece between its two passes."""
    peaks = {}
    for fmt in ("csv", "text"):
        argv = ["--format", fmt, "--output", os.devnull, "classify", "0", "300"]
        assert main(argv) == 0  # the decimal table and the verdicts, filled once
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks[fmt] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["text"] <= peaks["csv"] + 2**18, peaks


# --- every command in every format ----------------------------------------------

# (exit code, SHA-256 of standard output) of each command in each format,
# recorded before the parser was shared between calls; `monomials 0`, `1`
# and `84` before indented JSON had its own writer; `inspect 12 9` (a flat
# csv listing with a quoted cell and empty values) and `monomials 147` and
# `150` (the largest listings the monomials bench writes) before listings
# were written from templates; `inspect 9 8` (terminal points) and the `nef`
# classes 0, -H + 3F and F before the library's text moved to the CLI.
COMMAND_DIGESTS = {
    ("text", "classify 7 9"): (0, "fa5de77f90f31e48b0d36c704fe9e32bcde969d5ee7ec1b1f22e8740412bd7b0"),
    ("json", "classify 7 9"): (0, "bde3da5a67c83ba0895e00e7bd6ce44d77338b4d0c60cebab29e437eca6a6e7c"),
    ("csv", "classify 7 9"): (0, "1b145d544cbd53cf5ae5a6246954b7b9ebf20821fece5f306b68a2ec36dfd8a2"),
    ("text", "classify 0 3 --d0 1"): (0, "4e67b7085f6d3a9a85690a19a9cf13992183bce75fd24f617cbac0706d7bf049"),
    ("json", "classify 0 3 --d0 1"): (0, "f907bd3c091e919eae28aef51229a9ca89374a732c81ba54751eb2e218ef6988"),
    ("csv", "classify 0 3 --d0 1"): (0, "7512aa8f6f70107ac05626a0817cdb25198bbaa2278135db74766d3ee2da25af"),
    ("text", "inspect 8 7"): (0, "fd0db44e19849ecc2ddeb1fc6b231cbfea3aa71aab1e25884515cce6ed5aa66b"),
    ("json", "inspect 8 7"): (0, "d8ae8018786852805d7205d4cc24baa3932bc47b7aebf0fe083ec85952105e67"),
    ("csv", "inspect 8 7"): (0, "af76536b3ba2a11892cdd51fd69149b9714c3b6863e8e1225d705a595a27c41d"),
    ("text", "inspect 40 33"): (0, "a22060573c7fdf5a20862a347fc685fddcda25394d5dc4497ac2d545bb0370fb"),
    ("json", "inspect 40 33"): (0, "a2f1e853e4861487fb5071ad6a970f147b809132095deae6e058a4fc7f292a94"),
    ("csv", "inspect 40 33"): (0, "4430924e926dfbeee7aeb7cb495ace19c7c9d45fc99c254e98df5ea70653e9ea"),
    ("text", "inspect 12 9"): (0, "d29928674018ea33289fca274257f34517109af9918ff93579e20a5616fda520"),
    ("json", "inspect 12 9"): (0, "96b35b25984284557b30e3db8ffa2087767e9dc60f4f18f8a911aa57ef531b1c"),
    ("csv", "inspect 12 9"): (0, "24341ff02cd96bc240348b9053aad3c57b2a9f056ca47328f6832d91f1151097"),
    ("text", "inspect 2 1"): (0, "4908e0be6e11304d1d36267e74148143dfd0e7ad55e54f831b7a9be7b3ccf94d"),
    ("json", "inspect 2 1"): (0, "e13714d257951cb78a0f7715830d69b56c84305c583f7f272c001b0105885671"),
    ("csv", "inspect 2 1"): (0, "f99c6f459592fc1a459c0e2b96744e15c398e4af1dc59800adb09f4f74d5c3c2"),
    ("text", "inspect 1 1"): (0, "5d981c230237e7075143ee148313501a8b7cf57080a7f61a34c149e915113250"),
    ("json", "inspect 1 1"): (0, "5cc590dd06264af7668c0b8a286489944d85418346873965e9a685095610d646"),
    ("csv", "inspect 1 1"): (0, "b906393566c50e790434d2706e01923592b60d49b0b1ad18798baa361a51ad41"),
    ("text", "inspect 3 1"): (0, "5c38c4c5bb6baddcd8b2d0e361d64d0730f5e741815ec25ce0ca4b2b3d9f81cf"),
    ("json", "inspect 3 1"): (0, "ab3708379dd39bf6ce5b95bae195fa60bc6784c8c55579895e04f068a458994f"),
    ("csv", "inspect 3 1"): (0, "b11b48e2ca6e4cae2ad28d2a04402a582b6a093c2a5425c05815b69cdcb2706e"),
    ("text", "inspect 0 0"): (0, "7cbfa9050d985caafce5a5fce8cc54cbe5f3c270a14aa39e86543d7e60c465e3"),
    ("json", "inspect 0 0"): (0, "fcf662355c08209358d781180f5f7bf5fc041f59e546fb6572ecf8e241046b83"),
    ("csv", "inspect 0 0"): (0, "2fca4265016659d603f90579c9ee4a34b394dbc642d74f5b7f28a1744b62d0f0"),
    ("text", "inspect 5 1"): (3, "42216eeb8e707918aef1b656d0e95834f8e529dd8bdc3a7c62c4590d6bd292f7"),
    ("json", "inspect 5 1"): (3, "0e87ef5461e825ef67b6222f67358eccde65573a86a11db383a87b20a2442c85"),
    ("csv", "inspect 5 1"): (3, "cef0826e90cdc715eba0205c85ea1911e06e9b4cccf561532c96c45756c69a54"),
    ("text", "inspect 9 8"): (0, "173ef6c2c34a6c9dedf39908e1d86b1fcbb7825e8c528485b583387dc42f0cce"),
    ("json", "inspect 9 8"): (0, "4b25ca0222e46b15f873a88aec63bcc8fcbf469623d0d5a8257d88b9e5cf4430"),
    ("csv", "inspect 9 8"): (0, "524c5d226c3adee3622c06e66902aeccafee3b19096aa1232432126af3f82419"),
    ("text", "flip 2"): (0, "a48025f5ce9d495ce91c08a012fc5636a1549c417cd1531d45c7539931cfbbe4"),
    ("json", "flip 2"): (0, "8758cc3af5a5c667c6633e8c3f6db951da2f1a6b309d850831cd6d778dda27a1"),
    ("csv", "flip 2"): (0, "fa395e77f550061209542f823c9815f929dc5924d8a43461d868ae4fbba71612"),
    ("text", "flip 3"): (0, "9ba9ead23fababfdc9c4d6aa46c1b76b1c55614ad0e291e488b31ae3c693f38e"),
    ("json", "flip 3"): (0, "d9d9c01f524d33cefbafc8ea5d22a06bbcee4b99bf8457fc127c01dae6becbc2"),
    ("csv", "flip 3"): (0, "5d5a0595ec2e43deb84536bdcf4d6c5955a588090ed1247fe776435e5c830c06"),
    ("text", "flip 4"): (0, "aaab3d444e5ac9d6d634677bfcd504a7264f0579d3b1eafd2d70b2aa001ab24f"),
    ("json", "flip 4"): (0, "a8702d18813a991d592e1f4b6aa366354d2f6904f86bf1a43440d559521d003b"),
    ("csv", "flip 4"): (0, "acb109e58f5d6ac6a3b8f0553e5aed854e70f0653b13f3c504a2ffc6fc7e1fa4"),
    ("text", "moduli 22"): (0, "c32bdf75247788a455c49c7509f9210e6c5320857e0cfbbd2e9af6a979e08e4a"),
    ("json", "moduli 22"): (0, "10c6c0a5c87fb9e7c7c58f11319c06d5c9dc42f266d7ee5fab0e6757950f4d17"),
    ("csv", "moduli 22"): (0, "f8d62433592e910f83dc5d879ac4479c376248e17dc09084506bfcbb209189a9"),
    ("text", "moduli 7"): (0, "41366a6f456c518d17d3c615b54fa6ce68feeb9a04ebd1284af9e0a78c1c4200"),
    ("json", "moduli 7"): (0, "a118ef7aaf6216f4b2e9c87043fac254fdf1a7c48fdcc3bf5a6828bb1169f22d"),
    ("csv", "moduli 7"): (0, "d74b52375e2fab63632c8b18f858d2fffb7c4d8f51f451e54a987ee1a331e92d"),
    ("text", "kobayashi 9 8"): (0, "987083d24c19f8ed9a6cc7dd7348358d15765a3513c9e18ede77aca997604c17"),
    ("json", "kobayashi 9 8"): (0, "8f0df02aad43a72791664bbc68268ef0a02f9a322c807bc2811bb3cfced69a63"),
    ("csv", "kobayashi 9 8"): (0, "69b7895887410ca3da78b3e72f06096932f971a9d3e4270a7446dbf9ccaaa456"),
    ("text", "bundle 1 10 10"): (0, "2d41dfac64b94b89d7c9e29fe1e733ac2eeee77a150c8564a0662bbad76292eb"),
    ("json", "bundle 1 10 10"): (0, "f52bd0209232faebb19435f492fccf1ae771fdc45a3cf5a9e506bfb1e48350bf"),
    ("csv", "bundle 1 10 10"): (0, "42eacffc1d86fb77a0494369e04895b9c86ddf7045dd488d5053d6ec17d25370"),
    ("text", "bundle 0 2 1"): (0, "174d8fb5871943ce2483c1b99e4b13aa6fef81fc16e83d22a54a046707ec0fd0"),
    ("json", "bundle 0 2 1"): (0, "a42a70ed11dc70941b586432da73dbedca376c1f8d4714c4691589359a819b30"),
    ("csv", "bundle 0 2 1"): (0, "f24d2259b81c95fcae8675c7eba03d3a56565d32aa79757b8bdbf207d6a0a1cf"),
    ("text", "bundle 1 3 2"): (0, "ba038210090d3a18ed0134a70c372ee1f240b98d8b6f28499de8e84cef690cb1"),
    ("json", "bundle 1 3 2"): (0, "de52e8b4d7471e916648fe2e2458b9e17aae56d7975634ce9feccce3d24585a7"),
    ("csv", "bundle 1 3 2"): (0, "acb8d2a5587cc76c46286a308560ec0c98921ac18b1c6b4fb553d8dffdf5f329"),
    ("text", "bundle 0 -1 0"): (0, "81ab64067d0fc71abfb119b63ac16ae856b89afdd4b390ebf6971d3a4fa224cc"),
    ("json", "bundle 0 -1 0"): (0, "bee904c6d0ced22acd25548579a42f9dfa838314b4ff0bfdfec3100651a79473"),
    ("csv", "bundle 0 -1 0"): (0, "f4d9ede6c5f6a3f071c905bce327b0957db14d4106d6b8ad20929fc6614c9941"),
    ("text", "monomials 10"): (0, "2fc04fd68b6ef348943a3f7070914b4d5a97a567029fc2fa5db135cedce57c12"),
    ("json", "monomials 10"): (0, "4440a86e632db1f6ca535b561898082e228841bd2763e3866bf1e4478fae9352"),
    ("csv", "monomials 10"): (0, "d0294533614f36a65387d814e260a6a9dda76ceb07d6122b0c1909247ab28f9d"),
    ("text", "monomials 5"): (0, "cd59c43bf6908a94ffff318991e898d08bd0cb63a5e135aab7c524a95342fbab"),
    ("json", "monomials 5"): (0, "37aca22bef211ca6b650ab61bdd4d4d1c6fcd25f31bc87a920e8e707e06a3e47"),
    ("csv", "monomials 5"): (0, "36b71cc61b9fd4e0376d981d820c0b621d4ecb07cc7220beb62d4336a093a07f"),
    ("text", "monomials 0"): (0, "c9c1fe01e60c2826c5344764ff579820562e0e9e2a567b064943cd1194ae5c19"),
    ("json", "monomials 0"): (0, "a0b9221a6ac9211a45b4f45e5f87e95b31af67c7356e031d2a01bd0d95a85d4d"),
    ("csv", "monomials 0"): (0, "c81caf366c07129a84f496034ddebd7be615de579da26843b37fd275618b6614"),
    ("text", "monomials 1"): (0, "e81bb69a22ac3d585eee666fa162a913217861e55f9616500da483ef502fa0ca"),
    ("json", "monomials 1"): (0, "0e1d4b0b57bd55ca1fc854d23350bbc8278667e1af31a199b8c801eac868ff82"),
    ("csv", "monomials 1"): (0, "d4dabc16ed2816e2f9657a10aed58f2c4415940cc4fd974fee33fc65bd3d9acd"),
    ("text", "monomials 84"): (0, "4d67502e19d36906c0c712f889f18585d8ded172f48ade592e24a856419da59f"),
    ("json", "monomials 84"): (0, "9c65d54a57fe1b8f8b093fac4f9b0bf48fee51cdf9dd2897cad6881679c7a91f"),
    ("csv", "monomials 84"): (0, "e297785f9b2fb79a4d20b9c7c721d27e59147cd7cc5c3b5b9bc9ea8b21d54a17"),
    ("text", "monomials 147"): (0, "a6866408d5f1b9db2a3f7ffa78152a16ff413a3e0b399276d30a03e8ce4bb997"),
    ("json", "monomials 147"): (0, "00d34a80aec44343922e51949475130379d8e840ec905da90914c8f53c84f72b"),
    ("csv", "monomials 147"): (0, "48d33af450ef993e6371936739fa4444fc958d8dd18a77772123479843a63115"),
    ("text", "monomials 150"): (0, "3fb6a0a1e5d435fd2e2a6b94b10bc6a192069e38700aa3f5161917532a52f4f7"),
    ("json", "monomials 150"): (0, "cf71b16566e77208479b3e1855636ff6410fb51dc76433e376d7e6121681169d"),
    ("csv", "monomials 150"): (0, "f93ad34a5d2bb105055272549850e6bfe5aeff7e7c3ef906f61e9c7f825aed15"),
    ("text", "nef 5 4 1 -2"): (0, "5e28be0d97f61cde7a50bc66e8fafd9d62e1f1b1fef87f29c0f8baf20e9f3e84"),
    ("json", "nef 5 4 1 -2"): (0, "26d3487fa4b627f70f7f2f93784adce8f03db03a7e0d749ec39d9cf91afee9df"),
    ("csv", "nef 5 4 1 -2"): (0, "d114d9e7c445b8c727eb2631b8e57fdff0b6437046c0b019faf55dd3d2f83fe4"),
    ("text", "nef 8 7 1 -9"): (0, "acd39913efc38a265e732c2c1cde83da8c83dcd11e0e5fe3a0879bafbf87d8ea"),
    ("json", "nef 8 7 1 -9"): (0, "e3ee87087cc2bc0761986f0c51fe49a8abd36245d3aaab81ed49c0490a14da20"),
    ("csv", "nef 8 7 1 -9"): (0, "9781fc775dec881d15b4263365a03f3ae860b1cb75d5ef08fd65942f180a139d"),
    ("text", "nef 5 4 0 0"): (0, "3a70052a1658e76d07059fd1b12ad30750a417a5c0bd761c0143740fd83335f6"),
    ("json", "nef 5 4 0 0"): (0, "7e6974450f06a48bbe4865b36cc4a84037566cd04696db24e59c47fc877eb385"),
    ("csv", "nef 5 4 0 0"): (0, "490f662124c305e5fbe1e3a99a464c2d0849a0a6d770ab828d44227a131ebc32"),
    ("text", "nef 5 4 -1 3"): (0, "0590b7161f59ddde6090fa1665aa69aa14ed56c8811bbf3753258deb70776720"),
    ("json", "nef 5 4 -1 3"): (0, "e0eb564b201ffb2da493f6e8ea67d745c223b59d1c3f7f6107d65e2e3df47d6e"),
    ("csv", "nef 5 4 -1 3"): (0, "6608dbb90eedaf4f43ca99ccffba2c188e48d98434da5bf4595a1ed1cb209f3c"),
    ("text", "nef 5 4 0 1"): (0, "8c343aec6b6e656cd82f78c5a4e925b946d9804b9f7c74ff11843f3488025039"),
    ("json", "nef 5 4 0 1"): (0, "42180cd4d208dd80bea166874407631d5d1c8de7afed3feefa00b8a379fdf419"),
    ("csv", "nef 5 4 0 1"): (0, "90719c1d73a16ece0b3b66552ed17c660a27235b48484b8c68851b146bea35da"),
}


@pytest.mark.parametrize("fmt, command", sorted(COMMAND_DIGESTS))
def test_command_output_matches_recorded_digest(capsys, fmt, command):
    code, out, _ = run_cli(capsys, "--format", fmt, *command.split())
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert (code, digest) == COMMAND_DIGESTS[fmt, command]


def test_every_command_has_digests_in_every_format():
    # A command added to the parser cannot skip the golden outputs above.
    sub = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    covered = {(fmt, command.split()[0]) for fmt, command in COMMAND_DIGESTS}
    wanted = {(fmt, name) for name in sub.choices for fmt in ("text", "json", "csv")}
    assert wanted - covered == set()


# Standard error of failing commands, recorded in every format before the
# commands shared one record/format layer.  Each exits 2 and writes nothing
# to standard output.  `monomials -1` printed the library's "degree must be
# nonnegative" until `monomials` took the same kind of bound as `classify`,
# and `kobayashi` named `a < e` even when `e < 0` failed.
ERROR_LINES = {
    "flip 5": "error: flip analysis applies to d in (2, 3, 4), got 5",
    "kobayashi 1 9": (
        "error: a < e: (a, e) = (1, 9) is outside the Kobayashi-Chen-Hu range a >= e >= 0"
    ),
    "kobayashi 5 -1": (
        "error: e < 0: (a, e) = (5, -1) is outside the Kobayashi-Chen-Hu range a >= e >= 0"
    ),
    "kobayashi -1 -3": (
        "error: e < 0: (a, e) = (-1, -3) is outside the Kobayashi-Chen-Hu range a >= e >= 0"
    ),
    "inspect 3 5": (
        "error: e = 3*d - 2*d0 = -1 is negative for (d, d0) = (3, 5); "
        "swap x0 and x1, i.e. replace d0 by 3*d - d0 = 4"
    ),
    "inspect -1 0": "error: d and d0 must be nonnegative, got (-1, 0)",
    "moduli 5": "error: pg = 5 is not of the form 3d - 2 with d >= 3",
    "bundle -1 0 0": "error: genus must be nonnegative",
    "classify 5 3": "error: need 0 <= d_min <= d_max <= 10000",
    "classify 0 3 --d0 -1": "error: need d0 >= 0",
    "monomials -1": "error: need 0 <= m <= 300",
}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("command", sorted(ERROR_LINES))
def test_failing_command_prints_one_error_line(capsys, fmt, command):
    code, out, err = run_cli(capsys, "--format", fmt, *command.split())
    assert (code, out, err) == (2, "", ERROR_LINES[command] + "\n")


# --- indented json: cli's writer against the standard library's encoder -------

# Characters that JSON escapes or that ASCII output spells as \uXXXX: quote,
# backslash, control characters, non-ASCII and a lone surrogate.
_AWKWARD = st.text(st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f ab\xe9\u2028\ud800\U0001f600'))
_TEXT = st.text() | _AWKWARD
_INTS = st.integers() | st.sampled_from([2**63, -(2**63) - 1, 10**40, -(10**40)])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | _INTS | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=30,
)


def _emitted_json(record) -> str:
    return "".join(cli.emit("json", record, None))


@given(_JSON_VALUES)
@example([True, 1, False, 0, None, {"1": True, "true": 1}])
@example([[], {}, [[]], [{}], {"": {}, "a": [[], [{}]]}])
@example({"\u00e9\"\\\x01": "\ud800\U0001f600\x7f", "": -(10**40)})
# Scalars that a container writes in place beside those it recurses for.
@example({"a": True, "b": None, "c": 0, "d": "x"})
@example({"f": False, "n": -1, "big": 10**40, "s": ""})
@example([True, 1, None, "y", -(10**40)])
@example([False, 0, "", 2**63, {"k": 1}, ["z"]])
def test_json_writer_matches_the_standard_library(value):
    assert _emitted_json(value) == json.dumps(value, indent=2) + "\n"


# Text with a `%`, which a template must not take for a conversion.
_PERCENT_TEXT = _TEXT | st.sampled_from(["%", "%d", "%s", "100%", "a%%b", "%(k)s"])


@st.composite
def _listings(draw):
    """A list of dicts of one shape, some items changed: keys in another
    order, True or False in place of an int, a missing or an extra key, a
    value of another type, or an item that is no dict."""
    keys = draw(st.lists(_PERCENT_TEXT, min_size=1, max_size=4, unique=True))
    kinds = draw(st.lists(st.sampled_from([int, str]), min_size=len(keys), max_size=len(keys)))
    changes = ["same"] * 6 + ["order", "bool", "drop", "extra", "value", "item"]
    items = []
    for _ in range(draw(st.integers(0, 40))):
        item = {key: draw(_INTS if kind is int else _PERCENT_TEXT) for key, kind in zip(keys, kinds)}
        change = draw(st.sampled_from(changes))
        if change == "order":
            item = dict(reversed(item.items()))
        elif change == "bool":
            item[keys[kinds.index(int)] if int in kinds else keys[0]] = draw(st.booleans())
        elif change == "drop":
            del item[keys[-1]]
        elif change == "extra":
            item["%extra"] = draw(_INTS)
        elif change == "value":
            item[draw(st.sampled_from(keys))] = draw(_JSON_VALUES)
        elif change == "item":
            item = draw(_JSON_VALUES)
        items.append(item)
    return items


def _long_listing(change_at: int) -> list:
    """300 items of one shape, `%` in its keys and values, one item with
    its keys in another order."""
    items = [{"a%d": i, "b\"%s": f"x{i}%s", "c": -i} for i in range(300)]
    items[change_at] = dict(reversed(items[change_at].items()))
    return items


@given(_listings())
@example([{"a": 1, "b": "x"}] * 11 + [{"a": True, "b": "x"}])
@example([{"a": 1, "b": "x"}] * 12 + [{"b": "x", "a": 1}, {"a": 1}, 1, None, [], {}])
@example([{"%": "%", "%d": 1, "": "\ud800\r\n,\"\\"}] * 13)
@example([{"k": "\U0001f600\x00\x1f\u2028"}] * 12 + [{"k": 2**63}])
@example([{"k": 1}] * 12 + [{"k": 1.5}, {"k": Fraction(1, 2)}])
@example(_long_listing(0))
@example(_long_listing(260))
def test_json_templates_match_the_standard_library(items):
    # A list of dicts of one shape is written from one template; a list
    # that holds an item of another shape, and any list below the template
    # length, is written item by item.
    for value in (items, {"n": len(items), "items": items, "after": [items]}):
        try:
            expected = json.dumps(value, indent=2) + "\n"
        except TypeError:
            with pytest.raises(TypeError):
                _emitted_json(value)
            continue
        assert _emitted_json(value) == expected


# --- flat csv listings: cli's writer against the csv module -----------------

# Text as a record holds it, and text that the csv module quotes or writes
# in its own way.
_CSV_TEXT = _PERCENT_TEXT | st.sampled_from(
    ["", ",", '"', '""', "\r", "\n", "a,b", "x\ny", "\x00", "\ud800", "\xe9"])
_CSV_RECORDS = st.dictionaries(_CSV_TEXT, st.recursive(
    _CSV_TEXT | _INTS | st.booleans() | st.none(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_CSV_TEXT, inner, max_size=4),
    max_leaves=30,
), max_size=6)


def _emitted_csv(record) -> str:
    return "".join(cli.emit("csv", record, None))


@given(_CSV_RECORDS)
@example({"a": [""] * 30, "": ""})
@example({"k": [1] * 40 + ["a,b"] + [2] * 600})
@example({"x": [True] * 30, "y": [None] * 30, "1": [1, True, 0, False]})
@example({"a%s": ["%d"] * 30, "b": {"c": [["a", "b", "c"], ["d"]]}, "%": [["a", "b"]] * 30})
@example({"a": ['b"c'] * 30, '"': '""'})
@example({"a": ["b\rc"] * 15, "\x00": [1] * 15, "x\ny": "\ud800\xe9"})
def test_csv_listing_matches_the_csv_module(record):
    # A line of the listing is `field,value` unless its field or value
    # holds a character that the csv module quotes or refuses.
    assert _emitted_csv(record) == flat_csv(record)


def test_a_quoted_cell_costs_only_its_own_line(monkeypatch, capsys):
    # The three basket labels of `inspect 2 1` come last, after 280 plain lines.
    calls, line = [], pieces.csv_line
    for module in (cli, pieces):
        monkeypatch.setattr(module, "csv_line", lambda row: calls.append(row) or line(row))
    code, out, _ = run_cli(capsys, "--format", "csv", "inspect", "2", "1")
    quoted = [text for text in out.split("\n") if '"' in text]
    assert code == 0
    assert len(calls) == len(quoted) == 4


def _builder_records(params, a, b) -> list:
    """The records of classify, inspect and nef at (d, d0), and of moduli and
    kobayashi where they have one."""
    d, d0 = params.d, params.d0
    records = [
        cli.classify_record(params),
        cli.inspect_record(params),
        cli.nef_record(d, d0, a, b),
    ]
    if d >= 3:
        records.append(cli.moduli_record(3 * d - 2))
    blowup = kobayashi_params(params)
    if blowup[0] >= blowup[1] >= 0:
        records.append(cli.kobayashi_record(*blowup))
    return records


@settings(max_examples=40, deadline=None)
@given(bundle_params(d_max=200), st.integers(-20, 20), st.integers(-20, 20))
def test_json_of_every_record_builder_matches_the_standard_library(params, a, b):
    for record in _builder_records(params, a, b):
        assert _emitted_json(record) == json.dumps(record, indent=2) + "\n"


@settings(max_examples=40, deadline=None)
@given(bundle_params(d_max=200), st.integers(-20, 20), st.integers(-20, 20))
def test_csv_of_every_record_builder_matches_the_oracle(params, a, b):
    for record in _builder_records(params, a, b):
        assert _emitted_csv(record) == flat_csv(record)


def test_json_of_fixed_records_matches_the_standard_library(capsys):
    # The monomials listing is written by its own writer, a block at a time.
    for m in range(41):
        out = run_cli(capsys, "--format", "json", "monomials", str(m))[1]
        assert out == json.dumps(monomials_record(m), indent=2) + "\n", m
    records = [cli.flip_record(d) for d in (2, 3, 4)]
    records += [cli.bundle_record(*args) for args in ((1, 10, 10), (0, 2, 1), (0, -1, 0))]
    records += [cli.nef_record(8, 7, 1, -9), cli.inspect_record(noetherline.BundleParams(5, 1))]
    capsys.readouterr()
    for record in records:
        assert _emitted_json(record) == json.dumps(record, indent=2) + "\n"


class _Count(int):
    """An int subclass that is not bool: a record never holds one."""


class _Text(str):
    """A str subclass: a record never holds one."""


@pytest.mark.parametrize("value", [
    (1, 2), 1.5, Fraction(1, 2), SingularityKind.SMOOTH, ImageKind.CONE,
    {"a": [1, (2,)]}, [{"b": 0.0}], {"c": Fraction(3, 4)}, [SingularityKind.SMOOTH],
    {1: "one"}, {None: 0},
    # Items a container would write in place if it tested types loosely.
    {"k": SingularityKind.SMOOTH}, {"k": _Count(3)}, {"k": _Text("x")},
    [_Count(0)], [_Text("")], [1, "a", ImageKind.CONE],
])
def test_json_writer_rejects_types_no_record_holds(value):
    with pytest.raises(TypeError):
        _emitted_json(value)


def test_monomials_degree_is_capped_before_enumerating(tmp_path, monkeypatch, capsys):
    def enumerate_monomials(m):
        calls.append(m)
        return ()

    calls = []
    monkeypatch.setattr(cli, "enumerate_monomials", enumerate_monomials)
    target = tmp_path / "rows.csv"
    for argv in (["monomials", "301"], ["--output", str(target), "monomials", "301"]):
        assert run_cli(capsys, *argv) == (2, "", "error: need 0 <= m <= 300\n")
    assert not target.exists() and calls == []
    # Within the cap the degree is enumerated once.  Every degree lists
    # x0^m, so the stub's empty tuple is no enumeration, and is refused.
    with pytest.raises(CrossCheckError, match="ends before its last block"):
        main(["monomials", "300"])
    assert calls == [300]


# SHA-256 of the oracle's bytes for the two longest listings, in each
# format: the UTF-8 of the parts of `monomials_output(fmt,
# monomials_record(m))`, hashed in order.  The oracle's indented `json.dumps`
# of them takes seconds in pure Python, so it was run once to record these.
ORACLE_DIGESTS = {
    (299, "text"): "5ac61aef7e6111b3104734d99877df344f91a564168902a7d279b53b24e0ee62",
    (299, "csv"): "238c180643c8dd31fd148fce433f84eeda53350527cc95f797777644319fd5fa",
    (299, "json"): "44b3a4844b22da3cfcf23f3af2126dcc041b7f228651e033c62fdf38630fdf5f",
    (300, "text"): "624643fe690bf4c8049267cab48a801e9557e8715bd7137d70858fffc40f8942",
    (300, "csv"): "51489dcfc805b6608d2b626b4ca8c9ef673e32bbb97b53bb2fa838fdddba27a2",
    (300, "json"): "f8a798c4b3aa9e617c770bafe889ffac0f14f46d14f45c4e5a9106c0c12f6444",
}


# Degrees up to 60 hold every block shape (rest 0 to 3, all edge rows, and
# longer blocks with an interior) at every (a5, a2) near the start; 84, 147
# and 150 have recorded digests, and 299 and 300 are the longest listings,
# compared with the digests of the oracle's bytes.
@pytest.mark.parametrize("m", [*range(61), 84, 147, 150, 299, 300])
def test_monomials_listing_matches_the_per_monomial_oracle(capsys, m):
    record = None if (m, "text") in ORACLE_DIGESTS else monomials_record(m)
    try:
        for fmt in ("text", "csv", "json"):
            code, out, _ = run_cli(capsys, "--format", fmt, "monomials", str(m))
            assert code == 0
            if record is None:
                assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ORACLE_DIGESTS[m, fmt]
                continue
            # The oracle's parts, compared with the output 4096 at a time.
            parts, pos = monomials_output(fmt, record), 0
            while expected := "".join(itertools.islice(parts, 4096)):
                assert out[pos:pos + len(expected)] == expected, (fmt, pos)
                pos += len(expected)
            assert pos == len(out), fmt
    finally:
        linear_system.enumerate_monomials.cache_clear()


class _LargestWrite:
    """Standard output that keeps only the length of its largest write."""

    largest = 0

    def write(self, text):
        self.largest = max(self.largest, len(text))
        return len(text)

    def writelines(self, lines):
        for text in lines:
            self.write(text)

    def flush(self):
        pass


def test_a_long_listing_is_never_one_write(monkeypatch):
    # `monomials 300` is 11 MB as text and 54 MB as JSON.
    for fmt in ("text", "csv", "json"):
        sink = _LargestWrite()
        monkeypatch.setattr(sys, "stdout", sink)
        try:
            assert main(["--format", fmt, "monomials", "300"]) == 0
        finally:
            monkeypatch.undo()
        assert 0 < sink.largest <= 2**20, fmt
    linear_system.enumerate_monomials.cache_clear()


# Each format's separator between a0 and a1; text has none.
_PAIR_SEPS = {"text": None, "csv": ",", "json": ',\n      "a1": '}


def test_listings_in_one_process_do_not_depend_on_what_ran_before(capsys, monkeypatch):
    """Listings of several degrees, formats rotating, in one process: each is
    its recorded digest or the oracle's bytes, whichever lists were built
    before it, and the block pairs then hold exactly the rests of the blocks
    listed so far (none above the largest degree), with no separator but the
    formats' fixed ones."""
    monkeypatch.setattr(cli, "_PAIRS", type(cli._PAIRS)())
    expected_keys = set()
    try:
        for m, fmt in [(150, "text"), (7, "csv"), (84, "json"), (0, "text"), (150, "csv"), (299, "json")]:
            code, out, _ = run_cli(capsys, "--format", fmt, "monomials", str(m))
            assert code == 0
            digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
            if (fmt, f"monomials {m}") in COMMAND_DIGESTS:
                assert digest == COMMAND_DIGESTS[fmt, f"monomials {m}"][1], (m, fmt)
            elif (m, fmt) in ORACLE_DIGESTS:
                assert digest == ORACLE_DIGESTS[m, fmt], (m, fmt)
            else:
                assert out == "".join(monomials_output(fmt, monomials_record(m))), (m, fmt)
            rests = {m - 2 * a2 - 5 * a5 for a5 in range(m // 5 + 1) for a2 in range((m - 5 * a5) // 2 + 1)}
            expected_keys |= {(rest, sep) for rest in rests for sep in {None, _PAIR_SEPS[fmt]}}
            assert set(cli._PAIRS) == expected_keys, (m, fmt)
    finally:
        linear_system.enumerate_monomials.cache_clear()


@pytest.mark.parametrize("m", [0, 1, 2, 5, 12, 30, 150])
def test_each_written_string_of_a_listing_ends_with_a_block(m):
    """Every string of a listing's rows ends with a block's last row, the one
    with a0 = 0, and holds fewer than `RUN` rows before its last block; every
    string but the last holds `RUN` rows or more.  The three formats break
    their rows into strings at the same rows."""
    record = cli.monomials_record(m)
    csv_strings = list(cli._monomials_csv(record))[1:]
    sizes = [text.count("\n") for text in csv_strings]
    assert sum(sizes) == record["count"]
    assert all(size >= pieces.RUN for size in sizes[:-1])
    for text in csv_strings:
        last = [*map(int, text.splitlines()[-1].split(",")[:4])]
        assert last[0] == 0, (m, last)
        # The last block's rows are its rest + 1 = a1 + 1 of its last row.
        assert text.count("\n") - (last[1] + 1) < pieces.RUN
    assert [text.count("\n") for text in list(cli._monomials_text(record))[1:]] == sizes
    json_strings = list(cli._monomials_json(record))
    assert [text.count('"a0": ') for text in json_strings[:-1]] == sizes


def test_monomials_record_enumerates_once_through_the_cache(monkeypatch):
    # The monomials bench counts `enumerate_monomials` calls and reads its
    # cache size; a listing that bypassed it or dropped the cache would
    # leave those numbers meaningless.
    assert callable(linear_system.enumerate_monomials.cache_info)
    assert cli.enumerate_monomials is linear_system.enumerate_monomials
    calls = []

    def counted(m):
        calls.append(m)
        return linear_system.enumerate_monomials(m)

    monkeypatch.setattr(cli, "enumerate_monomials", counted)
    for m in (0, 10, 84, 84):
        record = cli.monomials_record(m)
        assert record["count"] == len(linear_system.enumerate_monomials(m))
    assert calls == [0, 10, 84, 84]


def test_record_builders_are_looked_up_when_called(monkeypatch, capsys):
    # A wrapper bound to the module after the parser is built, the way a
    # tracer binds one, is the function that runs: each builder's `*_record`
    # function and the `cmd_*` handler that `main` calls.
    cli.build_parser()
    calls = []

    def counting(name, original):
        return lambda *args: calls.append(name) or original(*args)

    for name in ("classify_record", "inspect_record", "flip_record", "cmd_listing", "cmd_record"):
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    for argv in (["classify", "2", "2", "--d0", "1"], ["inspect", "2", "1"], ["flip", "2"]):
        assert run_cli(capsys, *argv)[0] == 0
    assert calls == [
        "cmd_listing", "classify_record", "cmd_record", "inspect_record", "flip_record", "cmd_record", "flip_record",
    ]


def test_readme_command_line_examples_run(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line, comments=True) for line in block.splitlines()]
    examples = [argv for argv in examples if argv[:1] == ["noetherline"]]
    assert len(examples) >= 10
    for argv in examples:
        code, _, err = run_cli(capsys, *argv[1:])
        assert code == 0, (argv, err)


def test_negative_degree_warns_on_every_call(capsys):
    line = "warning: negative characteristic-sheaf degree violates semipositivity\n"
    for _ in range(2):
        code, out, err = run_cli(capsys, "bundle", "0", "-1", "0")
        assert code == 0
        assert err == line
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            COMMAND_DIGESTS["text", "bundle 0 -1 0"][1]
        )


# --- errors and closed pipes, in a fresh interpreter -----------------------------


def _cli_process(*argv, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(Path(noetherline.__file__).parents[1]))
    return subprocess.Popen(
        [sys.executable, "-c", "from noetherline.cli import run; run()", *argv],
        env=env, stderr=subprocess.PIPE, **kwargs,
    )


def test_unwritable_output_is_a_usage_error(tmp_path):
    # A path in a missing directory, and the empty path.
    for target in (str(tmp_path / "missing" / "rows.csv"), ""):
        proc = _cli_process("--output", target, "classify", "0", "3", stdout=subprocess.PIPE)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 2, target
        assert out == b""
        assert err.decode().startswith(f"error: cannot write {target!r}: ")
        assert err.count(b"\n") == 1 and b"Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_usage_error_leaves_the_output_file_alone(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    assert main(["--output", str(target), "classify", "5", "3"]) == 2
    assert not target.exists()
    target.write_text("kept\n", encoding="utf-8")
    assert main(["--output", str(target), "flip", "5"]) == 2
    assert target.read_text(encoding="utf-8") == "kept\n"
    capsys.readouterr()


_NINES = "9" * 4300  # the most digits that `int` parses


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("argv", [
    ("inspect", _NINES, _NINES), ("nef", "3", "2", _NINES, "0"), ("kobayashi", _NINES, _NINES),
], ids=["inspect", "nef", "kobayashi"])
def test_an_integer_past_the_bound_is_a_usage_error(tmp_path, capsys, argv, fmt, to_file):
    """Records whose ints would print past the digits that `str` converts:
    one error line that names the bound, nothing written, no file."""
    target = tmp_path / "out"
    options = ["--output", str(target)] * to_file
    code, out, err = run_cli(capsys, "--format", fmt, *options, *argv)
    assert (code, out) == (2, "")
    name = "d" if argv[0] == "inspect" else "a"
    assert err == f"error: {name}: more than 1000 digits, the bound on an integer argument\n"
    assert "Traceback" not in err and not target.exists()


def test_the_integer_bound_is_1000_digits(capsys):
    """1000 digits pass the bound (a = -10^1000 + 1 fails only as a < e);
    1001 digits fail it, with either sign."""
    assert cli.MAX_DIGITS == 1000
    for a, expected in (("9" * 1000, 0), ("-" + "9" * 1000, 2), ("1" + "0" * 1000, 2), ("-1" + "0" * 1000, 2)):
        code, _, err = run_cli(capsys, "kobayashi", a, "0")
        assert code == expected, a
        assert ("more than 1000 digits" in err) == (len(a.lstrip("-")) > 1000), a


def test_a_record_is_built_before_it_is_written(tmp_path, capsys, monkeypatch):
    """A record whose lines fail to build writes none of them."""
    def failing(fmt, record, render):
        yield "a first line\n"
        raise ValueError("the renderer failed")

    monkeypatch.setattr(cli, "emit", failing)
    target = tmp_path / "out"
    for options in ([], ["--output", str(target)]):
        assert run_cli(capsys, *options, "kobayashi", "3", "2") == (2, "", "error: the renderer failed\n")
    assert not target.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [("inspect", "8", "7"), ("classify", "0", "100")])
def test_a_full_standard_output_is_a_usage_error(argv):
    # A record that fails at the last flush and a listing that fails while
    # rows are written: one error line, exit 2, no traceback.
    with open("/dev/full", "wb") as full:
        proc = _cli_process(*argv, stdout=full)
        err = proc.communicate(timeout=60)[1]
    assert proc.returncode == 2
    assert err.startswith(b"error: cannot write to standard output: ")
    assert err.count(b"\n") == 1 and b"Traceback" not in err


@pytest.mark.parametrize("band", [("0", "3"), ("0", "100")])
def test_closed_pipe_stops_quietly(band):
    # The reader goes away before anything is written: a small output meets
    # the closed pipe at the last flush, a large one while rows are written.
    proc = _cli_process("classify", *band, stdout=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_repeated_main_calls_match_fresh_processes(tmp_path, monkeypatch, capsys):
    # One process calls main again and again; every call must print what a
    # fresh interpreter prints for the same arguments.  A fixed width keeps
    # argparse's usage text independent of the terminal.
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["-f", "json", "inspect", "40", "33"],
        ["inspect", "40", "33"],              # the default format again
        ["classify", "0", "3", "--d0", "1"],
        ["classify", "0", "3"],               # --d0 does not carry over
        ["classify", "5"],                    # usage error
        ["-o", "{out}", "bundle", "1", "3", "2"],
    ]
    assert cli.build_parser() is cli.build_parser()
    for i, argv in enumerate(calls):
        mine, fresh = tmp_path / f"mine{i}", tmp_path / f"fresh{i}"
        code, out, err = run_cli(capsys, *(a.format(out=mine) for a in argv))
        proc = _cli_process(*(a.format(out=fresh) for a in argv), stdout=subprocess.PIPE)
        fresh_out, fresh_err = proc.communicate(timeout=60)
        assert (code, out.encode(), err.encode()) == (proc.returncode, fresh_out, fresh_err), argv
        if argv == ["classify", "5"]:
            assert code == 2 and err.startswith("usage: noetherline classify")
        if "-o" in argv:
            assert mine.read_bytes() == fresh.read_bytes() != b""


# --- the exit-code contract over every argv ----------------------------------

_COMMAND_ARITY = {name: len(ints.split()) for name, (_, ints, _, _) in cli.COMMANDS.items()}
_SMALL = (st.integers(0, 5) | st.integers(0, 12) | st.integers(-3, 60)).map(str)
# Ints on a documented bound and one past it: flip 1 and 5, monomials 301
# (300 itself fills the enumeration cache for the rest of the process),
# classify 10000 and 10001.
_ON_A_BOUND = st.sampled_from(["1", "5", "301", "10000", "10001"])
_DIGITS = st.integers(1, 5000) | st.sampled_from([999, 1000, 1001, 4300, 4301, 5000])
_HUGE = st.builds(lambda n, digit, sign: sign + digit * n, _DIGITS, st.sampled_from("19"),
                  st.sampled_from(["", "-"]))
_MALFORMED = st.sampled_from(["", "x", "1.5", "0x10", "1e3", "-", "--", "--5", " 7", "+4", "1_0", "٣", "7a"])


def _int(token: str) -> int | None:
    """The int that argparse reads from the token, or None."""
    try:
        return int(token)
    except ValueError:
        return None


@st.composite
def _ints(draw, count: int) -> list[str]:
    """count tokens, mostly small ints, up to two of them on a bound, huge or malformed."""
    tokens = draw(st.lists(_SMALL, min_size=count, max_size=count))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if tokens else 0):
        tokens[draw(st.integers(0, count - 1))] = draw(_ON_A_BOUND | _HUGE | _MALFORMED)
    return tokens


@st.composite
def _argvs(draw) -> list[str]:
    """An argv of some command, often malformed: a format option or none,
    "-o {out}" or none, the command and its ints (`_ints`), one too few or
    too many at times.  A classify band that passes its range check has 40
    lines at most, 2 from d = 100 on, where a line has hundreds of rows."""
    fmt = draw(st.sampled_from([[], ["-f", "text"], ["--format", "json"], ["-f", "csv"]]))
    output = draw(st.sampled_from([[], ["-o", "{out}"]]))
    command = draw(st.sampled_from(sorted(_COMMAND_ARITY)))
    ints = draw(_ints(_COMMAND_ARITY[command] + draw(st.sampled_from([0] * 8 + [-1, 1]))))
    if command == "classify":
        low, high = map(_int, ints[:2] + [""] * (2 - len(ints[:2])))
        if low is not None and high is not None and 0 <= low <= high <= 10000:
            ints[1] = str(low + min(high - low, 39 if low < 100 else 1))
        ints += draw(st.sampled_from([[], ["--d0"]])) and ["--d0", *draw(_ints(1))]
    return [*fmt, *output, command, *ints]


def _written(fmt: str, command: str, text: str):
    """What a record or listing as written parses to, by its format."""
    if fmt == "json":
        return [json.loads(line) for line in text.splitlines()] if command == "classify" else json.loads(text)
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        assert len({len(row) for row in rows}) <= 1, rows[:3]
        return rows
    return text


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argvs())
@example(["inspect", _NINES, _NINES])
@example(["nef", "3", "2", _NINES, "0"])
@example(["-o", "{out}", "kobayashi", _NINES, _NINES])
@example(["-f", "json", "inspect", "5", "1"])
@example(["-f", "csv", "-o", "{out}", "classify", "10000", "10000"])
@example(["classify", "10000", "10001"])
@example(["-f", "csv", "flip", "2"])
@example(["inspect", "9", "2"])
def test_every_argv_keeps_the_exit_code_contract(tmp_path, capsys, argv):
    """Exit 0, 2 or 3 without a traceback; exit 2 writes nothing; exit 0
    writes what parses in its format; exit 3 writes inspect's record without
    invariants, or one error line."""
    target = tmp_path / "out"
    argv = [token.replace("{out}", str(target)) for token in argv]
    try:
        code, out, err = run_cli(capsys, *argv)
        fmt = next((argv[i + 1] for i, a in enumerate(argv[:-1]) if a in ("-f", "--format")), "text")
        command = next((a for a in argv if a in _COMMAND_ARITY), None)
        written = target.read_text(encoding="utf-8") if target.exists() else out
        assert code in (0, 2, 3) and "Traceback" not in err, (argv, code, err)
        if target.exists():
            assert out == ""
        if code == 2:
            assert out == "" and not target.exists(), argv
        elif code == 0:
            _written(fmt, command, written)
        elif code == 3 and written:
            assert command == "inspect" and err == "", argv
            record = _written(fmt, command, written)
            if fmt == "json":
                assert "invariants" not in record and record["classification"]["kind"] == "not_existent"
            elif fmt == "csv":
                assert not any(field.startswith("invariants.") for field, _ in record)
            else:
                assert "classification: " in record and "invariants" not in record
        else:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
    finally:
        target.unlink(missing_ok=True)
