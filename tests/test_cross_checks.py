"""Every cross-check between two derivations raises `CrossCheckError`, also
under `python -O`, which strips `assert` statements."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import noetherline
from noetherline import cli, pieces
from noetherline.singularities import cell
from noetherline.toric import BundleParams, CrossCheckError
from oracles import classify_output, classify_rows, monomials_output, monomials_record

# One derivation of each cross-check replaced by a wrong one: (module of the
# package, or the test oracles, attribute, replacement, call that must raise),
# the last two evaluated in the module's namespace.
BROKEN = [
    ("singularities", "local_support_at_s0", "lambda params: frozenset()",
     "classify_general_member(BundleParams(8, 7))"),
    ("linear_system", "h0_class", "lambda c, params: 0",
     "family_dimension(BundleParams(8, 7), coefficient_profile(BundleParams(8, 7)))"),
    ("invariants", "curve_intersection", "lambda c, curve, params: 0",
     "flip_analysis(2)"),
    ("invariants", "_FLIP_DATA", "{2: (((2, 1),), Fraction(9, 4))}",
     "flip_analysis(2)"),
    ("invariants", "coefficient_form", "lambda a0, a1, d, d0: -1",
     "deformation_feasible(BundleParams(4, 4))"),
    ("oracles", "canonical_class_F", "lambda params: (0, 0)",
     "relative_canonical_class(BundleParams(3, 2))"),
    # One piece for a whole band: its rows are advanced across breakpoints.
    ("cli", "row_pieces", "lambda start, step, count: [(0, count)]",
     "list(_classify_records(8, 8, None)())"),
    # K3 a fraction that changes along the line d = 8: no row of the family
    # has one, so its piece fails.
    ("invariants", "quartic_intersection", "lambda c1, c2, c3, c4, params: Fraction(params.d0, 3)",
     "list(__import__('noetherline.cli').cli._classify_records(8, 8, None)())"),
    # The order test's verdict on the pattern of X(20;10), which only the
    # inside of the piece of rows 6 to 17 of d = 20 crosses, flipped.
    ("singularities", "_VERDICTS", "{support_pattern(BundleParams(20, 10)): False}",
     "list(__import__('noetherline.cli').cli._classify_records(20, 20, None)())"),
    # The monomials of degree 12 with x0^6 x1^2 y^2 dropped, then with the
    # last monomial of the block of y^2, x1^8 y^2, and the first of the next
    # swapped.
    ("cli", "enumerate_monomials", "lambda m, f=enumerate_monomials: f(m)[:26] + f(m)[27:]",
     "''.join(_monomials_csv(monomials_record(12)))"),
    ("cli", "enumerate_monomials",
     "lambda m, f=enumerate_monomials: f(m)[:32] + f(m)[33:34] + f(m)[32:33] + f(m)[34:]",
     "''.join(_monomials_json(monomials_record(12)))"),
    # pg one higher on the last line of `classify 30 40` only: the map of a
    # cell, fit to rows of d = 30 and d = 40, misses one of its derived rows.
    ("cli", "classify_record",
     "lambda p, f=classify_record: {k: v + (k == 'pg' and p.d == 40) if type(v) is int else v"
     " for k, v in f(p).items()}",
     "list(_classify_records(30, 40, None)())"),
    # pg one higher at X(40;40) only: the map of the ray d0 = d, fit to its
    # rows at d = 30 and d = 31, misses its anchor at d = 40.
    ("cli", "classify_record",
     "lambda p, f=classify_record: {k: v + (k == 'pg' and (p.d, p.d0) == (40, 40)) if type(v) is int"
     " else v for k, v in f(p).items()}",
     "list(_classify_records(30, 40, None)())"),
    # The piece of rows 31 to 34 of d = 35, inside the terminal points cell,
    # merged with the row d0 = d after it: its last row leaves the cell.
    ("cli", "row_pieces",
     "lambda start, step, count, f=row_pieces: [(lo, hi + (start == (35, 0) and hi == 35))"
     " for lo, hi in f(start, step, count) if start != (35, 0) or lo != 35]",
     "list(_classify_records(30, 40, None)())"),
    # The same on d = 30 of `classify 0 40`, a line that the plan, its lines
    # 0 to 28 and 33 to 40, does not cut: its last two pieces merged.
    ("cli", "row_pieces",
     "lambda start, step, count, f=row_pieces: [*f(start, step, count)[:-2], (f(start, step, count)[-2][0], count)]"
     " if start == (30, 0) else f(start, step, count)",
     "list(_classify_records(0, 40, None)())"),
    # A cell met only on d = 60, which the plan of `classify 0 100` does not cut.
    ("cli", "cell", "lambda d, d0, f=cell: f(d, d0) + (d == 60,)", "list(_classify_records(0, 100, None)())"),
    # The last planned anchor of each cell one row on: that of the cell
    # without a member moves to X(40;10), which has one.
    ("cli", "_plan",
     "lambda lines, f=_plan: (lambda known, anchors: (known, {key: [*points[:-1], (points[-1][0],"
     " points[-1][1] + 1)] for key, points in anchors.items()}))(*f(lines))",
     "list(_classify_records(30, 40, None)())"),
    # Every piece of `classify 0 40` with its columns one higher on its last
    # row, then with a flag of its marked record changed: the last row as
    # the writers write it is not the map's.
    ("pieces", "Piece",
     "lambda marked, columns, f=Piece: f(marked,"
     " {name: [*values[:-1], values[-1] + 1] for name, values in columns.items()})",
     "list(__import__('noetherline.cli').cli._classify_records(0, 40, None)())"),
    ("pieces", "Piece",
     "lambda marked, columns, f=Piece: f(marked.update(K_nef=None) or marked, columns)",
     "list(__import__('noetherline.cli').cli._classify_records(0, 40, None)())"),
    # The order test's verdict flipped on the pattern of X(2600;1800), which
    # only inner rows of the one canonical curve piece of the band cross,
    # and on that of X(100;60), which the plan of `classify 100 300` tests
    # on the line d = 100 alone, once for its cell.
    ("singularities", "_VERDICTS", "{support_pattern(BundleParams(2600, 1800)): False}",
     "list(__import__('noetherline.cli').cli._classify_records(1550, 6549, 1800)())"),
    ("singularities", "_VERDICTS", "{support_pattern(BundleParams(100, 60)): False}",
     "list(__import__('noetherline.cli').cli._classify_records(100, 300, None)())"),
]

# The id of each row after its module and attribute, by a text of its
# replacement.
SUFFIXES = {
    "f(m)[32:33]": "-swapped", "(35, 0)": "-leaves-its-cell", "(30, 0)": "-leaves-its-cell-off-the-plan", "(40, 40)": "-on-a-ray",
    "columns.items()": "-last-column", "marked.update": "-marked", "(2600, 1800)": "-on-a-band",
    "(100, 60)": "-once-per-cell",
}

SCRIPT = """
import importlib, sys
from noetherline.toric import BundleParams, CrossCheckError
name = sys.argv[1]
module = importlib.import_module(name if name == "oracles" else "noetherline." + name)
setattr(module, sys.argv[2], eval(sys.argv[3], vars(module)))
try:
    eval(sys.argv[4], vars(module))
except CrossCheckError as exc:
    print("CrossCheckError:", exc)
"""


@pytest.mark.parametrize(
    "module, attribute, replacement, call", BROKEN,
    ids=[f"{m}.{a}" + "".join(s for text, s in SUFFIXES.items() if text in r) for m, a, r, _ in BROKEN],
)
def test_cross_check_raises_under_optimization(module, attribute, replacement, call):
    paths = (Path(noetherline.__file__).parents[1], Path(__file__).parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    done = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT, module, attribute, replacement, call],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("CrossCheckError: "), done.stdout + done.stderr


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("change, bad", [
    (lambda monos: monos[:310] + monos[311:], 306),  # x0^17 x1^4 y^2 z dropped
    (lambda monos: monos[:327] + monos[328:329] + monos[327:328] + monos[329:], 306),  # across a block end
    (lambda monos: monos[:-1], 679),  # the last block, z^6, dropped
    (lambda monos: monos + monos[-1:], 680),  # a block after the last one
], ids=["dropped", "swapped", "last-block-dropped", "extra-block"])
def test_no_row_of_a_failing_monomials_block_is_written(monkeypatch, tmp_path, fmt, change, bad):
    """A listing of degree 30 whose monomials are not the blocks of the
    enumeration: `CrossCheckError`, with rows of the blocks before the bad
    one written and none of its own."""
    monos = cli.enumerate_monomials(30)
    assert (monos[306].a1, monos[327].a1, monos[328].a1, len(monos)) == (0, 21, 0, 680)
    assert cli._monomial_label(monos[-1]) == "z^6"
    monkeypatch.setattr(cli, "enumerate_monomials", lambda m: change(monos))
    target = tmp_path / "rows"
    with pytest.raises(CrossCheckError):
        cli.main(["--format", fmt, "--output", str(target), "monomials", "30"])
    # The rows after the header, whose count is the changed tuple's length.
    start = '"monomials": [' if fmt == "json" else "\n"
    written = target.read_text(encoding="utf-8").partition(start)[2]
    expected = "".join(monomials_output(fmt, monomials_record(30))).partition(start)[2]
    assert expected.startswith(written)
    assert 0 < (written.count('"label"') if fmt == "json" else written.count("\n")) <= bad


def test_no_row_of_a_cell_whose_map_fails_is_written(monkeypatch, tmp_path):
    """pg one higher on the rows of d = 40 with terminal points: the map of
    the terminal points cell of `classify 30 40`, fit to rows of d = 30 and
    d = 40, misses a derived row, and `CrossCheckError` is raised before any
    row of the cell is written, while the rows before it, of other cells,
    are."""
    original = cli.classify_record

    def shifted(params):
        record = original(params)
        if params.d == 40 and record["class"] == "terminal_points":
            record["pg"] += 1
        return record

    monkeypatch.setattr(cli, "classify_record", shifted)
    target = tmp_path / "rows.csv"
    with pytest.raises(CrossCheckError, match="differs from the cell's map"):
        cli.main(["--format", "csv", "--output", str(target), "classify", "30", "40"])
    rows = list(classify_rows(30, 40, None))
    text = target.read_text(encoding="utf-8")
    written = len(text.splitlines()) - 1
    assert text == classify_output("csv", rows[:written])
    failing = cell(rows[written]["d"], rows[written]["d0"])
    assert rows[written]["class"] == "terminal_points"
    assert failing not in {cell(r["d"], r["d0"]) for r in rows[:written]}
    assert len({r["class"] for r in rows[:written]}) > 1


def test_no_row_of_a_ray_whose_map_fails_is_written(monkeypatch, tmp_path):
    """pg one higher at X(40;40) only: the map of the ray d0 = d in
    `classify 30 40`, fit to its rows at d = 30 and d = 31, misses its
    anchor at d = 40, and `CrossCheckError` is raised before the ray's first
    row, X(30;30), is written, while the rows before it are."""
    original = cli.classify_record

    def shifted(params):
        record = original(params)
        if (params.d, params.d0) == (40, 40):
            record["pg"] += 1
        return record

    monkeypatch.setattr(cli, "classify_record", shifted)
    target = tmp_path / "rows.csv"
    with pytest.raises(CrossCheckError, match="differs from the cell's map"):
        cli.main(["--format", "csv", "--output", str(target), "classify", "30", "40"])
    rows = list(classify_rows(30, 40, None))
    text = target.read_text(encoding="utf-8")
    written = len(text.splitlines()) - 1
    assert text == classify_output("csv", rows[:written])
    assert (rows[written]["d"], rows[written]["d0"]) == (30, 30)


def test_a_line_cells_map_refuses_a_point_off_its_line():
    """The map of the ray d0 = d through three of its rows gives the ray's
    rows, and refuses a row, or a piece that ends, off the ray."""
    build = pieces.row_map([(30, 30), (31, 31), (40, 40)], cli.classify_record)
    assert build((35, 35), (0, 1), 1).marked == cli.classify_record(BundleParams(35, 35))
    with pytest.raises(CrossCheckError, match="off the span"):
        build((35, 36), (0, 1), 1)
    with pytest.raises(CrossCheckError, match="off the span"):
        build((35, 35), (0, 1), 2)


def test_the_library_holds_no_assert():
    # A cross-check that is an `assert` would be gone under `python -O`.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(noetherline.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_the_library_imports_no_warnings():
    # A diagnostic is data that the CLI prints, not a Python warning.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(noetherline.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             for name in ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                          else [node.module] if isinstance(node, ast.ImportFrom) and not node.level
                          else [])
             if name.partition(".")[0] == "warnings"]
    assert found == []
