import csv
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import noetherline
from noetherline import cli
from noetherline.cli import CSV_CLASSIFY_HEADER, main

# The package attribute `invariants` is the function of that name.
invariants_module = importlib.import_module("noetherline.invariants")


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
# band, a band at large d and a band restricted to one d0.
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


def test_classify_classifies_each_row_once(monkeypatch, capsys):
    calls = []
    original = cli.classify_general_member

    def counting(params):
        calls.append(params)
        return original(params)

    # Every module that looks the function up by name.
    monkeypatch.setattr(cli, "classify_general_member", counting)
    monkeypatch.setattr(invariants_module, "classify_general_member", counting)
    code, out, _ = run_cli(capsys, "--format", "csv", "classify", "0", "30")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(calls) == len(rows) == len(set(calls))


# --- errors and closed pipes, in a fresh interpreter -----------------------------


def _cli_process(*argv, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(Path(noetherline.__file__).parents[1]))
    return subprocess.Popen(
        [sys.executable, "-c", "from noetherline.cli import run; run()", *argv],
        env=env, stderr=subprocess.PIPE, **kwargs,
    )


def test_unwritable_output_is_a_usage_error(tmp_path):
    target = tmp_path / "missing" / "rows.csv"
    proc = _cli_process("--output", str(target), "classify", "0", "3")
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err.decode().startswith("error: ") and b"Traceback" not in err
    assert not target.parent.exists()


def test_usage_error_leaves_the_output_file_alone(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    assert main(["--output", str(target), "classify", "5", "3"]) == 2
    assert not target.exists()
    target.write_text("kept\n", encoding="utf-8")
    assert main(["--output", str(target), "flip", "5"]) == 2
    assert target.read_text(encoding="utf-8") == "kept\n"
    capsys.readouterr()


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
