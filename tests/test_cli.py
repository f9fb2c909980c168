"""CLI surface: parsing, exit codes, formats, batch mode."""

import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import cubiccurves
from cubiccurves.cli import parse_class, parse_class_text, run
from cubiccurves.lattice import DivisorClass

import pytest

D = DivisorClass.of


def test_parse_class():
    assert parse_class("12;4,4,4,4,2,2") == D(12, 4, 4, 4, 4, 2, 2)
    assert parse_class(" -3;-1,-1,-1,-1,-1,-1 ") == D(-3, -1, -1, -1, -1, -1, -1)
    assert parse_class_text("2;1,1,0,0,0", 5) == (2, (1, 1, 0, 0, 0))


@pytest.mark.parametrize(
    "text,caret_at",
    [
        ("12;4,4,4,x,2,2", 9),
        ("12,4", 2),
        ("12;4,4,4,4,2", 12),
        ("12;4,4,4,4,2,2,9", 14),
        ("", 0),
    ],
)
def test_parse_class_errors(text, caret_at):
    from cubiccurves.cli import ClassParseError

    with pytest.raises(ClassParseError) as exc:
        parse_class(text)
    assert exc.value.pos == caret_at
    rendered = exc.value.render().splitlines()
    assert rendered[2][2 + caret_at] == "^"


def test_exit_code_usage(capsys):
    assert run([]) == 1
    assert run(["bogus"]) == 1
    assert run(["reduce"]) == 1  # missing CLASS
    assert run(["cohomology", "1;2,3"]) == 1
    err = capsys.readouterr().err
    assert "^" in err


def test_exit_code_precondition(capsys):
    assert run(["hilbert-dim", "3;1,1,1,1,1,1"]) == 2  # d=3, too small
    assert run(["hilbert-dim", "-3;-1,-1,-1,-1,-1,-1"]) == 2  # negative a accepted, d=3
    assert run(["classify", "1;1,1,1,0,0,0"]) == 2  # no smooth member
    assert "error:" in capsys.readouterr().err


def test_negative_a_class_accepted(capsys):
    assert run(["cohomology", "-3;-1,-1,-1,-1,-1,-1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["h0"], payload["h2"]) == (0, 1)  # the canonical class


def test_help_exits_zero(capsys):
    assert run(["-h"]) == 0
    out = capsys.readouterr().out
    assert "census" in out
    assert "oracle-h0" not in out  # hidden
    assert run(["reduce", "-h"]) == 0


def test_hilbert_dim_json(capsys):
    assert run(["hilbert-dim", "12;4,4,4,4,2,2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == {"kind": "exact", "value": 64, "method": "prop-4.5"}
    assert (payload["d"], payload["g"], payload["h1_ic3"], payload["h2"]) == (16, 29, 2, 1)


def test_reduce_json_word(capsys):
    assert run(["reduce", "2;1,1,1,0,0,0", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["standard"] == "1;0,0,0,0,0,0"
    assert payload["word"] == [{"cremona": [1, 2, 3]}]


def test_classify_json(capsys):
    assert run(["classify", "12;4,4,4,4,4,2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "Obstructed"
    assert payload["rule"] == "m=1"


def test_gen_obstructed_cli(capsys):
    assert run(["gen-obstructed", "--k", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["class"] == "12;4,4,4,4,4,2"
    assert payload["verdict"]["kind"] == "Obstructed"
    assert run(["gen-obstructed", "--k", "7"]) == 2
    assert run(["gen-obstructed", "--k", "1", "--dprime", "0;1,0,0,0,0"]) == 2


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "payload.json"
    assert run(["invariants", "12;4,4,4,4,2,2", "--format", "json", "--out", str(target)]) == 0
    assert target.read_text() == capsys.readouterr().out


def test_stdin_batch_json(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("12;4,4,4,4,2,2\n\n12;4,4,4,4,4,2\n"))
    assert run(["invariants", "--stdin", "--format", "json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["d"] == 16
    assert json.loads(lines[1])["d"] == 14


def test_stdin_batch_csv(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("12;4,4,4,4,2,2\n12;4,4,4,4,4,2\n"))
    assert run(["cohomology", "--stdin", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "class,h0,h1,h2,chi"
    assert len(lines) == 3


def test_stdin_conflicts_with_class(capsys):
    assert run(["invariants", "12;4,4,4,4,2,2", "--stdin"]) == 1


def test_census_csv_cli(capsys):
    assert run(["census", "--d-min", "10", "--d-max", "10", "--g-min", "0", "--g-max", "12", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("d,g,a,b1")
    assert all(ln.split(",")[0] == "10" for ln in lines[1:])
    assert run(["census", "--d-min", "9", "--d-max", "10", "--g-min", "0", "--g-max", "5"]) == 2


def test_verify_paper_cli(capsys):
    assert run(["verify-paper", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    rows = out.strip().splitlines()
    assert rows[0] == "check_id,status,detail"
    statuses = [r.split(",")[1] for r in rows[1:]]
    assert statuses.count("FAIL") == 0
    assert statuses.count("FLAGGED") == 1


def test_oracle_h0_subcommand(capsys):
    assert run(["oracle-h0", "3;1,1,1,1,1,1", "--format", "json", "--seed", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["h0"] == 4 and payload["seed"] == 2


def test_oracle_h0_budget_exits_2(capsys):
    # a = 31 is past the oracle's budget of a <= 30: turned away at once
    assert run(["oracle-h0", "31;10,10,-1,0,0,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: class 31;10,10,0,0,0,0 (negative bi clamped to 0) is too large for the "
        "interpolation oracle: a = 31 > 30\n"
    )


def test_oracle_h0_matrix_budget_exits_2(capsys):
    # a = 30 is within the budget on a, but 816 conditions on 496 monomials
    # are past the budget on the condition matrix
    assert run(["oracle-h0", "30;16,16,16,16,16,16"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: class 30;16,16,16,16,16,16 (negative bi clamped to 0) is too large for the "
        "interpolation oracle: its 816 x 496 condition matrix has 404736 > 246016 entries\n"
    )


# sha256 of each command's output in each format, taken before census and
# verify-paper shared one report renderer
RENDERING_SHA256 = {
    ("verify-paper",): {
        "json": "e217a7ed9a4401ad03dd949def697a85ea81a798ad2be2d0f4ac5bcf8543324e",
        "csv": "f2de55828e5d97d2317ff9a2d40f1df19ef151a6029aeb31fcd3c768c8049544",
        "table": "d6146b1f62a2cb0854b40f4ca760bf84b464bbb4cd4708733c0d4be6247316c9",
    },
    ("gen-obstructed", "--k", "1", "--dprime", "1;1,0,0,0,0"): {
        "json": "28f23ccb214ff95173ad8e5a89172d34061ced41ae105937ac5942de72733fb6",
        "csv": "511ed48686e0831fd3a2d112b6f69ba5ff0560c9362dc48b76ec0c97f5853a89",
        "table": "35e970613b3613c66e68f12de057d8d539d94beca898beeb9e0e4723866b0d36",
    },
    ("kleppe", "14;2,2,2,2,2,2"): {
        "json": "6eb70ac10d02c6b8c37c35498524c572f8c466b24da50fefa0dc742408235a18",
        "csv": "d02442f17456efb8d2bea8aba22a15cb23150b762e64924a150bd773680ad899",
        "table": "8857a77b9d84cf1597636183a17714ea3b19444ce2db6969ba6427df335698a9",
    },
    ("invariants", "12;4,4,4,4,2,2"): {
        "json": "f3089f9c3a8937fc7b127df4e7717e403c082027fe57baec8ec237387fb390af",
        "csv": "74e207afa62c6bab7d52fc983aca335b47a12f093f86a5ef85b55b86a0ae7fb7",
        "table": "c7067b1bc1f912efa0cf2b74e3bd55e96b22c464d22df7834b0b8a98799ccf06",
    },
    ("oracle-h0", "3;1,1,1,1,1,1", "--seed", "2"): {
        "json": "68c0a93a84ca6f4c9c46c57e45c55316c6b212b5abd0cbd1423e0d19e2d50512",
        "csv": "261e46dceeec21b89843421e03627a6c63b8e178c47a2cc0ca6fdb32292ec65b",
        "table": "a98d0f50b98605b546ccc727100d1bc2efd34310eb02dfc5393e87c8598cf2df",
    },
}


@pytest.mark.parametrize(
    "argv,fmt",
    [(argv, fmt) for argv, by_fmt in RENDERING_SHA256.items() for fmt in sorted(by_fmt)],
    ids=lambda v: v[0] if isinstance(v, tuple) else v,
)
def test_rendering_bytes_pinned(argv, fmt, capsys):
    assert run([*argv, "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == RENDERING_SHA256[argv][fmt]


def test_cold_import_loads_no_thread_pool():
    # the CLI's cold start imports neither concurrent.futures nor the
    # logging package it pulls in
    src = str(Path(cubiccurves.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import cubiccurves.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'logging')))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
