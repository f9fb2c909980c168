"""CLI surface: parsing, exit codes, formats, batch mode."""

import io
import json

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
