"""CLI surface: parsing, exit codes, formats, batch mode."""

import csv
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import cubiccurves
from cubiccurves.cli import CLASS_COMMANDS, parse_class, parse_class_text, run
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
        ("١٢;4,4,4,4,2,2", 0),
        ("12;4,4,4,４,2,2", 9),
    ],
)
def test_parse_class_errors(text, caret_at):
    from cubiccurves.cli import ClassParseError

    with pytest.raises(ClassParseError) as exc:
        parse_class(text)
    assert exc.value.pos == caret_at
    rendered = str(exc.value).splitlines()
    assert rendered[2][2 + caret_at] == "^"


NINES = "9" * 1000  # the longest integer the class parser takes
COMMANDS_WITH_A_CLASS = [*CLASS_COMMANDS, "oracle-h0"]


@pytest.mark.parametrize("digits", [1001, 5000])
def test_integers_past_1000_digits_exit_1_with_a_caret(digits, capsys):
    n = "9" * digits
    for text, caret_at in ((f"{n};0,0,0,0,0,0", 0), (f"12;4,-{n},4,4,2,2", 6)):
        for cmd in COMMANDS_WITH_A_CLASS:
            for fmt in ("table", "json", "csv"):
                assert run([cmd, text, "--format", fmt]) == 1, (cmd, fmt)
                captured = capsys.readouterr()
                assert captured.out == ""
                lines = captured.err.splitlines()
                assert lines[2] == " " * (2 + caret_at) + "^ integer longer than 1000 digits"
    assert run(["gen-obstructed", "--k", "1", "--dprime", f"1;1,0,0,0,{n}"]) == 1
    assert capsys.readouterr().err.endswith(" " * 12 + "^ integer longer than 1000 digits\n")


def test_integers_of_1000_digits_run_every_class_command(capsys):
    ten = "1" + "0" * 999
    for text in (
        f"{ten};1,1,1,1,1,1",
        f"{NINES};{'4' * 1000},{'3' * 1000},{'2' * 1000},1,1,1",
        f"-{NINES};0,0,0,0,0,0",
        f"{NINES};-{NINES},0,0,0,0,{NINES}",
    ):
        for cmd in COMMANDS_WITH_A_CLASS:
            for fmt in ("table", "json", "csv"):
                code = run([cmd, text, "--format", fmt])
                captured = capsys.readouterr()
                assert (code, bool(captured.out), bool(captured.err)) in ((0, True, False), (2, False, True)), (cmd, fmt)
    assert run(["cohomology", f"{ten};0,0,0,0,0,0", "--format", "json"]) == 0
    a = 10**999
    assert json.loads(capsys.readouterr().out)["h0"] == (a + 1) * (a + 2) // 2
    assert run(["gen-obstructed", "--k", "1", "--dprime", f"{NINES};1,1,1,1,1"]) == 0


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


def test_line_and_conic_classes_have_a_smooth_member(capsys):
    for line_or_conic, d in (("0;-1,0,0,0,0,0", 1), ("1;1,0,0,0,0,0", 2)):
        assert run(["invariants", line_or_conic, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["smooth_member"] is True
        for command in ("normality", "classify", "kleppe"):
            assert run([command, line_or_conic]) == 0
        assert run(["hilbert-dim", line_or_conic]) == 2
        assert capsys.readouterr().err == f"error: dimension rules require degree > 9, got d={d}\n"


def test_negative_a_class_accepted(capsys):
    assert run(["cohomology", "-3;-1,-1,-1,-1,-1,-1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["h0"], payload["h2"]) == (0, 1)  # the canonical class


VISIBLE = "reduce,invariants,cohomology,normality,classify,hilbert-dim,kleppe,census,gen-obstructed,verify-paper"


def test_help_exits_zero(capsys):
    assert run(["-h"]) == 0
    out = capsys.readouterr().out
    usage = out.split("\n\n")[0].split()  # the usage paragraph, however it wraps
    assert usage == ["usage:", "cubiccurves", "[-h]", "{" + VISIBLE + "}", "..."]  # in table order
    assert "oracle-h0" not in out  # hidden
    for name in VISIBLE.split(","):
        assert run([name, "-h"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: cubiccurves {name} ")
    assert run(["oracle-h0", "-h"]) == 0
    assert "--seed" in capsys.readouterr().out


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
    # an unwritable path prints nothing on stdout and one error line, exit 1
    missing = tmp_path / "no-such-dir" / "payload.json"
    assert run(["invariants", "12;4,4,4,4,2,2", "--out", str(missing)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot write {missing}: No such file or directory\n"


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


@pytest.mark.parametrize("fmt", ["csv", "table", "json"])
@pytest.mark.parametrize("stdin", ["", "\n", "  \n\n"])
def test_empty_stdin_batch_prints_nothing(fmt, stdin, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert run(["cohomology", "--stdin", "--format", fmt]) == 0
    assert capsys.readouterr() == ("", "")


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


def test_verify_paper_failure_exits_1(capsys, monkeypatch):
    # h0 read one too high inside verify: the spot values and the flagged
    # family's engine values both disagree with their quoted values
    import cubiccurves.verify as verify

    h0 = verify.h0
    monkeypatch.setattr(verify, "h0", lambda d: h0(d) + 1)
    assert run(["verify-paper", "--format", "csv"]) == 1
    rows = {r[0]: r[1:] for r in csv.reader(io.StringIO(capsys.readouterr().out))}
    assert rows["engine-spot-values"][0] == "FAIL"
    engine = [2 * lam + 7 for lam in range(9)]
    derived = [2 * lam + 6 for lam in range(9)]
    assert rows["obstruction-space-deg-2lam28"] == ["FAIL", f"engine gave {engine}, derived value is {derived}"]
    assert [s for s, _ in rows.values()].count("FAIL") == 2


def test_verify_paper_flagged_row_runs_the_oracle(monkeypatch):
    # the oracle reading one too high at lam = 8 alone turns the flagged row FAIL
    import cubiccurves.verify as verify

    oracle, last = verify.h0_interpolation, verify._ex_even_deg(8) + 4 * verify.K
    monkeypatch.setattr(verify, "h0_interpolation", lambda c, seed: oracle(c, seed) + (c == last))
    (row,) = [r for r in verify.run_checks() if r.check_id == "obstruction-space-deg-2lam28"]
    engine = [2 * lam + 6 for lam in range(9)]
    assert row == ("obstruction-space-deg-2lam28", "FAIL", f"oracle gave {engine[:8] + [23]}, engine gave {engine}")


def test_oracle_h0_subcommand(capsys):
    assert run(["oracle-h0", "3;1,1,1,1,1,1", "--format", "json", "--seed", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["h0"] == 4 and payload["seed"] == 2


def test_oracle_h0_budget_exits_2(capsys):
    # a = 34 is past the oracle's budget of a <= 33: turned away at once
    assert run(["oracle-h0", "34;10,10,-1,0,0,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: class 34;10,10,0,0,0,0 (negative bi clamped to 0) is too large for the "
        "interpolation oracle: a = 34 > 33\n"
    )
    # no bi is negative, so nothing was clamped and the message says nothing of it
    assert run(["oracle-h0", "34;1,0,0,0,0,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: class 34;1,0,0,0,0,0 is too large for the interpolation oracle: a = 34 > 33\n"
    # a = 33, the edge, is answered: 595 monomials less one condition
    assert run(["oracle-h0", "33;1,0,0,0,0,0", "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["h0"] == 594 and captured.err == ""


def test_oracle_h0_negative_seed_exits_2(capsys):
    # random.Random seeds by |seed|, so seed -1 would repeat seed 1's points
    assert run(["oracle-h0", "12;4,4,4,4,2,2", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0, got -1\n"


def test_oracle_h0_tall_condition_matrix_exits_0(capsys):
    # a = 30 is the one size rule: 816 conditions on 496 monomials are taken
    # on, since only the three lighter points' 408 rows are eliminated
    assert run(["oracle-h0", "30;16,16,16,16,16,16"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "class: 30;16,16,16,16,16,16\nseed: 0\nh0: 0\n"
    assert captured.err == ""


# sha256 of each command's output in each format, taken before census and
# verify-paper shared one report renderer; the verify-paper table's was
# retaken when its first column took the name check_id, as in CSV and JSON
RENDERING_SHA256 = {
    ("verify-paper",): {
        "json": "e217a7ed9a4401ad03dd949def697a85ea81a798ad2be2d0f4ac5bcf8543324e",
        "csv": "f2de55828e5d97d2317ff9a2d40f1df19ef151a6029aeb31fcd3c768c8049544",
        "table": "e938641dff58c32520908a108a3690f290b49e343d492cb631852bad9f10d49a",
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


# an oracle-h0 --stdin batch: the class at the matrix bound, multiplicities
# above a, a single positive bi, tied bi, clamped negative bi, a < 0 and no
# positive bi.  The sha256 of each format was taken before the oracle moved
# the three heaviest points to the coordinate points.
ORACLE_BATCH = (
    "30;17,17,17,8,1,0\n2;5,0,0,0,0,0\n5;0,0,3,0,0,0\n12;4,4,4,4,2,2\n12;5,5,2,2,2,2\n"
    "7;-1,3,-2,2,2,0\n10;1,2,3,4,0,5\n3;4,4,0,0,0,0\n6;7,7,7,1,0,0\n9;3,3,3,3,3,3\n"
    "14;0,-2,6,0,-1,0\n3;1,1,1,1,1,1\n-2;1,1,0,0,0,0\n4;0,-1,0,0,0,0\n20;-3,9,9,4,-1,2\n"
)
ORACLE_BATCH_H0 = [18, 0, 15, 45, 49, 24, 31, 0, 0, 19, 99, 4, 0, 15, 128]
ORACLE_BATCH_SHA256 = {
    "json": "087aa9c41c2aec0129f82c7d5a6696acc7d378754cb18cea302cd43fc5db1696",
    "csv": "26416ef66db8fb405c3d2502ba88e338ab6ec661224a847eff7ac92638a66e52",
    "table": "61951b684bf5ea67c0e7affc118bf351efa527cc31a48e4e4754044280b07561",
}


@pytest.mark.parametrize("fmt", sorted(ORACLE_BATCH_SHA256))
def test_oracle_h0_batch_bytes_pinned(fmt, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(ORACLE_BATCH))
    assert run(["oracle-h0", "--stdin", "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        assert [json.loads(ln)["h0"] for ln in out.splitlines()] == ORACLE_BATCH_H0
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_BATCH_SHA256[fmt]


@pytest.mark.parametrize("module", ["cubiccurves", "cubiccurves.cli"])
def test_python_dash_m_matches_run(module, capsys, monkeypatch):
    # python -m prints the bytes cli.run prints and exits with its code:
    # 0 (also on --stdin), 1 (parse error) and 2 (oracle budget)
    src = str(Path(cubiccurves.__file__).resolve().parent.parent)
    cases = [
        (["invariants", "12;4,4,4,4,2,2"], ""),
        (["cohomology", "--stdin", "--format", "csv"], "12;4,4,4,4,2,2\n3;1,1,1,1,1,1\n"),
        (["invariants", "12;4"], ""),
        (["oracle-h0", "34;10,10,-1,0,0,0"], ""),
    ]
    codes = []
    for argv, stdin in cases:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = run(argv)
        want = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", module, *argv],
            input=stdin,
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert (proc.stdout, proc.stderr, proc.returncode) == (want.out, want.err, code), argv
        codes.append(code)
    assert codes == [0, 0, 1, 2]


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


PUBLIC_NAMES = """
CensusRecord CohomologyTriple Cremona DegeneratePoints DegreeTooSmall DivisorClass DprimeNotNef
GenusOutOfHodgeRange HilbertDimResult InvalidK InvariantViolation K KleppeVerdict NonPositiveDegree NotALine
NotEffective NotSmoothMember ObstructionVerdict OracleTooLarge Perm PointConfig PreconditionError
StandardReduction ZariskiDecomposition abnormality apply_generator apply_word census_csv
census_range classify cohomology conics27 degree enumerate_families euler_char exact_rank fixed_part
gen_obstructed h0 h0_interpolation h0_normal has_smooth_member hilbert_dim hodge_genus_bound invariants
is_effective is_nef is_standard kleppe_verdict lines27 modular_rank point_config
reduce_to_standard require_smooth_member restriction_surjective
""".split()


def test_public_names_are_pinned():
    # the pairing, the canonical class, d+g+18 and h1(N) have one spelling
    # each: x.dot(y), K, a census record's dim_w and curve_facts(c).h2
    assert cubiccurves.__all__ == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 55
    for module in {*cubiccurves._EXPORTS.values(), "cli", "verify"}:
        home = vars(importlib.import_module("cubiccurves." + module))
        assert not {"intersect", "canonical", "ZERO", "flag_dim", "h1_normal"} & home.keys(), module


FOOTPRINT = """
import importlib, sys
sys.path.insert(0, sys.argv[1])
from cubiccurves import cli
assert cli.run(["cohomology", "12;4,4,4,4,2,2"]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "cubiccurves")
want = ["cubiccurves", "cubiccurves.cli", "cubiccurves.cohomology", "cubiccurves.errors", "cubiccurves.lattice"]
assert loaded == want, loaded
import cubiccurves
for name in cubiccurves.__all__:
    home = importlib.import_module("cubiccurves." + cubiccurves._EXPORTS[name])
    obj = getattr(cubiccurves, name)
    assert obj is vars(home)[name], name
    assert getattr(obj, "__module__", home.__name__) == home.__name__, name
assert set(cubiccurves.__all__) <= set(dir(cubiccurves))
try:
    cubiccurves.no_such_name
except AttributeError as e:
    print(e)
"""


# which of four costly stdlib modules a fresh interpreter has loaded after one CLI call
STDLIB_FOOTPRINT = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from cubiccurves import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(sys.argv[2:])
print(code, *[m for m in ("dataclasses", "inspect", "json", "csv") if m in sys.modules])
"""


def test_class_command_imports_only_its_modules():
    # a cohomology call loads cli, errors, lattice and cohomology, and no
    # census, curve, obstruction, oracle or verify; the package re-exports
    # every public name from its home module when the name is first read
    src = str(Path(cubiccurves.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, src], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "module 'cubiccurves' has no attribute 'no_such_name'"
    # no command loads dataclasses or inspect; json and csv load only for their format
    census = ["census", "--d-min", "10", "--d-max", "12", "--g-min", "0", "--g-max", "100"]
    cases = [([name, "12;4,4,4,4,2,2"], "0") for name in CLASS_COMMANDS]
    cases += [
        (["cohomology", "12;4,4,4,4,2,2", "--format", "json"], "0 json"),
        (["cohomology", "12;4,4,4,4,2,2", "--format", "csv"], "0 csv"),
        (census + ["--format", "csv"], "0 csv"),
        (census + ["--format", "json"], "0 json"),
    ]
    for argv, loaded in cases:
        proc = subprocess.run([sys.executable, "-c", STDLIB_FOOTPRINT, src, *argv],
                              capture_output=True, text=True, timeout=60)
        assert (proc.stdout.strip(), proc.stderr) == (loaded, ""), argv
