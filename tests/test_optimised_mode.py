"""python -O and python -OO print the same bytes as python.

The engine's invariants and the oracle's degeneracy checks are checks that
raise, not asserts, so they must hold in every interpreter mode, and no
program text is read off a docstring, which -OO strips.  Each case runs one
CLI command under plain python and under python -O or -OO, side by side, and
compares their stdout; each must exit 0 with nothing on stderr.  The -O fault
cases, which forge a value so that a check must fire, are in
test_invariants.py; test_source_guards.py rejects the constructs that the
two modes change.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubiccurves
from cubiccurves.census import census_range
from cubiccurves.curve import invariants, is_smooth_standard
from cubiccurves.lattice import DivisorClass, is_standard

SRC = str(Path(cubiccurves.__file__).resolve().parent.parent)
CENSUS_16 = ["census", "--d-min", "10", "--d-max", "16", "--g-min", "0", "--g-max", "200"]
# the window that tier-1 pins by sha256, so every census record check runs
# under -O on 6,528 records
CENSUS_30_CSV = ["census", "--d-min", "10", "--d-max", "30", "--g-min", "0", "--g-max", "406", "--format", "csv"]


def _outputs(*runs: tuple[tuple[str, ...], list[str]], stdin: str = "") -> list[str]:
    """The stdout of python FLAGS -m cubiccurves ARGV for each (flags, argv), all started at once."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}  # plain stays plain
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    procs = [
        subprocess.Popen(
            [sys.executable, *flags, "-m", "cubiccurves", *argv],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        for flags, argv in runs
    ]
    outs = []
    for (flags, argv), proc in zip(runs, procs):
        out, err = proc.communicate(stdin, timeout=300)
        assert (proc.returncode, err) == (0, ""), (flags, argv, proc.returncode, err)
        outs.append(out)
    return outs


def _same_under_O(argv: list[str], stdin: str = "") -> str:
    plain, optimised = _outputs(((), argv), (("-O",), argv), stdin=stdin)
    assert plain == optimised, argv
    return plain


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-paper", "--format", "csv"],
        [*CENSUS_16, "--format", "json"],
        [*CENSUS_16, "--format", "table"],
        *(["gen-obstructed", "--k", str(k), "--format", "json"] for k in (0, 1, 2)),
    ],
    ids=lambda argv: "-".join(argv),
)
def test_command_prints_the_same_bytes_under_O(argv):
    assert _same_under_O(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "12;4,4,4,4,2,2"],
        ["classify", "12;4,4,4,4,2,2", "--format", "json"],
        [*CENSUS_16, "--format", "csv", "--threads", "2"],
        ["verify-paper", "--format", "csv"],
    ],
    ids=lambda argv: "-".join(argv),
)
def test_command_prints_the_same_bytes_under_OO(argv):
    # -OO also strips docstrings, so the parser's description must not come from one
    plain, stripped = _outputs(((), argv), (("-OO",), argv))
    assert plain and plain == stripped


def test_census_d10_30_csv_serial_and_forked_under_O():
    # --threads 1 and the forked --threads 2 print the same CSV, plain and
    # under -O, and so do the two interpreter modes
    threads = [[*CENSUS_30_CSV, "--threads", n] for n in ("1", "2")]
    serial = _outputs(((), threads[0]), (("-O",), threads[0]))
    forked = _outputs(((), threads[1]), (("-O",), threads[1]))
    assert serial[0] and serial == forked == [serial[0]] * 2


def _census_classes() -> str:
    """Every census d 10..16 class, one "a;b1,...,b6" line each."""
    records, _ = census_range(10, 16, 0, 200)
    return "".join(f"{r.cls.a};{','.join(map(str, r.cls.b))}\n" for r in records)


def _small_classes() -> str:
    """The standard smooth-member classes with d < 10, where curve_facts'
    genus-range and monotonicity checks run on small classes."""
    lines = []
    for a in range(10):
        for b in itertools.combinations_with_replacement(range(a, -2, -1), 6):
            c = DivisorClass(a, b)
            if is_standard(c) and is_smooth_standard(c) and invariants(c)[0] < 10:
                lines.append(f"{a};{','.join(map(str, b))}\n")
    return "".join(lines)


BATCHES = {"census-d10-16": _census_classes, "d-below-10": _small_classes}
CLASS_RUNS = [
    *(("census-d10-16", cmd) for cmd in ("reduce", "invariants", "cohomology", "classify", "hilbert-dim", "kleppe", "normality")),
    # hilbert-dim turns d <= 9 away with exit 2
    *(("d-below-10", cmd) for cmd in ("classify", "kleppe", "normality")),
]


@pytest.mark.parametrize("classes, cmd", CLASS_RUNS, ids=[f"{cmd}-{classes}" for classes, cmd in CLASS_RUNS])
def test_class_command_on_a_batch_under_O(classes, cmd):
    batch = BATCHES[classes]()
    assert batch.count("\n") > 20
    assert _same_under_O([cmd, "--stdin", "--format", "json"], stdin=batch)


# the oracle at its worst case (33; 13^6), with a single lighter point (only
# p3's shared rows), and on a tall and a small class
@pytest.mark.parametrize("cls", ["33;13,13,13,13,13,13", "12;6,6,6,4,0,0", "30;17,17,17,8,1,1", "12;4,4,4,4,2,2"])
@pytest.mark.parametrize("seed", ["0", "7"])
def test_oracle_h0_under_O(cls, seed):
    assert _same_under_O(["oracle-h0", cls, "--seed", seed, "--format", "json"])
