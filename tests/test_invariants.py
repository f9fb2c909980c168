"""Invariant checks are explicit raises, so they survive python -O.

Each case runs the CLI in a python -O subprocess with one input to an
invariant check replaced by a wrong value; the check must still fire and the
CLI must exit 3.  With a bare assert the run would print a wrong answer and
exit 0.  Each case names a fragment of its check's message, so it cannot
pass by tripping a different invariant.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import cubiccurves

SRC = str(Path(cubiccurves.__file__).resolve().parent.parent)

SCRIPT = """
import importlib, sys
sys.path.insert(0, sys.argv[1])
if not sys.flags.optimize:
    sys.exit("not running under -O")
from cubiccurves import cli
{patch}
sys.exit(cli.run(sys.argv[2:]))
"""

CASES = {
    # h1 = h0 + h2 - chi < 0 once h0 reads as 0
    "negative-h1": (
        "importlib.import_module('cubiccurves.cohomology').h0 = lambda d: 0",
        ["cohomology", "12;4,4,4,4,2,2"],
        "negative h1 for",
    ),
    # the same check on curve_facts' integer path: every twist's h0 and h2
    # read as 0 makes h1 = -chi < 0 for -(C + K)
    "int-path-negative-h1": (
        "importlib.import_module('cubiccurves.curve').h0_ab = lambda a, b: 0",
        ["hilbert-dim", "12;4,4,4,4,2,2"],
        "negative h1 for",
    ),
    # every line meeting L = C + 3K at -4 breaks m <= 3 for a smooth member
    "multiplicity-above-3": (
        "importlib.import_module('cubiccurves.curve').line_pairings = lambda a, b: (-4,) * 27",
        ["classify", "12;4,4,4,4,2,2"],
        "fixed multiplicity 4 > 3",
    ),
    # h2 = h0(C + 4K) read one too high on obstruction's facts makes h0(N)
    # of (16, 29) 66, which breaks Riemann-Roch h0(N) = d + g + 18 +
    # h1(I_C(3)) = 65 inside verify-paper
    "normal-bundle-riemann-roch": (
        "import dataclasses; ob = importlib.import_module('cubiccurves.obstruction'); facts = ob.curve_facts;"
        " ob.curve_facts = lambda c: dataclasses.replace(f := facts(c), h2=f.h2 + 1)",
        ["verify-paper"],
        "h0(N) = ",
    ),
    # the same identity on the census record path: with h2 read one too high
    # on census facts, the (10, 0) record would read an interval [39, 40],
    # which starts below 4d = 40
    "census-normal-bundle-riemann-roch": (
        "import dataclasses; ce = importlib.import_module('cubiccurves.census'); facts = ce._standard_facts;"
        " ce._standard_facts = lambda *a: dataclasses.replace(f := facts(*a), h2=f.h2 + 1)",
        ["census", "--d-min", "10", "--d-max", "10", "--g-min", "0", "--g-max", "0"],
        "h0(N) = 41 but d+g+18+h1(I_C(3)) = 40",
    ),
    # every line read as -K, which the generated class meets in d, not k
    "generator-meets-e6-in-k": (
        "ob = importlib.import_module('cubiccurves.obstruction'); ob.lines27 = lambda: (-ob.K,) * 27",
        ["gen-obstructed", "--k", "0"],
        "meets e6 in",
    ),
    # an enumerated class is checked, not reduced: one that is not standard
    # (a W(E6)-moved copy of the (10, 5) family (5; 2,1,1,1,0,0)) must be
    # rejected on the census record path
    "census-class-not-standard": (
        "ce = importlib.import_module('cubiccurves.census');"
        " ce._families_by_genus = lambda d: {5: (ce.DivisorClass.of(5, 1, 1, 2, 1, 0, 0),)}",
        ["census", "--d-min", "10", "--d-max", "10", "--g-min", "5", "--g-max", "5"],
        "is not a standard smooth-member class",
    ),
    # the generated class must classify as Obstructed
    "generator-obstructed": (
        "ob = importlib.import_module('cubiccurves.obstruction');"
        " ob.classify = lambda c: ob.ObstructionVerdict(kind='Unobstructed')",
        ["gen-obstructed", "--k", "1"],
        "classifies as Unobstructed",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_invariant_violation_exits_3_under_O(case):
    patch, argv, fragment = CASES[case]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT.format(patch=patch), SRC, *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("internal error: InvariantViolation(")
    assert fragment in proc.stderr


def test_unpatched_run_exits_0_under_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT.format(patch=""), SRC, "classify", "12;4,4,4,4,2,2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "kind: Obstructed" in proc.stdout
