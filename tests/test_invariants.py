"""Invariant checks are explicit raises, so they survive python -O.

Each case runs the CLI in a python -O subprocess with one input to an
invariant check replaced by a wrong value; the check must still fire and the
CLI must exit 3.  With a bare assert the run would print a wrong answer and
exit 0.
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
    ),
    # the same check on curve_facts' integer path: every twist's h0 and h2
    # read as 0 makes h1 = -chi < 0 for -(C + K)
    "int-path-negative-h1": (
        "importlib.import_module('cubiccurves.curve').h0_ab = lambda a, b: 0",
        ["hilbert-dim", "12;4,4,4,4,2,2"],
    ),
    # every line meeting L = C + 3K at -4 breaks m <= 3 for a smooth member
    "multiplicity-above-3": (
        "importlib.import_module('cubiccurves.curve').line_pairings = lambda a, b: (-4,) * 27",
        ["classify", "12;4,4,4,4,2,2"],
    ),
    # h1 of the normal bundle of (16, 29) read as 0 instead of 1 breaks
    # Riemann-Roch h0(N) = d + g + 18 + h1(I_C(3)) inside verify-paper
    "normal-bundle-riemann-roch": (
        "importlib.import_module('cubiccurves.obstruction').h1_normal = lambda c: 0",
        ["verify-paper"],
    ),
    # every line read as -K, which the generated class meets in d, not k
    "generator-meets-e6-in-k": (
        "ob = importlib.import_module('cubiccurves.obstruction'); ob.lines27 = lambda: (-ob.K,) * 27",
        ["gen-obstructed", "--k", "0"],
    ),
    # the generated class must classify as Obstructed
    "generator-obstructed": (
        "ob = importlib.import_module('cubiccurves.obstruction');"
        " ob.classify = lambda c: ob.ObstructionVerdict(kind='Unobstructed')",
        ["gen-obstructed", "--k", "1"],
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_invariant_violation_exits_3_under_O(case):
    patch, argv = CASES[case]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT.format(patch=patch), SRC, *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("internal error: InvariantViolation(")


def test_unpatched_run_exits_0_under_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT.format(patch=""), SRC, "classify", "12;4,4,4,4,2,2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "kind: Obstructed" in proc.stdout
