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

FORGED_C_PLUS_2K = (
    "cu = importlib.import_module('cubiccurves.curve'); h0 = cu.h0_ab;"
    " cu.h0_ab = lambda a, b: h0(a, b) + ((a, b) == (6, (2, 2, 2, 2, 0, 0)))"
)

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
        "importlib.import_module('cubiccurves.obstruction').line_pairings = lambda a, b: (-4,) * 27",
        ["classify", "12;4,4,4,4,2,2"],
        "fixed multiplicity 4 > 3",
    ),
    # a later line at m = 4 behind a first line at m = 1, which certifies:
    # the scan stops at its first witness but checks m <= 3 on every line
    # (hilbert-dim reads only the verdict; classify also lists every witness)
    "multiplicity-above-3-after-a-witness": (
        "importlib.import_module('cubiccurves.obstruction').line_pairings = lambda a, b: (-1, -4) + (0,) * 25",
        ["hilbert-dim", "12;4,4,4,4,2,2"],
        "fixed multiplicity 4 > 3",
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
        " ob.verdict_of = lambda f: ob.ObstructionVerdict(kind='Unobstructed')",
        ["gen-obstructed", "--k", "1"],
        "classifies as Unobstructed",
    ),
    # every line read as e1 makes the two fixed lines e5, e6 of (16, 29)'s
    # C + 3K the same line, which meets itself in -1
    "fixed-lines-disjoint": (
        "co = importlib.import_module('cubiccurves.cohomology'); co._LINES = (co._LINES[0],) * 27",
        ["verify-paper"],
        "are not pairwise disjoint",
    ),
    # a nef part read as not nef
    "fixed-part-nef": (
        "importlib.import_module('cubiccurves.cohomology').is_nef = lambda d: False",
        ["verify-paper"],
        "is not nef or meets a fixed line",
    ),
    # the nef part (3; 1,1,1,1,0,0) of (16, 29)'s C + 3K read as
    # (3; 1,1,1,0,0,0), which is nef and meets e5 and e6 in 0 but does not
    # add up to C + 3K with them
    "fixed-part-sum": (
        "co = importlib.import_module('cubiccurves.cohomology'); D = co.DivisorClass;"
        " co.DivisorClass = lambda a, b: D(a, b[:3] + (0, 0, 0))",
        ["verify-paper"],
        "plus the fixed lines is not",
    ),
    # a Hodge bound read as -1 puts every genus out of range
    "normality-genus-range": (
        "importlib.import_module('cubiccurves.curve').hodge_genus_bound = lambda d: -1",
        ["normality", "12;4,4,4,4,2,2"],
        "genus 29 outside [0, -1]",
    ),
    # h0(C + 2K) of (16, 29), C + 2K = (6; 2,2,2,2,0,0), read one too high
    # makes its defects (1, 0, 2): 2-normal but not 1-normal, while C + 2K
    # has positive square and a section
    "normality-monotone": (FORGED_C_PLUS_2K, ["normality", "12;4,4,4,4,2,2"], "is 2-normal but not m-normal"),
    # the same check on the obstruction path: classify builds its facts
    # through the same constructor
    "classify-normality-monotone": (FORGED_C_PLUS_2K, ["classify", "12;4,4,4,4,2,2"], "is 2-normal but not m-normal"),
    # and on the census record path, which builds (16, 29)'s facts there too
    "census-normality-monotone": (
        FORGED_C_PLUS_2K,
        ["census", "--d-min", "16", "--d-max", "16", "--g-min", "29", "--g-max", "29", "--format", "csv"],
        "is 2-normal but not m-normal",
    ),
    # the one restriction test of (15, 25) = (12; 4,4,4,4,4,1), Delta =
    # (0; 0^5, 1) onto a line with target m = 2, has image 0 - 0; h0(Delta)
    # read as 3 puts the image at 3, above the target
    "restriction-image-above-target": (
        "ob = importlib.import_module('cubiccurves.obstruction'); h0 = ob.h0_ab;"
        " ob.h0_ab = lambda a, b: h0(a, b) + 3 * ((a, b) == (0, (0, 0, 0, 0, 0, 1)))",
        ["classify", "12;4,4,4,4,4,1"],
        "restriction image 3 outside [0, 2]",
    ),
    # every line meeting L = C + 3K in 0 makes L nef although h1(-L) and
    # h2(-L) are nonzero
    "adjoint-nef-with-h1-h2": (
        "importlib.import_module('cubiccurves.obstruction').line_pairings = lambda a, b: (0,) * 27",
        ["classify", "12;4,4,4,4,2,2"],
        "is nef while h1(-L) and h2(-L) are nonzero",
    ),
}


def _run_under_O(patch, argv):
    return subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT.format(patch=patch), SRC, *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_invariant_violation_exits_3_under_O(case):
    patch, argv, fragment = CASES[case]
    proc = _run_under_O(patch, argv)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("internal error: InvariantViolation(")
    assert fragment in proc.stderr


def test_point_config_gives_up_after_ten_tries_under_O():
    # no sample in general position: DegeneratePoints, not an InvariantViolation
    proc = _run_under_O(
        "importlib.import_module('cubiccurves.oracle')._general_position = lambda pts: False",
        ["oracle-h0", "12;4,4,4,4,2,2"],
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("internal error: DegeneratePoints('no general-position sample after 10 tries")


def test_unpatched_run_exits_0_under_O():
    proc = _run_under_O("", ["classify", "12;4,4,4,4,2,2"])
    assert proc.returncode == 0, proc.stderr
    assert "kind: Obstructed" in proc.stdout
