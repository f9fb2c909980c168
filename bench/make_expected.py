#!/usr/bin/env python3
"""Pin the answers the benchmark checks against: writes bench/expected.json.

    python3 bench/make_expected.py

Run it only on a commit whose outputs are trusted (the tier-1 tests pass and
nothing is meant to change output); every later run of the benchmark counts
a difference from these answers as a failed operation.

  census   sha256 and record count of each census window the benchmark runs
  setup    stdout of the set-up probe ``cohomology 12;4,4,4,4,2,2``
  pool     base classes of the cli-batch stream: smooth-member families with
           d 10..40 and their payloads for the five class-level commands,
           arbitrary lattice vectors (effective or not) with their cohomology,
           and standard classes without a smooth member
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import batch
from run import SETUP_ARGV, SIZES, SRC

HERE = Path(__file__).resolve().parent
POOL_DEGREES = range(10, 41)
PER_DEGREE = 6
ARBITRARY = 160
POOL_COMMANDS = ("cohomology", "normality", "classify", "hilbert-dim", "kleppe")


def cli_out(cli, argv, stdin=""):
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.run(argv)
    finally:
        sys.stdin = saved
    if code != 0:
        raise SystemExit(f"make_expected.py: {argv} exited {code}")
    return out.getvalue()


def payloads(cli, cmd, classes):
    """Batch JSON payload per class, without the echoed input."""
    text = cli_out(cli, [cmd, "--stdin", "--format", "json"], "".join(c + "\n" for c in classes))
    out = {}
    for cls, line in zip(classes, text.splitlines(), strict=True):
        p = json.loads(line)
        assert p.pop("class") == cls
        out[cls] = p
    return out


def main() -> None:
    sys.path.insert(0, str(SRC))
    from cubiccurves import cli, enumerate_families, has_smooth_member, hodge_genus_bound, DivisorClass

    census = {}
    windows = {SIZES["full"]["window"], SIZES["tiny"]["window"], (10, 20)}
    for lo, hi in sorted(windows):
        argv = ["census", "--d-min", str(lo), "--d-max", str(hi), "--g-min", "0",
                "--g-max", str(hodge_genus_bound(hi)), "--format", "csv"]
        text = cli_out(cli, argv)
        census[f"{lo}..{hi}"] = {"records": text.count("\n") - 1, "sha256": hashlib.sha256(text.encode()).hexdigest()}

    smooth = []
    for d in POOL_DEGREES:
        fams = [c for g in range(hodge_genus_bound(d) + 1) for c in enumerate_families(d, g)]
        smooth += [str(c) for c in random.Random(d).sample(fams, PER_DEGREE)]
    per_cmd = {cmd: payloads(cli, cmd, smooth) for cmd in POOL_COMMANDS}

    rng = random.Random(7)
    arbitrary = sorted({f"{rng.randint(-8, 24)};{','.join(str(rng.randint(-6, 12)) for _ in range(6))}"
                        for _ in range(ARBITRARY)})
    arbitrary_cohomology = payloads(cli, "cohomology", arbitrary)

    nonsmooth = []
    rng = random.Random(11)
    while len(nonsmooth) < 24:
        a = rng.randint(1, 20)
        b = sorted((rng.randint(0, a // 3) for _ in range(5)), reverse=True)
        if rng.random() < 0.5:
            b = [a] + [0] * 5  # a pencil of conics, a = b1
        else:
            b.append(-rng.randint(1, 3))  # b6 < 0
        c = DivisorClass(a, tuple(b))
        if batch.reduce_ref((c.a, c.b))[0] == (c.a, c.b) and not has_smooth_member(c) and str(c) not in nonsmooth:
            nonsmooth.append(str(c))

    data = {
        "census": census,
        "setup": {"argv": SETUP_ARGV, "stdout": cli_out(cli, SETUP_ARGV)},
        "pool": {
            "smooth": {c: {cmd: per_cmd[cmd][c] for cmd in POOL_COMMANDS} for c in smooth},
            "arbitrary": {c: {"cohomology": arbitrary_cohomology[c]} for c in arbitrary},
            "nonsmooth": sorted(nonsmooth),
        },
    }
    (HERE / "expected.json").write_text(json.dumps(data, indent=1, sort_keys=False) + "\n")


if __name__ == "__main__":
    main()
