"""Family enumeration, census sweeps, CSV shape."""

import csv
import hashlib
import io
import json
import sys
import threading
import time
from collections import Counter
from itertools import combinations_with_replacement

import pytest

from cubiccurves import census, cli, obstruction
from cubiccurves.census import (
    CSV_COLUMNS,
    _standard_coefficients,
    census_csv,
    census_range,
    enumerate_families,
)
from cubiccurves.cli import run
from cubiccurves.curve import has_smooth_member, hodge_genus_bound, invariants
from cubiccurves.errors import DegreeTooSmall, GenusOutOfHodgeRange, NonPositiveDegree
from cubiccurves.lattice import DivisorClass, is_standard
from cubiccurves.obstruction import KleppeVerdict

D = DivisorClass.of

D16G29 = D(12, 4, 4, 4, 4, 2, 2)


def _brute_families(d: int, g: int) -> set[DivisorClass]:
    # independent re-enumeration: all descending b >= 0 with a > b1,
    # a >= b1+b2+b3, degree d, genus g
    out = set()
    for a in range(0, d + 1):
        total = 3 * a - d
        if total < 0:
            continue
        for b1 in range(min(a - 1, total), -1, -1):
            for b2 in range(min(b1, total - b1), -1, -1):
                for b3 in range(min(b2, total - b1 - b2, a - b1 - b2), -1, -1):
                    for b4 in range(min(b3, total - b1 - b2 - b3), -1, -1):
                        for b5 in range(min(b4, total - b1 - b2 - b3 - b4), -1, -1):
                            b6 = total - b1 - b2 - b3 - b4 - b5
                            if not 0 <= b6 <= b5:
                                continue
                            c = D(a, b1, b2, b3, b4, b5, b6)
                            if invariants(c) == (d, g):
                                out.add(c)
    return out


@pytest.mark.parametrize("d,g", [(10, 0), (12, 9), (14, 24), (16, 29), (16, 25)])
def test_enumeration_matches_brute_force(d, g):
    got = set(enumerate_families(d, g))
    assert got == _brute_families(d, g)
    for c in got:
        assert is_standard(c) and c.a > c.b[0] and c.b[5] >= 0


def test_families_are_the_smooth_member_classes_from_degree_3():
    # a family needs a > b1 and b6 >= 0, which the 27 lines (standard form
    # (0; 0,0,0,0,0,-1), d = 1) and the 27 conic classes ((1; 1,0,0,0,0,0),
    # d = 2) fail, though each has a smooth member
    assert enumerate_families(1, 0) == () and enumerate_families(2, 0) == ()
    assert has_smooth_member(D(0, 0, 0, 0, 0, 0, -1)) and has_smooth_member(D(1, 1, 0, 0, 0, 0, 0))
    # from d = 3 on: every standard class with a <= 10 and each bi >= -1
    standard = [
        D(a, *b)
        for a in range(11)
        for b in combinations_with_replacement(range(a, -2, -1), 6)
        if a >= b[0] + b[1] + b[2] and 3 * a - sum(b) >= 3
    ]
    smooth = {c for c in standard if has_smooth_member(c)}
    families = {c for d in range(3, 31) for g in range(hodge_genus_bound(d) + 1) for c in enumerate_families(d, g)}
    assert smooth == {c for c in families if c.a <= 10}
    assert (len(smooth), len(standard)) == (710, 2153)


def test_enumeration_membership():
    assert D16G29 in enumerate_families(16, 29)
    assert D(12, 4, 4, 4, 4, 4, 2) in enumerate_families(14, 24)


def test_enumeration_exhaustive_over_degree():
    # every family of degree 12 appears in exactly one genus bucket
    buckets = {}
    for g in range(0, hodge_genus_bound(12) + 1):
        for c in enumerate_families(12, g):
            assert c not in buckets
            buckets[c] = g
    assert all(invariants(c) == (12, g) for c, g in buckets.items())
    assert len(buckets) == len(_brute_all_degree_12())


def _brute_all_degree_12():
    out = set()
    for g in range(0, hodge_genus_bound(12) + 1):
        out |= _brute_families(12, g)
    return out


def _descending_tuples(total: int, cap: int, head_budget: int):
    """The recursive enumeration the census loop replaced: non-increasing
    6-tuples >= 0 with the given sum, b1 <= cap and b1+b2+b3 <= head_budget,
    in ascending lexicographic order."""

    def rec(pos: int, remaining: int, prev: int, head: int):
        if pos == 6:
            if remaining == 0:
                yield ()
            return
        hi = min(prev, remaining)
        if pos < 3:
            hi = min(hi, head)
        # the remaining slots can absorb at most (6-pos-1)*value more
        for v in range(hi + 1):
            if remaining - v > v * (5 - pos):
                continue
            for rest in rec(pos + 1, remaining - v, v, head - v if pos < 3 else head):
                yield (v,) + rest

    yield from rec(0, total, cap, head_budget)


def test_loop_enumeration_matches_recursive_reference():
    for d in range(1, 41):
        ref = [(a, b) for a in range((d + 2) // 3, d + 1) for b in _descending_tuples(3 * a - d, a - 1, a)]
        assert list(_standard_coefficients(d)) == ref, d


def test_enumeration_param_errors():
    # hodge_genus_bound is the one degree check, whatever the genus
    for d, g in ((0, 0), (0, -1), (-3, 5), (-3, 10**6)):
        with pytest.raises(NonPositiveDegree):
            enumerate_families(d, g)
    with pytest.raises(GenusOutOfHodgeRange):
        enumerate_families(10, hodge_genus_bound(10) + 1)
    with pytest.raises(GenusOutOfHodgeRange):
        enumerate_families(10, -1)


def test_census_range_guards():
    with pytest.raises(DegreeTooSmall):
        census_range(9, 12, 0, 10)
    with pytest.raises(GenusOutOfHodgeRange):
        census_range(10, 12, 5, 4)
    with pytest.raises(GenusOutOfHodgeRange):
        census_range(12, 10, 0, 4)


def test_census_g_max_past_hodge_bound_is_cheap():
    top = hodge_genus_bound(10)
    want = census_range(10, 10, 0, top)
    t0 = time.perf_counter()
    got = census_range(10, 10, 0, 10**12)
    assert time.perf_counter() - t0 < 1.0
    assert got == want
    assert got[1]["cells"] == top + 1 and got[1]["records"] == 20
    assert census_range(10, 10, top + 1, 10**12) == ((), {"cells": 0, "empty_cells": 0, "records": 0})


def _count_calls(monkeypatch, module, name, calls):
    """Count calls of module.name in every cubiccurves namespace that holds it."""
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return orig(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "cubiccurves" and getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)


def test_census_records_are_not_reduced_again(monkeypatch):
    from cubiccurves import curve, lattice

    calls = Counter()
    _count_calls(monkeypatch, lattice, "reduce_to_standard", calls)
    _count_calls(monkeypatch, curve, "invariants", calls)
    _count_calls(monkeypatch, curve, "require_smooth_member", calls)
    census._families_by_genus.cache_clear()
    records, _ = census_range(10, 16, 0, hodge_genus_bound(16))
    assert len(records) == 342
    assert calls["reduce_to_standard"] == 0
    assert calls["require_smooth_member"] == 0
    assert calls["invariants"] <= len(records)


def test_census_window_above_genus_zero():
    # g_min > 0, and d = 10 is clipped at its Hodge bound 36: 7 + 11 * 6 cells
    assert hodge_genus_bound(10) == 36
    records, summary = census_range(10, 16, 30, 40)
    assert summary == {"cells": 73, "empty_cells": 65, "records": 11}
    assert [(r.d, r.g) for r in records] == [
        (15, 30), (15, 31), (16, 30), (16, 30), (16, 31), (16, 31), (16, 32), (16, 33), (16, 33), (16, 34), (16, 35)
    ]


@pytest.mark.parametrize(
    "verdict, text",
    [
        (KleppeVerdict(kind="NotApplicable", failed_hypothesis="d<=9"), "NotApplicable[d<=9]"),
        (KleppeVerdict(kind="NotApplicable", failed_hypothesis="g<3d-18"), "NotApplicable[g<3d-18]"),
        (KleppeVerdict(kind="NotApplicable", failed_hypothesis="not-linearly-normal"), "NotApplicable[not-linearly-normal]"),
        (KleppeVerdict(kind="NotApplicable", failed_hypothesis="h1_ic3=0"), "NotApplicable[h1_ic3=0]"),
        (KleppeVerdict(kind="KnownRange", range_tag="d14-17"), "KnownRange[d14-17]"),
        (KleppeVerdict(kind="KnownRange", range_tag="d18+"), "KnownRange[d18+]"),
        (KleppeVerdict(kind="Open"), "Open"),
        (KleppeVerdict(kind="ProvenTheorem1", dim=63), "ProvenTheorem1"),
    ],
)
def test_kleppe_text_every_verdict_shape(verdict, text):
    assert str(verdict) == text


def test_census_small_block():
    records, summary = census_range(10, 12, 0, 20)
    assert summary["records"] == len(records)
    assert summary["cells"] == 63  # 3 degrees x 21 genus cells, all within Hodge
    assert summary["empty_cells"] + sum(1 for _ in {(r.d, r.g) for r in records}) == 63
    for r in records:
        assert 10 <= r.d <= 12 and 0 <= r.g <= 20
        assert invariants(r.cls) == (r.d, r.g)
        assert r.dim_w == r.d + r.g + 18


def test_threads_flag_starts_no_thread(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("the census started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    argv = ["census", "--d-min", "10", "--d-max", "13", "--g-min", "0", "--g-max", "30", "--format", "csv"]
    assert run([*argv, "--threads", "1"]) == 0
    one = capsys.readouterr().out
    assert run([*argv, "--threads", "4"]) == 0
    assert capsys.readouterr().out == one


def test_census_builds_json_records_only_for_json(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "_record_json", lambda r: built.append(r) or {})
    argv = ["census", "--d-min", "10", "--d-max", "11", "--g-min", "0", "--g-max", "10"]
    for fmt in ("table", "csv"):
        assert run([*argv, "--format", fmt]) == 0
    capsys.readouterr()
    assert built == []
    assert run([*argv, "--format", "json"]) == 0
    assert len(built) == json.loads(capsys.readouterr().out)["summary"]["records"] > 0


def test_csv_shape():
    records, _ = census_range(16, 16, 29, 29)
    text = census_csv(records)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == CSV_COLUMNS.split(",")
    kleppe_rows = [r for r in rows[1:] if r[2:9] == ["12", "4", "4", "4", "4", "2", "2"]]
    assert kleppe_rows == [
        [
            "16", "29", "12", "4", "4", "4", "4", "2", "2",
            "2", "1", "2", "Obstructed", "m=1",
            "exact", "64", "64", "NotApplicable[g<3d-18]",
        ]
    ]
    assert text.endswith("\n") and "\r" not in text


# the four vocabularies of a census row's non-integer cells: verdict kind,
# rule, dim kind and Kleppe cell
CENSUS_TOKENS = (
    {"Unobstructed", "Obstructed", "Undetermined"},
    {"", "m=1", "rho-surjective"},
    {"exact", "interval"},
    {"NotApplicable[d<=9]", "NotApplicable[g<3d-18]", "NotApplicable[not-linearly-normal]",
     "NotApplicable[h1_ic3=0]", "ProvenTheorem1", "KnownRange[d18+]", "Open"},
)


def test_census_csv_template_needs_no_quoting():
    # census_csv renders rows with one %-template, exact only while no cell
    # needs quoting: every cell must read back through csv.reader as itself
    g_max = hodge_genus_bound(30)
    records = census_range(10, 30, 0, g_max)[0]
    rows = [tuple(map(str, row)) for row in census.census_rows(records)]
    assert len(rows) == 6528
    # every Kleppe cell but ProvenTheorem1's is a shared verdict of obstruction.py
    shared = {str(v) for v in vars(obstruction).values() if isinstance(v, KleppeVerdict)}
    assert shared | {"ProvenTheorem1"} == CENSUS_TOKENS[3]
    for token in set().union(*CENSUS_TOKENS):
        assert not {",", '"', "\n", "\r"} & set(token), token
    for text in (census_csv(records), census.census_window_csv(10, 30, 0, g_max, 2)):
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == CSV_COLUMNS.split(",")
        assert [tuple(r) for r in parsed[1:]] == rows
        for r in parsed[1:]:
            assert all(cell.isdigit() for cell in r[:12] + r[15:17]), r
            assert all(cell in vocab for cell, vocab in zip(r[12:15] + r[17:], CENSUS_TOKENS)), r


# sha256 of `census --d-min 10 --d-max 16 --g-min 0 --g-max 105` in each
# format, taken before the census was rebuilt on one analysis pass per class
CENSUS_D10_16_SHA256 = {
    "csv": "86e7909dc112f352dd60f7df69ea2efb46009070127f5f0a8354048edc60f871",
    "json": "7433715fab0236d343ca325410f4583971f68ad3249903a572063e482661952c",
    "table": "3cea1534b5e34fd95e89bddb44aad6b6132eb050a1a8fbd6121c091d7a73c18b",
}


@pytest.mark.parametrize("fmt", sorted(CENSUS_D10_16_SHA256))
def test_census_rendering_bytes_pinned(fmt, capsys):
    argv = ["census", "--d-min", "10", "--d-max", "16", "--g-min", "0", "--g-max", str(hodge_genus_bound(16))]
    assert run([*argv, "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CENSUS_D10_16_SHA256[fmt]


# sha256 of `census --d-min 10 --d-max 30 --g-min 0 --g-max 406` (6,528
# records), taken before the census ran on plain integers end to end
CENSUS_D10_30_SHA256 = {
    "csv": "8a683e96d25288547a70d1ccaa134b915abffa14131cdbed238666adf7494c19",
    "json": "b9343caedee6fbbaddf556d5f7de10fe1aebe9fbdcf19bb43204d9b60dc18b83",
}


@pytest.mark.parametrize("fmt", sorted(CENSUS_D10_30_SHA256))
def test_census_d10_30_bytes_pinned(fmt, capsys):
    argv = ["census", "--d-min", "10", "--d-max", "30", "--g-min", "0", "--g-max", str(hodge_genus_bound(30))]
    assert run([*argv, "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CENSUS_D10_30_SHA256[fmt]


# sha256 of `census --d-min 10 --d-max 40 --format csv` (28,587 records),
# taken before CurveFacts computed the pairings of C+3K only when read.
# 17,278 of these records reach verdict_of's line scan, against 3,099 of the
# 6,528 at d <= 30.
CENSUS_D10_40_CSV_SHA256 = "4a8dd8cce37dd7cfd8197ea3a43534150937991ebe88e396af3a725f24a29b47"


@pytest.mark.slow
def test_census_d10_40_csv_pinned(capsys):
    argv = ["census", "--d-min", "10", "--d-max", "40", "--g-min", "0", "--g-max", str(hodge_genus_bound(40))]
    assert run([*argv, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 28588
    assert hashlib.sha256(out.encode()).hexdigest() == CENSUS_D10_40_CSV_SHA256


def test_every_cli_census_builds_every_record(capsys, monkeypatch):
    # no record outlives a cli.run call: a second census in the same process
    # makes one facts pass per record again, as the benchmark's runs assume
    calls = []
    facts = census._standard_facts
    monkeypatch.setattr(census, "_standard_facts", lambda *a: calls.append(a) or facts(*a))
    census._families_by_genus.cache_clear()
    argv = ["census", "--d-min", "10", "--d-max", "16", "--g-min", "0", "--g-max", "100", "--format", "csv"]
    for _ in range(2):
        calls.clear()
        assert run(argv) == 0
        assert len(calls) == capsys.readouterr().out.count("\n") - 1 == 342
