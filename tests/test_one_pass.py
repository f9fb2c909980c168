"""_strip's closed-form exits and its one pass against the plain stripping loop.

ref_strip is the loop _strip replaced: per pass, subtract every line l with
D.l < 0, -D.l times, until the class is 0, has non-positive degree (not
effective) or is nef.  _strip makes two closed-form exits and then exactly
one such pass, returning the residue when it is nef and None otherwise.
The chamber exit claims that for b1 >= ... >= b6 and a >= b1+ + b2+ + b3+
(x+ = max(x, 0)) the loop ends after at most one pass at (a; b+).  The
pencil exit claims that a class with a < 0 or a < max(b) is not effective,
because it pairs negatively with l or some l-ei.  The one pass claims that
whenever the loop needs two or more passes, the class is not effective.
_strip must equal the loop on such classes, on random classes and on every
h0 argument the census d 10..30 produces.
"""

import random
import sys

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from cubiccurves import lattice
from cubiccurves.cohomology import _chi, _strip, h0_ab
from cubiccurves.census import census_range
from cubiccurves.curve import hodge_genus_bound
from cubiccurves.lattice import line_pairings, lines27

LINES = lines27()
ZERO_B = (0, 0, 0, 0, 0, 0)


def ref_strip(a, b):
    while True:
        if a == 0 and b == ZERO_B:
            return a, b
        if 3 * a - sum(b) <= 0:
            return None
        mu = line_pairings(a, b)
        if min(mu) >= 0:
            return a, b
        b = list(b)
        for m, line in zip(mu, LINES):
            if m < 0:
                a += m * line.a
                for i in range(6):
                    b[i] += m * line.b[i]
        b = tuple(b)


def _count_pairings(monkeypatch, module):
    """Patch module.line_pairings to log the least pairing of each call."""
    calls = []

    def counted(a, b):
        mu = lattice.line_pairings(a, b)
        calls.append(min(mu))
        return mu

    monkeypatch.setattr(module, "line_pairings", counted)
    return calls


def ref_h0(a, b):
    nef = ref_strip(a, b)
    return 0 if nef is None else _chi(*nef)


def in_chamber(a, b):
    return all(b[i] >= b[i + 1] for i in range(5)) and a >= sum(max(x, 0) for x in b[:3])


def pencil_rejects(a, b):
    return a < 0 or a < max(b)


def _check(a, b):
    assert in_chamber(a, b)
    got = _strip(a, b)
    assert got == ref_strip(a, b)
    assert got == (a, tuple(max(x, 0) for x in b))
    assert min(line_pairings(*got)) >= 0
    assert h0_ab(a, b) == ref_h0(a, b)


# b1 >= b2 >= b3 >= 0, then b4 >= b5 >= b6 at most b3 and possibly negative,
# and a = b1 + b2 + b3 + slack
standard_ordered = st.builds(
    lambda head, tail, slack: (
        sum(head) + slack,
        tuple(sorted(head, reverse=True)) + tuple(sorted((min(x, min(head)) for x in tail), reverse=True)),
    ),
    st.lists(st.integers(0, 60), min_size=3, max_size=3),
    st.lists(st.integers(-60, 60), min_size=3, max_size=3),
    st.integers(0, 60),
)


@seed(61)
@settings(max_examples=1000, deadline=None)
@given(standard_ordered)
@example((0, (0, 0, 0, 0, 0, 0)))
@example((0, (0, 0, 0, 0, 0, -1)))
@example((0, (0, 0, 0, -2, -3, -5)))
@example((1, (1, 0, 0, -1, -1, -1)))
@example((3, (1, 1, 1, 1, 1, 1)))
def test_one_pass_matches_loop(ab):
    _check(*ab)


def test_one_pass_matches_loop_on_random_sorted_classes():
    rng = random.Random(200)
    for _ in range(20_000):
        b = sorted((rng.randint(-30, 30) for _ in range(6)), reverse=True)
        if b[2] < 0:
            continue
        _check(b[0] + b[1] + b[2] + rng.randint(0, 30), tuple(b))


# any sorted b, negative entries anywhere (b3 < 0 included), and
# a = b1+ + b2+ + b3+ + slack
chamber = st.builds(
    lambda b, slack: (sum(max(x, 0) for x in b[:3]) + slack, b),
    st.lists(st.integers(-60, 60), min_size=6, max_size=6).map(lambda b: tuple(sorted(b, reverse=True))),
    st.integers(0, 60),
)


@seed(62)
@settings(max_examples=1000, deadline=None)
@given(chamber)
@example((0, (-1, -1, -1, -1, -1, -1)))
@example((0, (0, 0, -1, -1, -2, -7)))
@example((1, (1, -1, -1, -1, -1, -1)))
@example((2, (1, 1, -3, -3, -3, -3)))
@example((3, (2, 1, 0, -4, -4, -4)))
def test_chamber_step_matches_loop_with_negative_b3(ab):
    _check(*ab)


# a class below a pencil bound: a < 0, or a < max(b) with b in any order
below_pencil = st.one_of(
    st.builds(
        lambda b, gap: (max(b) - gap, b),
        st.tuples(*[st.integers(-30, 30)] * 6),
        st.integers(1, 20),
    ),
    st.builds(lambda a, b: (a, b), st.integers(-40, -1), st.tuples(*[st.integers(-40, 40)] * 6)),
)


@seed(63)
@settings(max_examples=1000, deadline=None)
@given(below_pencil)
@example((-1, (-1, -1, -1, -1, -1, -1)))
@example((-1, (-3, -3, -3, -3, -3, -3)))
@example((0, (0, 1, 0, 0, 0, 0)))
@example((1, (0, 0, 0, 2, 0, 0)))
def test_pencil_step_rejects_like_loop(ab):
    a, b = ab
    assert pencil_rejects(a, b)
    assert _strip(a, b) is None
    assert ref_strip(a, b) is None


# effective classes with a = max(b) that make the pass: l - e2 (h0 = 2),
# 2l - 2e2 - e3 - e4 (h0 = 1) and 5l - 5e2 - e3 - ... - e6 (h0 = 2)
@example((1, (0, 1, 0, 0, 0, 0)))
@example((2, (0, 2, 1, 1, 0, 0)))
@example((5, (0, 5, 1, 1, 1, 1)))
@seed(64)
@settings(max_examples=1000, deadline=None)
@given(st.builds(lambda b, d: (max(b) + d, b), st.tuples(*[st.integers(-20, 20)] * 6), st.integers(-3, 3)))
def test_strip_matches_loop_at_the_pencil_bound(ab):
    a, b = ab
    assert _strip(a, b) == ref_strip(a, b)


def test_two_pass_class_is_rejected_after_one_pass(monkeypatch):
    a, b = 34, (19, -12, 16, 15, -19, 19)
    ref_calls = _count_pairings(monkeypatch, sys.modules[__name__])
    assert ref_strip(a, b) is None
    assert sum(m < 0 for m in ref_calls) >= 2  # the loop strips lines twice or more
    calls = _count_pairings(monkeypatch, sys.modules["cubiccurves.cohomology"])
    assert _strip(a, b) is None
    assert len(calls) == 2  # the pass and the nef test of its residue


def test_every_class_the_loop_strips_twice_is_not_effective(monkeypatch):
    calls = _count_pairings(monkeypatch, sys.modules[__name__])
    multi = 0
    for s, r in enumerate((5, 30, 200)):
        rng = random.Random(400 + s)
        for _ in range(20_000):
            a = rng.randint(-r, 3 * r)
            b = tuple(rng.randint(-r, r) for _ in range(6))
            calls.clear()
            got = ref_strip(a, b)
            if sum(m < 0 for m in calls) >= 2:
                multi += 1
                assert got is None and _strip(a, b) is None, (a, b)
    assert multi > 500  # 1,007 of the 60,000


def test_strip_matches_loop_on_seeded_random_classes():
    for s in range(4):
        rng = random.Random(300 + s)
        r = (4, 12, 30, 90)[s]
        for _ in range(5_000):
            a = rng.randint(-r, 3 * r)
            b = tuple(rng.randint(-r, r) for _ in range(6))
            if rng.random() < 0.3:
                b = tuple(sorted(b, reverse=True))
            assert _strip(a, b) == ref_strip(a, b), (a, b)


def _census_h0_arguments(records):
    """Every class whose h0 a census record reads: the twists -(C+nK) and
    C+(n+1)K for n = 1, 2, 3, and Delta = C+4K-2mE and Delta-E for each line
    E with m = -(C+3K).E in {2, 3}."""
    out = set()
    for r in records:
        a, b = r.cls.a, r.cls.b
        for n in (1, 2, 3):
            out.add((3 * n - a, tuple(n - x for x in b)))
            out.add((a - 3 * n - 3, tuple(x - n - 1 for x in b)))
        for e, pairing in zip(LINES, line_pairings(a - 9, tuple(x - 3 for x in b))):
            m = -pairing
            if m in (2, 3):
                da, db = a - 12 - 2 * m * e.a, tuple(x - 4 - 2 * m * y for x, y in zip(b, e.b))
                out.add((da, db))
                out.add((da - e.a, tuple(x - y for x, y in zip(db, e.b))))
    return out


@pytest.fixture(scope="module")
def census_d10_30_arguments():
    records, _ = census_range(10, 30, 0, hodge_genus_bound(30))
    assert len(records) == 6528
    return _census_h0_arguments(records)


def test_h0_matches_loop_on_every_census_d10_30_argument(census_d10_30_arguments):
    args = census_d10_30_arguments
    one_pass = [ab for ab in args if in_chamber(*ab)]
    # both branches are exercised, and the one pass does strip lines
    assert len(one_pass) > 1000 and len(args) - len(one_pass) > 1000
    assert any(min(b) < 0 for _, b in one_pass)
    for a, b in args:
        assert _strip(a, b) == ref_strip(a, b), (a, b)
        assert h0_ab(a, b) == ref_h0(a, b), (a, b)


def test_only_arguments_outside_both_closed_forms_make_the_pass(census_d10_30_arguments, monkeypatch):
    # the pass calls line_pairings once or twice; the closed forms call it never
    calls = _count_pairings(monkeypatch, sys.modules["cubiccurves.cohomology"])
    passed = chamber = pencil = 0
    for a, b in census_d10_30_arguments:
        calls.clear()
        _strip(a, b)
        if calls:
            # an argument that makes the pass is unsorted or sorted with
            # a < b1+ + b2+ + b3+, and pairs >= 0 with l and every l-ei
            assert not in_chamber(a, b) and not pencil_rejects(a, b), (a, b)
            passed += 1
        elif in_chamber(a, b):
            chamber += 1
        elif pencil_rejects(a, b):
            pencil += 1
    # the closed forms settle most census arguments (41,826 distinct: 8,959
    # in the chamber, 27,818 below a pencil, 4,968 making the pass), with
    # negative b3 among the chamber ones
    assert chamber > passed and pencil > passed and chamber + pencil > 5 * passed
    assert any(in_chamber(a, b) and b[2] < 0 for a, b in census_d10_30_arguments)
