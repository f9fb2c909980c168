"""The one-pass strip of standard-ordered classes against the stripping loop.

ref_strip is _strip as it was before its one-pass first step: per pass,
subtract every line l with D.l < 0, -D.l times, until the class is 0, has
non-positive degree (not effective) or is nef.  The one-pass step claims that
for b1 >= ... >= b6, b3 >= 0 and a >= b1+b2+b3 this loop ends after at most
one pass at (a; max(bi, 0)); the engine's h0 must equal the loop's on such
classes and on every h0 argument the census d 10..30 produces.
"""

import random

from hypothesis import example, given, seed, settings, strategies as st

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


def ref_h0(a, b):
    nef = ref_strip(a, b)
    return 0 if nef is None else _chi(*nef)


def is_standard_ordered(a, b):
    return all(b[i] >= b[i + 1] for i in range(5)) and b[2] >= 0 and a >= b[0] + b[1] + b[2]


def _check(a, b):
    assert is_standard_ordered(a, b)
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


def test_h0_matches_loop_on_every_census_d10_30_argument():
    records, _ = census_range(10, 30, 0, hodge_genus_bound(30))
    assert len(records) == 6528
    args = _census_h0_arguments(records)
    one_pass = [ab for ab in args if is_standard_ordered(*ab)]
    # both branches are exercised, and the one pass does strip lines
    assert len(one_pass) > 1000 and len(args) - len(one_pass) > 1000
    assert any(min(b) < 0 for _, b in one_pass)
    for a, b in args:
        assert h0_ab(a, b) == ref_h0(a, b), (a, b)
