"""The flat-integer pairing kernel against the DivisorClass.dot reference.

The reference functions below are the dot-product formulation the kernel
replaced; every exact result must agree with them, on small random classes
and on W(E6)-moved classes with coefficients up to 10^4.
"""

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from cubiccurves.cohomology import _terminal_nef, fixed_part, h0, is_nef
from cubiccurves.errors import NotEffective
from cubiccurves.lattice import (
    ZERO,
    Cremona,
    DivisorClass,
    K,
    Perm,
    apply_word,
    degree,
    line_pairings,
    lines27,
)

LINES = lines27()
BOUND = 10**4


def ref_terminal_nef(d):
    cur = d
    while True:
        if cur == ZERO:
            return cur
        if degree(cur) <= 0:
            return None
        mu = [cur.dot(line) for line in LINES]
        if all(m >= 0 for m in mu):
            return cur
        a, b = cur.a, list(cur.b)
        for m, line in zip(mu, LINES):
            if m < 0:
                a += m * line.a
                for i in range(6):
                    b[i] += m * line.b[i]
        cur = DivisorClass(a, tuple(b))


def ref_h0(d):
    nef = ref_terminal_nef(d)
    if nef is None:
        return 0
    t = nef.dot(nef - K)
    assert t % 2 == 0
    return t // 2 + 1


def ref_is_nef(d):
    return all(d.dot(line) >= 0 for line in LINES)


def ref_fixed(d):
    return tuple((line, -d.dot(line)) for line in LINES if d.dot(line) < 0)


small = st.builds(DivisorClass.of, st.integers(-30, 60), *(st.integers(-20, 40) for _ in range(6)))
large = st.builds(DivisorClass.of, *(st.integers(-BOUND, BOUND) for _ in range(7)))
perms = st.permutations(list(range(1, 7))).map(lambda p: Perm(tuple(p)))
cremonas = st.permutations(list(range(1, 7))).map(lambda p: Cremona(*sorted(p[:3])))
words = st.lists(st.one_of(perms, cremonas), min_size=1, max_size=12).map(tuple)


def _moved(c, w):
    moved = apply_word(w, c)
    assume(max(abs(moved.a), *map(abs, moved.b)) <= BOUND)
    return moved


def _check_against_reference(d):
    assert _terminal_nef(d) == ref_terminal_nef(d)
    assert h0(d) == ref_h0(d)
    assert is_nef(d) == ref_is_nef(d)
    if ref_terminal_nef(d) is None:
        with pytest.raises(NotEffective):
            fixed_part(d)
    else:
        z = fixed_part(d)
        assert z.fixed == ref_fixed(d)
        total = d
        for line, mult in z.fixed:
            total = total - mult * line
        assert z.nef_part == total


@seed(27)
@settings(max_examples=400, deadline=None)
@given(st.one_of(small, large))
def test_kernel_matches_pairing_loop(d):
    assert line_pairings(d.a, d.b) == tuple(d.dot(line) for line in LINES)


@seed(27)
@settings(max_examples=400, deadline=None)
@given(st.one_of(small, large))
def test_random_classes_match_reference(d):
    _check_against_reference(d)


@seed(6)
@settings(max_examples=400, deadline=None)
@given(small, words)
def test_weyl_moved_classes_match_reference(c, w):
    moved = _moved(c, w)
    _check_against_reference(moved)
    assert h0(moved) == h0(c)


@seed(6)
@settings(max_examples=200, deadline=None)
@given(small, words, st.integers(0, 30))
def test_weyl_moved_effective_classes_match_reference(c, w, k):
    # -K is ample, so adding a multiple of it moves most classes into the
    # effective cone, where the fixed-line passes actually run
    moved = _moved(c + k * (-K), w)
    _check_against_reference(moved)
