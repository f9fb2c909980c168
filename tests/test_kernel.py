"""The flat-integer kernels against their DivisorClass references.

The reference functions below are the formulations the kernels replaced:
the dot-product fixed-line loop (for h0, the twist triples of curve_facts,
is_nef and fixed_part) and the apply_generator loop of reduce_to_standard.
Every exact result must agree with them, on small random classes and on
W(E6)-moved classes with coefficients up to 10^4.
"""

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from cubiccurves.cohomology import CohomologyTriple, _strip, cohomology, fixed_part, h0, h0_ab, is_nef
from cubiccurves.curve import curve_facts
from cubiccurves.errors import NotEffective, NotSmoothMember
from cubiccurves.lattice import (
    Cremona,
    DivisorClass,
    K,
    Perm,
    apply_generator,
    apply_word,
    degree,
    line_pairings,
    lines27,
    reduce_to_standard,
)

LINES = lines27()
ZERO = DivisorClass(0, (0, 0, 0, 0, 0, 0))
# the standard forms of a line and of a conic class, which have a smooth member too
LINE_AND_CONIC = (DivisorClass(0, (0, 0, 0, 0, 0, -1)), DivisorClass(1, (1, 0, 0, 0, 0, 0)))
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


def ref_triple(d):
    n0, n2 = ref_h0(d), ref_h0(K - d)
    chi = d.dot(d - K) // 2 + 1
    return CohomologyTriple(h0=n0, h1=n0 + n2 - chi, h2=n2, chi=chi)


def ref_reduce(d):
    """(standard, word) by the generator-at-a-time loop reduce_to_standard replaced."""
    word = []
    cur = d
    while True:
        sigma = tuple(i + 1 for i in sorted(range(6), key=lambda i: (-cur.b[i], i)))
        if sigma != (1, 2, 3, 4, 5, 6):
            gen = Perm(sigma)
            word.append(gen)
            cur = apply_generator(gen, cur)
        if cur.a >= cur.b[0] + cur.b[1] + cur.b[2]:
            return cur, tuple(word)
        gen = Cremona(1, 2, 3)
        word.append(gen)
        cur = apply_generator(gen, cur)


def ref_is_nef(d):
    return all(d.dot(line) >= 0 for line in LINES)


def ref_fixed(d):
    return tuple((line, -d.dot(line)) for line in LINES if d.dot(line) < 0)


# standard smooth-member classes: b1 >= ... >= b6 >= 0, a >= b1+b2+b3, a > b1
smooth = st.builds(
    lambda b, extra: DivisorClass(max(b[0] + b[1] + b[2] + extra, b[0] + 1), tuple(b)),
    st.lists(st.integers(0, 2000), min_size=6, max_size=6).map(lambda b: sorted(b, reverse=True)),
    st.integers(0, 2000),
)
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
    ref = ref_terminal_nef(d)
    assert _strip(d.a, d.b) == (None if ref is None else (ref.a, ref.b))
    assert h0_ab(d.a, d.b) == h0(d) == ref_h0(d)
    assert is_nef(d) == ref_is_nef(d)
    if ref is None:
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


def _check_facts(c):
    std, _ = ref_reduce(c)
    if not (std.a > std.b[0] and std.b[5] >= 0 or std in LINE_AND_CONIC):
        with pytest.raises(NotSmoothMember):
            curve_facts(c)
        return
    facts = curve_facts(c)
    assert facts.standard == std
    for n in (1, 2, 3):
        twist = -(std + n * K)
        t = cohomology(twist)
        assert t == ref_triple(twist)
        assert (facts.h0s[n - 1], facts.defects[n - 1]) == (t.h0, t.h1)
        assert t.h2 == h0(std + (n + 1) * K) == ref_h0(std + (n + 1) * K)
    assert facts.h2 == t.h2  # t is the n = 3 twist's, -L


@seed(41)
@settings(max_examples=300, deadline=None)
@given(st.one_of(small, large, smooth))
def test_twist_triples_match_reference(c):
    _check_facts(c)


@seed(42)
@settings(max_examples=300, deadline=None)
@given(st.one_of(small, smooth), words)
def test_weyl_moved_twist_triples_match_reference(c, w):
    _check_facts(_moved(c, w))


@seed(43)
@settings(max_examples=400, deadline=None)
@given(st.one_of(small, large))
def test_reduction_matches_generator_loop(d):
    red = reduce_to_standard(d)
    assert red.input is d
    assert (red.standard, red.word) == ref_reduce(d)


@seed(44)
@settings(max_examples=400, deadline=None)
@given(st.one_of(small, smooth), words)
def test_weyl_moved_reduction_matches_generator_loop(c, w):
    moved = _moved(c, w)
    red = reduce_to_standard(moved)
    assert (red.standard, red.word) == ref_reduce(moved)
