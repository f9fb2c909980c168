"""Structural properties under randomized inputs (hypothesis)."""

from hypothesis import assume, given, seed, settings, strategies as st

from cubiccurves.cli import parse_class
from cubiccurves.cohomology import cohomology, fixed_part, h0, is_effective, is_nef
from cubiccurves.lattice import (
    Cremona,
    DivisorClass,
    K,
    Perm,
    apply_word,
    degree,
    intersect,
    is_standard,
    reduce_to_standard,
)

classes = st.builds(
    DivisorClass.of,
    st.integers(-8, 14),
    *(st.integers(-6, 9) for _ in range(6)),
)

perms = st.permutations(list(range(1, 7))).map(lambda p: Perm(tuple(p)))
cremonas = st.permutations(list(range(1, 7))).map(lambda p: Cremona(*sorted(p[:3])))
words = st.lists(st.one_of(perms, cremonas), max_size=5).map(tuple)

# W(E6)-moved classes with |coefficients| up to 10^6: a base class up to
# 10^5 sent through a word of up to eight generators
BIG = 10**6
big_classes = st.builds(
    lambda c, w: apply_word(w, c),
    st.builds(DivisorClass.of, *(st.integers(-BIG // 10, BIG // 10) for _ in range(7))),
    st.lists(st.one_of(perms, cremonas), min_size=1, max_size=8).map(tuple),
).filter(lambda c: max(abs(c.a), *map(abs, c.b)) <= BIG)


def _check_weyl_word_invariance(c, w):
    moved = apply_word(w, c)
    assert moved.square == c.square
    assert K.dot(moved) == K.dot(c)
    assert degree(moved) == degree(c)
    assert h0(moved) == h0(c)
    assert is_nef(moved) == is_nef(c)
    assert is_effective(moved) == is_effective(c)


@settings(max_examples=250, deadline=None)
@given(classes, words)
def test_weyl_word_invariance(c, w):
    _check_weyl_word_invariance(c, w)


@seed(106)
@settings(max_examples=150, deadline=None)
@given(big_classes, words)
def test_weyl_word_invariance_large(c, w):
    _check_weyl_word_invariance(c, w)


@settings(max_examples=250, deadline=None)
@given(classes)
def test_serre_and_chi(c):
    t = cohomology(c)
    assert t.h2 == h0(K - c)
    assert t.h0 - t.h1 + t.h2 == t.chi
    assert t.h1 >= 0


def _check_reduction_canonical(c):
    red = reduce_to_standard(c)
    assert is_standard(red.standard)
    assert apply_word(red.word, c) == red.standard
    again = reduce_to_standard(red.standard)
    assert again.standard == red.standard and again.word == ()


@settings(max_examples=250, deadline=None)
@given(classes)
def test_reduction_canonical(c):
    _check_reduction_canonical(c)


@seed(106)
@settings(max_examples=250, deadline=None)
@given(big_classes)
def test_reduction_canonical_large(c):
    _check_reduction_canonical(c)


@settings(max_examples=250, deadline=None)
@given(classes, words)
def test_reduction_orbit_independent(c, w):
    # the standard representative is a full orbit invariant
    assert reduce_to_standard(apply_word(w, c)).standard == reduce_to_standard(c).standard


@settings(max_examples=200, deadline=None)
@given(classes)
def test_fixed_part_reconstruction(c):
    assume(is_effective(c))
    z = fixed_part(c)
    total = z.nef_part
    for line, mult in z.fixed:
        total = total + mult * line
    assert total == c
    assert is_nef(z.nef_part)
    for i, (a, _) in enumerate(z.fixed):
        for b, _ in z.fixed[i + 1 :]:
            assert intersect(a, b) == 0


@settings(max_examples=250, deadline=None)
@given(classes)
def test_class_string_round_trip(c):
    assert parse_class(str(c)) == c


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 14), st.integers(0, 40))
def test_enumerated_families_have_stated_invariants(d, g):
    from cubiccurves.census import enumerate_families
    from cubiccurves.curve import hodge_genus_bound, invariants

    assume(g <= hodge_genus_bound(d))
    for cls in enumerate_families(d, g):
        assert invariants(cls) == (d, g)
        assert cls.a > cls.b[0] and cls.b[5] >= 0


@settings(max_examples=80, deadline=None)
@given(
    st.builds(
        DivisorClass.of,
        st.integers(-1, 6),
        *(st.integers(-1, 3) for _ in range(6)),
    ),
    st.integers(0, 2),
)
def test_oracle_matches_engine(c, seed):
    from cubiccurves.oracle import h0_interpolation

    assert h0_interpolation(c, seed) == h0(c)
