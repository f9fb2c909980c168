"""Degree/genus invariants, smooth members, normality profiles (curve_facts)."""

import itertools

import pytest

from cubiccurves.cohomology import h0
from cubiccurves.curve import (
    abnormality,
    curve_facts,
    has_smooth_member,
    hodge_genus_bound,
    invariants,
    require_smooth_member,
)
from cubiccurves.errors import NonPositiveDegree, NotSmoothMember
from cubiccurves.lattice import DivisorClass, K, conics27, is_standard, lines27
from cubiccurves.obstruction import classify, kleppe_verdict

D = DivisorClass.of

D16G29 = D(12, 4, 4, 4, 4, 2, 2)
MUMFORD = D(12, 4, 4, 4, 4, 4, 2)


def test_invariants():
    assert invariants(D16G29) == (16, 29)
    assert invariants(MUMFORD) == (14, 24)
    assert invariants(-K) == (3, 1)
    assert invariants(D(3, 1, 1, 0, 0, 0, 0)) == (7, 1)


def test_invariants_weyl_invariant():
    from cubiccurves.lattice import Cremona, Perm, apply_word

    moved = apply_word((Cremona(1, 2, 3), Perm((6, 5, 4, 3, 2, 1))), D16G29)
    assert invariants(moved) == (16, 29)


def test_hodge_genus_bound():
    assert hodge_genus_bound(3) == 1
    assert hodge_genus_bound(10) == 36
    assert hodge_genus_bound(16) == 105
    with pytest.raises(NonPositiveDegree):
        hodge_genus_bound(0)
    with pytest.raises(NonPositiveDegree):
        hodge_genus_bound(-3)


def test_smooth_member():
    assert has_smooth_member(D16G29)
    assert has_smooth_member(-K)
    assert has_smooth_member(-2 * K)
    assert not has_smooth_member(D(1, 1, 1, 1, 0, 0, 0))
    with pytest.raises(NotSmoothMember):
        require_smooth_member(D(1, 1, 1, 1, 0, 0, 0))


def test_lines_and_conics_have_a_smooth_member():
    # a line is a smooth rational curve, and so is the general conic of its
    # pencil; both lie in a plane, so they are projectively normal with s = 1
    for c, std, d in [(l, D(0, 0, 0, 0, 0, 0, -1), 1) for l in lines27()] + [
        (q, D(1, 1, 0, 0, 0, 0, 0), 2) for q in conics27()
    ]:
        assert has_smooth_member(c)
        assert require_smooth_member(c) == std
        facts = curve_facts(c)
        assert (facts.d, facts.g, facts.defects, facts.s_invariant) == (d, 0, (0, 0, 0), 1)


def test_require_smooth_member_returns_standard():
    from cubiccurves.lattice import Perm, apply_generator

    moved = apply_generator(Perm((6, 5, 4, 3, 2, 1)), D16G29)
    assert require_smooth_member(moved) == D16G29


def test_abnormality_kleppe():
    assert [abnormality(D16G29, n) for n in (1, 2, 3)] == [0, 0, 2]


def test_normality_profile_kleppe():
    facts = curve_facts(D16G29)
    assert (facts.d, facts.g) == (16, 29)
    assert facts.defects == (0, 0, 2)
    assert facts.s_invariant == 3


def test_s_invariant_small_curves():
    # -K is cut by planes, -2K by quadrics; neither lies on the cubic
    assert curve_facts(-K).s_invariant == 1
    assert curve_facts(-2 * K).s_invariant == 2
    assert curve_facts(MUMFORD).s_invariant == 3


def test_every_small_standard_smooth_class_passes_the_curve_facts_checks():
    # the line, the conic class and every standard (a; b) with a > b1 and
    # b6 >= 0, a <= 12: curve_facts' genus-range and monotonicity checks
    # hold on each, through classify and kleppe_verdict too, and s is the
    # least n <= 2 with h0(I_C(n)) = h0(-(C + nK)) > 0, else 3
    classes = [D(0, 0, 0, 0, 0, 0, -1), D(1, 1, 0, 0, 0, 0, 0)] + [
        c
        for a in range(1, 13)
        for b in itertools.combinations_with_replacement(range(a - 1, -1, -1), 6)
        if is_standard(c := D(a, *b))
    ]
    tally = {1: 0, 2: 0, 3: 0}
    for c in classes:
        facts = curve_facts(c)
        classify(c)
        kleppe_verdict(c)
        s = next((n for n in (1, 2) if h0(-(c + n * K)) > 0), 3)
        assert facts.s_invariant == s, str(c)
        tally[s] += 1
    assert len(classes) == 1536 and tally == {1: 3, 2: 5, 3: 1528}


def test_genus_and_twist_squares_follow_from_d_and_g():
    # the genus is chi(C) - d; check it against adjunction by the pairing, and
    # the (d, g) formula curve_facts uses for (C + nK)^2
    import random

    rng = random.Random(17)
    for _ in range(20_000):
        c = D(rng.randint(-60, 60), *(rng.randint(-30, 30) for _ in range(6)))
        d, g = invariants(c)
        assert g == 1 + (c.square + K.dot(c)) // 2, str(c)
        for n in (1, 2, 3):
            assert (c + n * K).square == 2 * g - 2 + d - 2 * n * d + 3 * n * n, (str(c), n)
