"""Cohomology engine: h0 endpoint reduction, Serre pairing, fixed parts."""

import random

import pytest

from cubiccurves.cohomology import (
    cohomology,
    euler_char,
    fixed_part,
    h0,
    is_effective,
    is_nef,
)
from cubiccurves.errors import NotEffective
from cubiccurves.lattice import DivisorClass, K, degree, lines27

D = DivisorClass.of

ZERO = D(0, 0, 0, 0, 0, 0, 0)
E1 = D(0, -1, 0, 0, 0, 0, 0)
D16G29 = D(12, 4, 4, 4, 4, 2, 2)


def _h0_one_line_at_a_time(d: DivisorClass) -> int:
    # most primitive form of the reduction: peel a single copy of a single
    # base line per step, stop at a nef class or a visibly empty one
    cur = d
    while True:
        if cur == ZERO:
            return 1
        if degree(cur) <= 0:
            return 0
        neg = [l for l in lines27() if cur.dot(l) < 0]
        if not neg:
            return euler_char(cur)
        cur = cur - neg[0]


def test_euler_char_values():
    assert euler_char(ZERO) == 1
    assert euler_char(-K) == 4
    assert euler_char(K) == 1
    assert euler_char(D16G29) == 45


def test_h0_spot_values():
    assert h0(ZERO) == 1
    assert h0(K) == 0
    assert h0(-K) == 4
    assert h0(-2 * K) == 10
    assert h0(E1) == 1
    assert h0(D(1, 1, 0, 0, 0, 0, 0)) == 2  # conics through one point
    assert h0(D(1, 1, 1, 1, 0, 0, 0)) == 0  # degree 0, not trivial
    assert h0(D16G29) == 45


def test_h0_superabundant_class():
    # 16 naive point conditions on quintics but only 15 independent ones
    assert h0(D(5, 4, 3, 0, 0, 0, 0)) == 6


def test_nef_h1_h2_vanish():
    rng = random.Random(23)
    seen = 0
    while seen < 400:
        c = D(rng.randint(0, 12), *(rng.randint(0, 6) for _ in range(6)))
        if not is_nef(c):
            continue
        seen += 1
        t = cohomology(c)
        assert (t.h1, t.h2) == (0, 0)
        assert t.h0 == t.chi


def test_h0_matches_single_line_reference():
    rng = random.Random(101)
    for _ in range(10_000):
        c = D(rng.randint(-6, 12), *(rng.randint(-6, 9) for _ in range(6)))
        assert h0(c) == _h0_one_line_at_a_time(c)


def test_serre_pairing():
    rng = random.Random(5)
    for _ in range(2_000):
        c = D(rng.randint(-6, 12), *(rng.randint(-6, 9) for _ in range(6)))
        t = cohomology(c)
        s = cohomology(K - c)
        assert (t.h0, t.h1, t.h2) == (s.h2, s.h1, s.h0)
        assert t.h0 - t.h1 + t.h2 == t.chi


def test_known_h1():
    # the obstruction-space example: h1 of minus the cubic adjoint
    assert cohomology(-(D16G29 + 3 * K)).h1 == 2


def test_is_effective():
    assert is_effective(ZERO)
    assert is_effective(-K)
    assert is_effective(E1)
    assert not is_effective(K)
    assert not is_effective(D(1, 1, 1, 1, 0, 0, 0))
    assert not is_effective(E1 - D(0, 0, -1, 0, 0, 0, 0))  # e1 - e2


def test_fixed_part_spot():
    z = fixed_part(D(3, 1, 1, 1, 1, -1, -1))
    assert z.nef_part == D(3, 1, 1, 1, 1, 0, 0)
    assert z.fixed == (
        (D(0, 0, 0, 0, 0, -1, 0), 1),
        (D(0, 0, 0, 0, 0, 0, -1), 1),
    )


def test_fixed_part_multiplicity():
    z = fixed_part(2 * E1)
    assert z.nef_part == ZERO
    assert z.fixed == ((E1, 2),)


def test_fixed_part_trivial():
    z = fixed_part(-K)
    assert z.nef_part == -K and z.fixed == ()
    z = fixed_part(ZERO)
    assert z.nef_part == ZERO and z.fixed == ()


def test_fixed_part_rejects_non_effective():
    with pytest.raises(NotEffective):
        fixed_part(K)
    with pytest.raises(NotEffective):
        fixed_part(D(1, 1, 1, 1, 0, 0, 0))


def test_fixed_part_reconstructs():
    rng = random.Random(31)
    seen = 0
    while seen < 2_000:
        c = D(rng.randint(0, 12), *(rng.randint(-4, 8) for _ in range(6)))
        if not is_effective(c):
            continue
        seen += 1
        z = fixed_part(c)
        total = z.nef_part
        for line, mult in z.fixed:
            assert mult > 0
            total = total + mult * line
        assert total == c
        assert is_nef(z.nef_part)
        for line, _ in z.fixed:
            assert z.nef_part.dot(line) == 0


def test_adjoint_fixed_part():
    # the fixed part of an adjoint class C + nK is fixed_part(C + n*K)
    z = fixed_part(D16G29 + 3 * K)
    assert z.fixed == (
        (D(0, 0, 0, 0, 0, -1, 0), 1),
        (D(0, 0, 0, 0, 0, 0, -1), 1),
    )
    assert fixed_part(-K + K).fixed == ()
    with pytest.raises(NotEffective):
        fixed_part(-K + 2 * K)


@pytest.mark.parametrize("lam", range(9))
def test_obstruction_space_of_the_even_family_is_2lam_plus_6(lam):
    # the certificate behind verify-paper's FLAGGED row: for C = (17+lam;
    # 8+lam, 7, 2^4), C + 4K = (5+lam; 4+lam, 3, -2^4) fixes e3..e6 and
    # l-e1-e2, each twice; its nef part R = (lam+3; lam+2, 1, 0^4) has
    # chi(R) = 2*lam+6 and h1(R) = h2(R) = 0, so h0(C + 4K) = 2*lam+6
    c = D(17 + lam, 8 + lam, 7, 2, 2, 2, 2)
    z = fixed_part(c + 4 * K)
    e3, e4, e5, e6 = (D(0, *(-1 if j == i else 0 for j in range(6))) for i in range(2, 6))
    assert dict(z.fixed) == {e3: 2, e4: 2, e5: 2, e6: 2, D(1, 1, 1, 0, 0, 0, 0): 2}
    assert z.nef_part == D(lam + 3, lam + 2, 1, 0, 0, 0, 0) and is_nef(z.nef_part)
    assert cohomology(z.nef_part) == (2 * lam + 6, 0, 0, 2 * lam + 6)
    assert euler_char(z.nef_part) == h0(c + 4 * K) == 2 * lam + 6
    # the source's 2*lam+5 is chi of C + 4K less e3..e6 alone: that class
    # still meets l-e1-e2 in -2, and h0 = 2*lam+6 leaves h1 = 1
    part = c + 4 * K - 2 * (e3 + e4 + e5 + e6)
    assert part == D(lam + 5, lam + 4, 3, 0, 0, 0, 0) and part.dot(D(1, 1, 1, 0, 0, 0, 0)) == -2
    assert cohomology(part) == (2 * lam + 6, 1, 0, 2 * lam + 5)
