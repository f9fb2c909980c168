"""Intersection pairing, the 27 lines/conics, and Weyl reduction."""

import operator
import random

import pytest

from cubiccurves.errors import PreconditionError
from cubiccurves.lattice import (
    Cremona,
    DivisorClass,
    K,
    Perm,
    apply_generator,
    apply_word,
    conics27,
    degree,
    is_standard,
    lines27,
    reduce_to_standard,
)

D = DivisorClass.of
ZERO = D(0, 0, 0, 0, 0, 0, 0)


def test_pairing_signature():
    l = D(1, 0, 0, 0, 0, 0, 0)
    es = [D(0, *(1 if j == i else 0 for j in range(6))) for i in range(6)]
    assert l.dot(l) == 1
    for i, e in enumerate(es):
        assert e.dot(e) == -1
        assert l.dot(e) == 0
        for j in range(i + 1, 6):
            assert e.dot(es[j]) == 0


def test_canonical_class():
    assert K == D(-3, -1, -1, -1, -1, -1, -1)
    assert K.square == 3
    assert degree(-K) == 3


def test_arithmetic_ops():
    c = D(12, 4, 4, 4, 4, 2, 2)
    assert c + ZERO == c
    assert c - c == ZERO
    assert -(-c) == c
    assert 2 * c == c + c == c * 2
    assert str(c) == "12;4,4,4,4,2,2"


NOT_A_CLASS = (1, (1, (0,) * 6))
NOT_AN_INTEGER = (DivisorClass(1, (0,) * 6), "x", 2.0)


@pytest.mark.parametrize(
    "op,others",
    [(operator.add, NOT_A_CLASS), (operator.sub, NOT_A_CLASS), (operator.mul, NOT_AN_INTEGER)],
    ids=["add", "sub", "mul"],
)
def test_arithmetic_with_a_non_class_operand_is_a_type_error(op, others):
    # Python's own binary-operator error, raised before any class or string is
    # built: not an AttributeError on other.a, nor operator.index on c.a * other
    c = DivisorClass(1, (0,) * 6)
    for other in others:
        with pytest.raises(TypeError, match="unsupported operand|can't multiply sequence"):
            op(c, other)
        with pytest.raises(TypeError):
            op(other, c)


def test_divisor_class_needs_six_coefficients():
    for b in ((1, 2), (), (1, 1, 1, 1, 1, 1, 1)):
        with pytest.raises(ValueError):
            DivisorClass(1, b)


def test_coefficients_must_be_integers():
    # int() would truncate 12.9 to 12 and split "444444" into six digits
    with pytest.raises(TypeError):
        D(12.9, 4, 4, 4, 4, 2, 2.5)
    with pytest.raises(TypeError):
        DivisorClass(12, "444444")
    with pytest.raises(TypeError):
        D("12", 4, 4, 4, 4, 2, 2)
    np = pytest.importorskip("numpy")
    c = DivisorClass(np.int64(12), (True, np.int32(4), 4, 4, 2, 2))
    assert (type(c.a), {type(x) for x in c.b}) == (int, {int})
    assert str(c) == "12;1,4,4,4,2,2"


def test_lines27_enumeration_order():
    ls = lines27()
    assert len(ls) == 27
    # six exceptional classes first, then l-ei-ej with (i, j) ascending,
    # then the six conic-through-five-points classes
    assert ls[0] == D(0, -1, 0, 0, 0, 0, 0)
    assert ls[6] == D(1, 1, 1, 0, 0, 0, 0)
    assert ls[7] == D(1, 1, 0, 1, 0, 0, 0)
    assert ls[21] == D(2, 0, 1, 1, 1, 1, 1)
    assert ls[26] == D(2, 1, 1, 1, 1, 1, 0)
    for l in ls:
        assert l.square == -1 and K.dot(l) == -1
    assert len(set(ls)) == 27


def test_conics27_residuals():
    qs = conics27()
    assert len(qs) == len(set(qs)) == 27
    for q in qs:
        assert q.square == 0 and K.dot(q) == -2
        assert (-K - q) in lines27()


def test_conics27_order_is_the_line_order_through_minus_k():
    qs, ls = conics27(), lines27()
    # 2l - sum_{j != i} ej -> l - ei, l - ei - ej -> 2l minus the other four
    # (complements of pairs run in reverse), ei -> 3l - sum(ej) - ei
    assert qs[0] == D(1, 1, 0, 0, 0, 0, 0)
    assert qs[5] == D(1, 0, 0, 0, 0, 0, 1)
    assert qs[6] == D(2, 1, 1, 1, 1, 0, 0)
    assert qs[20] == D(2, 0, 0, 1, 1, 1, 1)
    assert qs[21] == D(3, 2, 1, 1, 1, 1, 1)
    assert qs[26] == D(3, 1, 1, 1, 1, 1, 2)
    for k in range(6):
        assert qs[k] == -K - ls[21 + k]
        assert qs[21 + k] == -K - ls[k]
    for k in range(15):
        assert qs[6 + k] == -K - ls[20 - k]


def test_line_pair_intersections():
    ls = lines27()
    for i, a in enumerate(ls):
        for b in ls[i + 1 :]:
            assert a.dot(b) in (0, 1)


def test_perm_validation():
    with pytest.raises(ValueError):
        Perm((1, 1, 2, 3, 4, 5))
    with pytest.raises(ValueError):
        Perm((0, 1, 2, 3, 4, 5))
    with pytest.raises(ValueError):
        Cremona(1, 1, 2)
    with pytest.raises(ValueError):
        Cremona(0, 1, 2)


def test_perm_moves_coefficients():
    c = D(7, 6, 5, 4, 3, 2, 1)
    # slot i receives the coefficient from slot sigma[i]
    assert apply_generator(Perm((2, 1, 3, 4, 5, 6)), c) == D(7, 5, 6, 4, 3, 2, 1)
    assert apply_generator(Perm((6, 1, 2, 3, 4, 5)), c) == D(7, 1, 6, 5, 4, 3, 2)


def test_cremona_example():
    c = D(2, 1, 1, 1, 0, 0, 0)
    got = apply_generator(Cremona(1, 2, 3), c)
    # t = 2 - 3 = -1
    assert got == D(1, 0, 0, 0, 0, 0, 0)


def test_generators_preserve_pairing_and_K():
    rng = random.Random(11)
    perms = [Perm(tuple(rng.sample(range(1, 7), 6))) for _ in range(5)]
    crems = [Cremona(*sorted(rng.sample(range(1, 7), 3))) for _ in range(5)]
    for gen in perms + crems:
        assert apply_generator(gen, K) == K
        for _ in range(40):
            a = D(rng.randint(-5, 9), *(rng.randint(-4, 6) for _ in range(6)))
            b = D(rng.randint(-5, 9), *(rng.randint(-4, 6) for _ in range(6)))
            assert apply_generator(gen, a).dot(apply_generator(gen, b)) == a.dot(b)


def test_is_standard():
    assert is_standard(D(12, 4, 4, 4, 4, 2, 2))
    assert not is_standard(D(12, 4, 4, 2, 4, 4, 2))  # not sorted
    assert not is_standard(D(2, 1, 1, 1, 0, 0, 0))  # a < b1+b2+b3


def test_reduce_fixed_points():
    for c in (ZERO, -K, D(12, 4, 4, 4, 4, 2, 2)):
        red = reduce_to_standard(c)
        assert red.standard == c
        assert red.word == ()


def test_reduce_word_replays():
    rng = random.Random(7)
    for _ in range(300):
        c = D(rng.randint(-6, 12), *(rng.randint(-6, 9) for _ in range(6)))
        red = reduce_to_standard(c)
        assert is_standard(red.standard)
        assert apply_word(red.word, c) == red.standard
        assert degree(red.standard) == degree(c)
        assert red.standard.square == c.square


def test_reduce_known_pair():
    # blowdown structure shuffle of the d=16 example
    c = apply_word(
        (Perm((3, 1, 4, 2, 6, 5)), Cremona(1, 2, 3), Perm((2, 5, 1, 3, 4, 6))),
        D(12, 4, 4, 4, 4, 2, 2),
    )
    assert reduce_to_standard(c).standard == D(12, 4, 4, 4, 4, 2, 2)


def test_every_line_reduces_to_e6():
    for l in lines27():
        assert reduce_to_standard(l).standard == D(0, 0, 0, 0, 0, 0, -1)
