"""Exact arithmetic in the rank-7 divisor lattice of a smooth cubic surface.

A class is written (a; b1,...,b6) and stands for a*l - sum(bi*ei), where l is
the pullback of a plane line and e1..e6 are the exceptional classes of the six
blown-up points.  The pairing has signature (1,6):

    l.l = 1,   ei.ej = -delta_ij,   l.ei = 0,

so (a;b).(a';b') = a*a' - sum(bi*bi').  The canonical class is
K = (-3;-1,...,-1) with K.K = 3 and K.D = -3a + sum(bi).

Everything here is immutable plain-integer data, safe to share across
threads.  The 27 line classes are enumerated in a fixed order (used for
byte-reproducible reports): the six ei, the fifteen l-ei-ej with i<j
ascending, and the six 2l - sum_{j != i} ej with i ascending.  The 27 conic
classes are their residuals -K - l: conic k is -K - line(21+k), conic 6+k is
-K - line(20-k) and conic 21+k is -K - line(k).
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from typing import NamedTuple


class DivisorClass:
    """A divisor class (a; b1..b6), i.e. a*l - sum(bi*ei).

    An immutable value, written by hand because importing dataclasses also
    imports inspect, which every CLI call would pay for at start-up: a field
    cannot be assigned or deleted, two classes are equal when their
    coefficients are, the hash is hash((a, b)), and there is no order.
    """

    __slots__ = ("a", "b")
    a: int
    b: tuple[int, int, int, int, int, int]

    def __init__(self, a: int, b: tuple[int, ...]) -> None:
        if len(b) != 6:
            raise ValueError("a divisor class needs exactly six b-coefficients")
        # operator.index, not int: a float or a digit string is a TypeError, not truncated or split
        object.__setattr__(self, "a", operator.index(a))
        object.__setattr__(self, "b", tuple(map(operator.index, b)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return DivisorClass, (self.a, self.b)

    def __eq__(self, other):
        if other.__class__ is not DivisorClass:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __repr__(self) -> str:
        return f"DivisorClass(a={self.a!r}, b={self.b!r})"

    @classmethod
    def of(cls, a: int, *b: int) -> "DivisorClass":
        return cls(a, tuple(b))

    def dot(self, other: "DivisorClass") -> int:
        return self.a * other.a - sum(x * y for x, y in zip(self.b, other.b))

    @property
    def square(self) -> int:
        return self.dot(self)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if other.__class__ is not DivisorClass:
            return NotImplemented
        return DivisorClass(self.a + other.a, tuple(map(operator.add, self.b, other.b)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if other.__class__ is not DivisorClass:
            return NotImplemented
        return DivisorClass(self.a - other.a, tuple(map(operator.sub, self.b, other.b)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(-self.a, tuple([-x for x in self.b]))

    def __mul__(self, n: int) -> "DivisorClass":
        try:
            n = operator.index(n)
        except TypeError:
            return NotImplemented
        return DivisorClass(self.a * n, tuple([x * n for x in self.b]))

    __rmul__ = __mul__

    def __str__(self) -> str:
        return f"{self.a};{','.join(str(x) for x in self.b)}"


K = DivisorClass(-3, (-1, -1, -1, -1, -1, -1))


def degree(d: DivisorClass) -> int:
    """The anticanonical degree -K.D = 3a - sum(bi)."""
    return 3 * d.a - sum(d.b)


def _unit(i: int, value: int) -> tuple[int, ...]:
    b = [0] * 6
    b[i] = value
    return tuple(b)


@lru_cache(maxsize=1)
def lines27() -> tuple[DivisorClass, ...]:
    """The 27 line classes (l.l = -1, K.l = -1) in the fixed enumeration order."""
    out = [DivisorClass(0, _unit(i, -1)) for i in range(6)]
    for i, j in itertools.combinations(range(6), 2):
        b = [0] * 6
        b[i] = b[j] = 1
        out.append(DivisorClass(1, tuple(b)))
    for i in range(6):
        b = [1] * 6
        b[i] = 0
        out.append(DivisorClass(2, tuple(b)))
    return tuple(out)


def line_pairings(a: int, b: tuple[int, ...]) -> tuple[int, ...]:
    """D.l for D = (a; b) and the 27 lines, in lines27() order.

    Closed forms on plain integers: D.ei = bi, D.(l-ei-ej) = a-bi-bj and
    D.(2l - sum_{k != i} ek) = 2a - sum(b) + bi.
    """
    b1, b2, b3, b4, b5, b6 = b
    t = 2 * a - b1 - b2 - b3 - b4 - b5 - b6
    return (
        b1, b2, b3, b4, b5, b6,
        a - b1 - b2, a - b1 - b3, a - b1 - b4, a - b1 - b5, a - b1 - b6,
        a - b2 - b3, a - b2 - b4, a - b2 - b5, a - b2 - b6,
        a - b3 - b4, a - b3 - b5, a - b3 - b6,
        a - b4 - b5, a - b4 - b6,
        a - b5 - b6,
        t + b1, t + b2, t + b3, t + b4, t + b5, t + b6,
    )


@lru_cache(maxsize=1)
def conics27() -> tuple[DivisorClass, ...]:
    """The 27 conic classes (q.q = 0, K.q = -2): the residuals -K - l of the
    27 lines, l - ei, then 2l minus four ej, then 3l - sum(ej) - ei."""
    ls = lines27()
    return tuple([-K - l for l in ls[21:] + ls[20:5:-1] + ls[:6]])


# ---------------------------------------------------------------------------
# Weyl-group reduction to standard form.


def _checked_make(cls, iterable):
    """_make, and _replace through it, build through the checked __new__."""
    return cls(*iterable)


class Perm(NamedTuple("Perm", [("sigma", tuple[int, int, int, int, int, int])])):
    """Coefficient shuffle: slot i receives the old coefficient sigma[i-1] (1-based)."""

    __slots__ = ()

    def __new__(cls, sigma: tuple[int, int, int, int, int, int]) -> "Perm":
        if sorted(sigma) != [1, 2, 3, 4, 5, 6]:
            raise ValueError(f"not a permutation of 1..6: {sigma}")
        return super().__new__(cls, sigma)

    _make = classmethod(_checked_make)


class Cremona(NamedTuple("Cremona", [("i", int), ("j", int), ("k", int)])):
    """Quadratic transformation based at the points i, j, k (1-based, distinct)."""

    __slots__ = ()

    def __new__(cls, i: int, j: int, k: int) -> "Cremona":
        if len({i, j, k}) != 3 or not all(1 <= x <= 6 for x in (i, j, k)):
            raise ValueError(f"Cremona needs three distinct indices in 1..6: {(i, j, k)}")
        return super().__new__(cls, i, j, k)

    _make = classmethod(_checked_make)


WeylGenerator = Perm | Cremona
WeylWord = tuple[WeylGenerator, ...]


def apply_generator(gen: WeylGenerator, d: DivisorClass) -> DivisorClass:
    if isinstance(gen, Perm):
        return DivisorClass(d.a, tuple(d.b[s - 1] for s in gen.sigma))
    # Cremona(i,j,k): a -> 2a - bi - bj - bk, bx -> a - sum of the other two,
    # i.e. add t = a - bi - bj - bk to a and to each of bi, bj, bk.
    idx = (gen.i - 1, gen.j - 1, gen.k - 1)
    t = d.a - sum(d.b[x] for x in idx)
    b = list(d.b)
    for x in idx:
        b[x] += t
    return DivisorClass(d.a + t, tuple(b))


def apply_word(word: WeylWord, d: DivisorClass) -> DivisorClass:
    for gen in word:
        d = apply_generator(gen, d)
    return d


def is_standard(d: DivisorClass) -> bool:
    """b1 >= ... >= b6 and a >= b1 + b2 + b3."""
    b1, b2, b3, b4, b5, b6 = d.b
    return b1 >= b2 >= b3 >= b4 >= b5 >= b6 and d.a >= b1 + b2 + b3


def _sort_perm(b: tuple[int, ...]) -> tuple[int, ...]:
    # Stable descending order; ties keep their original relative order
    # (sorted stays stable under reverse=True).
    return tuple([i + 1 for i in sorted(range(6), key=b.__getitem__, reverse=True)])


_IDENTITY = (1, 2, 3, 4, 5, 6)
_CREMONA_123 = Cremona(1, 2, 3)


class StandardReduction(NamedTuple):
    input: DivisorClass
    standard: DivisorClass
    word: WeylWord


def reduce_to_standard(d: DivisorClass) -> StandardReduction:
    """Reduce to the standard-form representative of the Weyl orbit.

    Alternates a stable descending sort of the bi with the Cremona move at
    (1,2,3).  Each Cremona strictly decreases a (it only fires when
    a < b1+b2+b3), and W(E6) is finite, so the loop halts.  The moves run
    on the plain coefficients (what apply_generator does, without building a
    class per step).  The returned word replays input -> standard.
    """
    word: list[WeylGenerator] = []
    a, b = d.a, d.b
    while True:
        sigma = _sort_perm(b)
        if sigma != _IDENTITY:
            word.append(Perm(sigma))
            b = tuple([b[s - 1] for s in sigma])
        t = a - b[0] - b[1] - b[2]
        if t >= 0:
            break
        word.append(_CREMONA_123)
        a += t
        b = (b[0] + t, b[1] + t, b[2] + t, b[3], b[4], b[5])
    standard = DivisorClass(a, b) if word else d
    return StandardReduction(input=d, standard=standard, word=tuple(word))
