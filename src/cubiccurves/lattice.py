"""Exact arithmetic in the rank-7 divisor lattice of a smooth cubic surface.

A class is written (a; b1,...,b6) and stands for a*l - sum(bi*ei), where l is
the pullback of a plane line and e1..e6 are the exceptional classes of the six
blown-up points.  The pairing has signature (1,6):

    l.l = 1,   ei.ej = -delta_ij,   l.ei = 0,

so (a;b).(a';b') = a*a' - sum(bi*bi').  The canonical class is
K = (-3;-1,...,-1) with K.K = 3 and K.D = -3a + sum(bi).

Everything here is immutable plain-integer data, safe to share across
threads.  The 27 line classes and 27 conic classes are enumerated in a fixed
order (used for byte-reproducible reports): the six ei, the fifteen l-ei-ej
with i<j ascending, the six 2l - sum_{j != i} ej with i ascending, and the
analogous order for conics.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True, slots=True)
class DivisorClass:
    """A divisor class (a; b1..b6), i.e. a*l - sum(bi*ei)."""

    a: int
    b: tuple[int, int, int, int, int, int]

    def __post_init__(self) -> None:
        if len(self.b) != 6:
            raise ValueError("a divisor class needs exactly six b-coefficients")
        object.__setattr__(self, "a", int(self.a))
        object.__setattr__(self, "b", tuple(map(int, self.b)))

    @classmethod
    def of(cls, a: int, *b: int) -> "DivisorClass":
        return cls(a, tuple(b))

    def dot(self, other: "DivisorClass") -> int:
        return self.a * other.a - sum(x * y for x, y in zip(self.b, other.b))

    @property
    def square(self) -> int:
        return self.dot(self)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.a + other.a, tuple(map(operator.add, self.b, other.b)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.a - other.a, tuple(map(operator.sub, self.b, other.b)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(-self.a, tuple([-x for x in self.b]))

    def __mul__(self, n: int) -> "DivisorClass":
        return DivisorClass(self.a * n, tuple([x * n for x in self.b]))

    __rmul__ = __mul__

    def __str__(self) -> str:
        return f"{self.a};{','.join(str(x) for x in self.b)}"


ZERO = DivisorClass(0, (0, 0, 0, 0, 0, 0))


def canonical() -> DivisorClass:
    """The canonical class K = (-3;-1,...,-1)."""
    return DivisorClass(-3, (-1, -1, -1, -1, -1, -1))


K = canonical()


def intersect(d1: DivisorClass, d2: DivisorClass) -> int:
    return d1.dot(d2)


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
    """The 27 conic classes (q.q = 0, K.q = -2); -K-q is always a line."""
    out = [DivisorClass(1, _unit(i, 1)) for i in range(6)]
    for quad in itertools.combinations(range(6), 4):
        b = [0] * 6
        for i in quad:
            b[i] = 1
        out.append(DivisorClass(2, tuple(b)))
    for i in range(6):
        b = [1] * 6
        b[i] = 2
        out.append(DivisorClass(3, tuple(b)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Weyl-group reduction to standard form.


@dataclass(frozen=True, slots=True)
class Perm:
    """Coefficient shuffle: slot i receives the old coefficient sigma[i-1] (1-based)."""

    sigma: tuple[int, int, int, int, int, int]

    def __post_init__(self) -> None:
        if sorted(self.sigma) != [1, 2, 3, 4, 5, 6]:
            raise ValueError(f"not a permutation of 1..6: {self.sigma}")


@dataclass(frozen=True, slots=True)
class Cremona:
    """Quadratic transformation based at the points i, j, k (1-based, distinct)."""

    i: int
    j: int
    k: int

    def __post_init__(self) -> None:
        if len({self.i, self.j, self.k}) != 3 or not all(1 <= x <= 6 for x in (self.i, self.j, self.k)):
            raise ValueError(f"Cremona needs three distinct indices in 1..6: {(self.i, self.j, self.k)}")


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
    b = d.b
    return all(b[i] >= b[i + 1] for i in range(5)) and d.a >= b[0] + b[1] + b[2]


def _sort_perm(b: tuple[int, ...]) -> tuple[int, ...]:
    # Stable descending order; ties keep their original relative order
    # (sorted stays stable under reverse=True).
    return tuple([i + 1 for i in sorted(range(6), key=b.__getitem__, reverse=True)])


_IDENTITY = (1, 2, 3, 4, 5, 6)
_CREMONA_123 = Cremona(1, 2, 3)


@dataclass(frozen=True, slots=True)
class StandardReduction:
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
