"""Independent h0 oracle: interpolation at six random rational points.

A class (a; b1..b6) with bi >= 0 counts plane curves of degree a with a
point of multiplicity >= bi at each of six general points, so h0 is

    (a+1)(a+2)/2  -  rank(vanishing conditions)

with one row per partial derivative of order < bi per point.  Negative bi
are first clamped to 0 (forced fixed exceptional components do not change
h0) and a < 0 gives 0 outright.  Classes that still have a > A_MAX after
clamping are turned away (OracleTooLarge) instead of running for minutes.

The rank is taken by Gaussian elimination over Z/P with the prime
P = 2^61 - 1 (modular_rank; no floating point).  Each row is packed into
one Python int, one fixed-width slot per column, so clearing a column of a
row is one big-int multiply-add rather than one interpreted step per entry.
The slots are wide enough (2^W > P + cols * (P-1)^2) that a row is reduced
mod P only once, on entry, and no slot ever carries into the next.  A minor
that is nonzero mod P is nonzero over the integers, and ranks at special
points can only drop, so

    rank mod P  <=  rank over Q at the points  <=  generic rank,
    h0 mod P    >=  h0 at the points           >=  generic h0.

The oracle reruns with two further seeds and keeps the minimum section
count.  An engine value that is too low is therefore always caught; one
that is too high gets through only if, at each of the three seeds, the
points are special or P divides the relevant minor.

Points are drawn from a small integer grid, checked exactly for degeneracy
(no three collinear; no conic through all six, by the exact fraction-free
rank exact_rank) and resampled on failure.  This module never feeds the
cohomology engine; it exists to contradict it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import DegeneratePoints, OracleTooLarge
from .lattice import DivisorClass

try:  # optional: exact_rank (Bareiss) only sees the 6x6 conic test's matrices
    from gmpy2 import mpz
except ImportError:  # pragma: no cover
    mpz = int

COORD_MAX = 99  # grid height; well under the 10^4 cap, keeps minors small
P = 2**61 - 1  # the Mersenne prime modular_rank eliminates over
A_MAX = 30  # largest clamped a the oracle takes on
# largest condition matrix (rows x columns): the square one at a = A_MAX;
# the elimination's cost follows the matrix, not a alone
CELLS_MAX = ((A_MAX + 1) * (A_MAX + 2) // 2) ** 2


def exact_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    rows = [[mpz(x) for x in row] for row in rows if any(row)]
    rank = 0
    prev = mpz(1)
    while rows and rows[0]:
        piv_idx = next((i for i, r in enumerate(rows) if r[0]), None)
        if piv_idx is None:
            rows = [r[1:] for r in rows]
            continue
        pivot_row = rows.pop(piv_idx)
        piv = pivot_row[0]
        rank += 1
        nxt = []
        for r in rows:
            f = r[0]
            nr = [(piv * r[j] - f * pivot_row[j]) // prev for j in range(1, len(r))]
            if any(nr):
                nxt.append(nr)
        rows = nxt
        prev = piv
    return rank


def _pack(entries, nbytes: int) -> int:
    return int.from_bytes(b"".join(x.to_bytes(nbytes, "little") for x in entries), "little")


def modular_rank(rows) -> int:
    """Rank over Z/P of an integer matrix, by packed-row elimination.

    Each row is reduced mod P once and packed into one int, one byte-aligned
    slot of W bits per column with the leading column in the lowest slot.
    Pivots like exact_rank, on the first row whose leading slot is nonzero
    mod P; the pivot row is unpacked, reduced, scaled to lead with -1 and
    repacked, so clearing the leading column of any other row r is one
    big-int multiply-add (r >> W) + ((r & mask) % P) * pivot, which also
    drops that column.  Rows that are zero mod P ride along with factor 0.

    Other rows are never reduced again.  A row takes at most one update per
    column, each adding at most (P-1)^2 to a slot that started below P, so
    W is chosen with 2^W > P + cols * (P-1)^2: slots stay non-negative and
    never carry into their neighbours.
    """
    rows = [[x % P for x in row] for row in rows]
    cols = len(rows[0]) if rows else 0
    nbytes = ((P + cols * (P - 1) ** 2).bit_length() + 7) // 8
    width = 8 * nbytes
    mask = (1 << width) - 1
    packed = [_pack(row, nbytes) for row in rows]
    rank = 0
    for col in range(cols):
        if not packed:
            break
        leads = [(r & mask) % P for r in packed]
        piv_idx = next((i for i, f in enumerate(leads) if f), None)
        if piv_idx is None:
            packed = [r >> width for r in packed]
            continue
        raw = packed.pop(piv_idx).to_bytes((cols - col) * nbytes, "little")
        scale = P - pow(leads.pop(piv_idx), -1, P)
        pivot = _pack(
            (int.from_bytes(raw[i : i + nbytes], "little") * scale % P for i in range(nbytes, len(raw), nbytes)),
            nbytes,
        )
        rank += 1
        packed = [(r >> width) + f * pivot for r, f in zip(packed, leads)]
    return rank


@dataclass(frozen=True)
class PointConfig:
    seed: int
    points: tuple[tuple[int, int], ...]


def _general_position(pts) -> bool:
    for (x1, y1), (x2, y2), (x3, y3) in combinations(pts, 3):
        if (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1) == 0:
            return False
    conic = [[x * x, x * y, y * y, x, y, 1] for x, y in pts]
    return exact_rank(conic) == 6


@lru_cache(maxsize=None)
def point_config(seed: int) -> PointConfig:
    """Six exact points in general position, deterministic per seed."""
    rng = random.Random(seed)
    for _ in range(10):
        pts = tuple((rng.randint(1, COORD_MAX), rng.randint(1, COORD_MAX)) for _ in range(6))
        if len(set(pts)) == 6 and _general_position(pts):
            return PointConfig(seed=seed, points=pts)
    raise DegeneratePoints(f"no general-position sample after 10 tries (seed {seed})")


def _monomials(a: int) -> list[tuple[int, int]]:
    return [(u, s - u) for s in range(a + 1) for u in range(s, -1, -1)]


def _condition_rows(a: int, mults, cfg: PointConfig):
    mons = _monomials(a)
    rows = []
    for (x, y), m in zip(cfg.points, mults):
        if m <= 0:
            continue
        xp = [1] * (a + 1)
        yp = [1] * (a + 1)
        for i in range(1, a + 1):
            xp[i] = xp[i - 1] * x
            yp[i] = yp[i - 1] * y
        for j in range(m):
            for k in range(m - j):
                rows.append(
                    [
                        math.perm(u, j) * math.perm(v, k) * xp[u - j] * yp[v - k]
                        if u >= j and v >= k
                        else 0
                        for u, v in mons
                    ]
                )
    return rows


@lru_cache(maxsize=100_000)
def _h0_at(d: DivisorClass, seed: int) -> int:
    cfg = point_config(seed)
    mults = [max(x, 0) for x in d.b]
    n = (d.a + 1) * (d.a + 2) // 2
    return n - modular_rank(_condition_rows(d.a, mults, cfg))


def h0_interpolation(d: DivisorClass, seed: int = 0) -> int:
    """h0 of the class by interpolation mod P, minimized over three seeds.

    OracleTooLarge when the clamped class has a > A_MAX or its condition
    matrix has more than CELLS_MAX entries.
    """
    if d.a < 0:
        return 0
    if all(x <= 0 for x in d.b):
        return (d.a + 1) * (d.a + 2) // 2
    clamped = DivisorClass(d.a, tuple(max(x, 0) for x in d.b))
    if clamped.a > A_MAX:
        raise OracleTooLarge(
            f"class {clamped} (negative bi clamped to 0) is too large for the interpolation oracle: "
            f"a = {clamped.a} > {A_MAX}"
        )
    rows = sum([m * (m + 1) // 2 for m in clamped.b])
    cols = (clamped.a + 1) * (clamped.a + 2) // 2
    if rows * cols > CELLS_MAX:
        raise OracleTooLarge(
            f"class {clamped} (negative bi clamped to 0) is too large for the interpolation oracle: "
            f"its {rows} x {cols} condition matrix has {rows * cols} > {CELLS_MAX} entries"
        )
    return min(_h0_at(clamped, s) for s in (seed, seed + 1, seed + 2))
