"""Independent h0 oracle: interpolation at six random rational points.

A class (a; b1..b6) with bi >= 0 counts plane curves of degree a with a
point of multiplicity >= bi at each of six general points, so h0 is

    (a+1)(a+2)/2  -  rank(vanishing conditions)

with one condition per partial derivative of order < bi per point.
Negative bi are first clamped to 0 (forced fixed exceptional components do
not change h0) and a < 0 gives 0 outright.  Classes that still have
a > A_MAX after clamping are turned away (OracleTooLarge) instead of
running for minutes.  That one rule bounds the cost.

The rank is taken over Z/P with the prime P = 2^31 - 1 (no floating point),
in a frame chosen per point set (condition_rank).  The three points of
largest multiplicity go to the coordinate points [0:0:1], [0:1:0], [1:0:0],
where "multiplicity >= m" only says that the coefficients of some monomials
vanish; those monomials are counted, not eliminated.  The torus left over
takes the heaviest other point p3 to [1:1:1], where its rows do not depend
on the points: they are eliminated once per call (_frame), and each seed
eliminates only the two lightest points' rows, against p3's pivots and their
own.  The rank mod P is that of the untransformed matrix, because:
every bracket of three grid points, det M and each adj(M)-mapped coordinate
among them, is an integer of absolute value at most 98^2 < P, so a nonzero
one stays nonzero mod P and the change of coordinates is invertible over
F_P; it maps "vanishes to order m at p" onto "vanishes to order m at its
image"; and P > A_MAX exceeds every degree, so derivatives of order < m
describe order-m vanishing over F_P as they do over Q.  A degenerate point
set raises DegeneratePoints.  Over a <= A_MAX the work peaks at (33; 13^6),
under half a second a call.

A minor that is nonzero mod P is nonzero over the integers, and ranks at
special points can only drop, so

    rank mod P  <=  rank over Q at the points  <=  generic rank,
    h0 mod P    >=  h0 at the points           >=  generic h0.

The oracle reruns with up to two further seeds and keeps the minimum
section count.  No rank exceeds min(sum mi(mi+1)/2, (a+1)(a+2)/2), the
condition matrix's rows and columns, so a seed that reaches that bound
gives the generic h0 exactly and ends the reruns.  An engine value that is
too low is therefore always caught; one that is too high gets through only
if, at each of the three seeds, the points are special or P divides the
relevant minor (about 2^-31 a seed).

Points are drawn from a small integer grid, checked exactly for degeneracy
(no three collinear; no conic through all six, by the bracket identity in
_general_position) and resampled on failure.  This module never feeds the
cohomology engine; it exists to contradict it.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .errors import DegeneratePoints, OracleTooLarge, PreconditionError
from .lattice import DivisorClass

mpz = int  # read by the benchmark's environment line; exact_rank runs on Python ints

# grid height, well under the 10^4 cap; keeps minors small, and each 3x3
# determinant of points at most 98^2 < P in absolute value, so no three
# points are collinear mod P either
COORD_MAX = 99
P_BITS = 31
P = (1 << P_BITS) - 1  # the Mersenne prime the ranks are taken over
A_MAX = 33  # largest clamped a the oracle takes on, and the only size rule


def exact_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    rows = [[int(x) for x in row] for row in rows if any(row)]
    rank = 0
    prev = 1
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


def _slot_bytes(pivots: int) -> int:
    """Bytes per slot that no row outgrows in an elimination with <= pivots pivots.

    A slot starts below P^2 and takes at most one update per pivot, which
    adds f * s with f < P and a pivot slot s < 2^(P_BITS + 1) (see _folds),
    so every slot stays below (pivots + 1) * 2^(2 P_BITS + 1).
    """
    return (((pivots + 1) << 2 * P_BITS + 1).bit_length() + 7) // 8


def _fold(row: int, low: int, high: int) -> int:
    """Each slot's bits above bit P_BITS added to its low P_BITS bits: its residue mod P = 2^P_BITS - 1.

    low holds P in every slot, high the W - P_BITS low bits.  A slot below B
    comes out below P + 1 + (B >> P_BITS), and none carries.
    """
    return (row & low) + ((row >> P_BITS) & high)


def _folds(bound: int) -> int:
    """How many folds take every slot below bound to below 2^(P_BITS + 1)."""
    n = 0
    while bound >= 1 << P_BITS + 1:
        n, bound = n + 1, P + 1 + (bound >> P_BITS)
    return n


def _eliminate(packed: list[int], cols: int, nbytes: int, pivots: list) -> int:
    """Rank over Z/P of packed rows: one slot of W = 8 * nbytes bits per column.

    The leading column sits in the lowest slot.  At column c the pivot is
    pivots[c] if recorded, else the first row whose leading slot is nonzero
    mod P, folded below 2^(P_BITS + 1) per slot, scaled to lead with -1,
    folded below that again, stripped of its leading slot and recorded in
    pivots[c], all on the packed row.  Clearing the leading column of any
    other row r is then one big-int multiply-add
    (r >> W) + ((r & mask) % P) * pivot, which also drops that column.  Rows
    that are zero mod P ride along with factor 0.  Other rows are never
    reduced.  Returns the count of pivots found.
    Slots must start below P^2, and nbytes be _slot_bytes(k) for k >= the
    most pivots, recorded or found; then no slot ever carries.
    """
    width = 8 * nbytes
    mask = (1 << width) - 1
    ones = ((1 << width * cols) - 1) // mask  # 1 in every slot
    low, high = P * ones, ((1 << (width - P_BITS)) - 1) * ones
    before, after = _folds(1 << width), _folds((P - 1) << P_BITS + 1)
    rank = 0
    for c in range(cols):
        if not packed:
            break
        pivot = pivots[c]
        if pivot is None:
            piv_idx = next((i for i, r in enumerate(packed) if (r & mask) % P), None)
            if piv_idx is None:
                packed = [r >> width for r in packed]
                continue
            pivot = packed.pop(piv_idx)
            lead = (pivot & mask) % P
            pivot >>= width
            for _ in range(before):
                pivot = _fold(pivot, low, high)
            pivot *= P - pow(lead, -1, P)
            for _ in range(after):
                pivot = _fold(pivot, low, high)
            pivots[c] = pivot
            rank += 1
        packed = [(r >> width) + (r & mask) % P * pivot for r in packed]
    return rank


class PointConfig(NamedTuple):
    seed: int
    points: tuple[tuple[int, int], ...]


def _general_position(pts) -> bool:
    """No two of the six points equal, no three collinear and no conic through all six.

    b lists the brackets [ijk] = det[p_i | p_j | p_k], p = (x, y, 1), for
    i < j < k in lexicographic order (b[0] = [123], b[19] = [456]).  Two
    equal points make a bracket 0, as three collinear ones do.  For integer
    points [123][145][246][356] - [124][135][236][456] is exactly -det of
    the 6 x 6 conic matrix with rows (x^2, xy, y^2, x, y, 1), so the conic
    test agrees with exact_rank(conic matrix) == 6.
    """
    b = [(x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1) for (x1, y1), (x2, y2), (x3, y3) in combinations(pts, 3)]
    return all(b) and b[0] * b[7] * b[14] * b[18] != b[1] * b[5] * b[12] * b[19]


@lru_cache(maxsize=4096)
def point_config(seed: int) -> PointConfig:
    """Six exact points in general position, deterministic per seed >= 0
    (random.Random seeds by |seed|, so a negative seed is refused)."""
    if seed < 0:
        raise PreconditionError(f"seed must be >= 0, got {seed}")
    rng = random.Random(seed)
    for _ in range(10):
        pts = tuple((rng.randint(1, COORD_MAX), rng.randint(1, COORD_MAX)) for _ in range(6))
        if _general_position(pts):
            return PointConfig(seed=seed, points=pts)
    raise DegeneratePoints(f"no general-position sample after 10 tries (seed {seed})")


def _derivatives(x: int, a: int, m: int) -> list[list[int]]:
    """d[j][u] = (d/dx)^j x^u = u!/(u-j)! x^(u-j) mod P = u d[j-1][u-1], for j < m and u <= a."""
    d = [[1] * (a + 1)]
    for u in range(1, a + 1):
        d[0][u] = d[0][u - 1] * x % P
    while len(d) < m:
        d.append([0] + [u * r % P for u, r in enumerate(d[-1][:-1], 1)])
    return d[:m]


def _rows(x: int, y: int, m: int, a: int, nbytes: int, cuts) -> list[int]:
    """The packed rows of (d/dx)^j (d/dy)^k, j + k < m, at (x, y) on the monomials cuts leaves."""
    dy = _derivatives(y, a, m)
    rows = []
    for j, dxj in enumerate(_derivatives(x, a, m)):
        # (d/dx)^j x^u packed once and cut into the runs, at their columns;
        # the row of (d/dx)^j (d/dy)^k weights run v by (d/dy)^k y^v
        row = _pack(dxj, nbytes)
        runs_x = [(v, ((row >> lo) & keep) << off) for v, lo, keep, off in cuts]
        rows += [sum([dyk[v] * run for v, run in runs_x]) for dyk in dy[: m - j]]
    return rows


def _frame(a: int, mults):
    """condition_rank's seed-independent part: (a, mults, heavy, light, cuts, nbytes, pivots, rank).

    light holds the other points with mults > 0, p3 first; pivots holds p3's
    pivot row per column (or None) from its rows at (1, 1), and rank the
    monomials the heavy points kill plus those rows' rank.
    """
    order = sorted(range(len(mults)), key=lambda i: -mults[i])
    heavy, light = order[:3], [i for i in order[3:] if mults[i] > 0]
    m0, m1, m2 = (mults[i] for i in heavy)
    # the monomials left: for each v <= a - m1, the run of u from
    # max(m0 - v, 0) to min(a - m2, a - v), at column offset off
    runs, cols = [], 0
    for v in range(a - m1 + 1):
        lo, hi = max(m0 - v, 0), min(a - m2, a - v) + 1
        if lo < hi:
            runs.append((v, lo, hi, cols))
            cols += hi - lo
    nbytes = _slot_bytes(min(sum(mults[i] * (mults[i] + 1) // 2 for i in light), cols))
    width = 8 * nbytes
    # each run as (v, shift to its first u, mask of its slots, shift to its columns)
    cuts = [(v, width * lo, (1 << width * (hi - lo)) - 1, width * off) for v, lo, hi, off in runs]
    pivots = [None] * cols
    rank = (a + 1) * (a + 2) // 2 - cols
    if light and cols:
        rank += _eliminate(_rows(1, 1, mults[light[0]], a, nbytes, cuts), cols, nbytes, pivots)
    return a, mults, heavy, light, cuts, nbytes, pivots, rank


def condition_rank(frame, cfg: PointConfig) -> int:
    """Rank mod P of the conditions "multiplicity >= mults[i] at point i" on degree a,
    for the frame _frame(a, mults) and the points of cfg.

    The three heaviest points p0, p1, p2 (ties by index) go to [0:0:1],
    [0:1:0] and [1:0:0] by adj(M), M = [p2 | p1 | p0].  There the
    conditions on the coefficient of x^u y^v say it is 0 when u + v < m0,
    when v > a - m1 or when u > a - m2.  Those monomials count once each,
    however many of the three kill them.  The torus x -> sx x, y -> sy y
    then takes the heaviest lighter point p3 to [1:1:1]; it scales columns
    by sx^u sy^v and rows by units, which keeps the rank.  In the chart
    z = 1 each lighter point gives one row per partial derivative of order
    < m over the monomials left, ordered by v and then u.  p3's rows,
    u!/(u-j)! v!/(v-k)!, are the same at every seed and come first, so
    _eliminate pivots on them wherever one leads, and a later row pivots
    only where all of them are 0, leaving them unchanged: p3's pivot rows
    depend on a and mults alone.  The frame (built once per h0_interpolation
    call) holds them with its class, and only the other lighter points' rows
    are eliminated here.  DegeneratePoints if det M, the last coordinate of a
    mapped point or a chart coordinate of p3 is 0 mod P.
    """
    a, mults, heavy, light, cuts, nbytes, pivots, rank = frame
    (x0, y0), (x1, y1), (x2, y2) = (cfg.points[i] for i in heavy)
    # rows of adj(M): p1 x p0, p0 x p2 and p2 x p1, whose dot with p is det[p2 | p1 | p]
    adj = (
        (y1 - y0, x0 - x1, x1 * y0 - x0 * y1),
        (y0 - y2, x2 - x0, x0 * y2 - x2 * y0),
        (y2 - y1, x1 - x2, x2 * y1 - x1 * y2),
    )
    if (adj[2][0] * x0 + adj[2][1] * y0 + adj[2][2]) % P == 0:
        raise DegeneratePoints(f"points {heavy} of seed {cfg.seed} are collinear mod P")
    points = []
    for i in light:
        x, y = cfg.points[i]
        X, Y, Z = (r[0] * x + r[1] * y + r[2] for r in adj)
        if Z % P == 0:
            raise DegeneratePoints(f"points {[heavy[2], heavy[1], i]} of seed {cfg.seed} are collinear mod P")
        if not points:  # p3: X = det[p1 | p0 | p3] and Y = det[p0 | p2 | p3]
            for n, pair in ((X, heavy[1::-1]), (Y, heavy[::2])):
                if n % P == 0:
                    raise DegeneratePoints(f"points {[*pair, i]} of seed {cfg.seed} are collinear mod P")
            sx, sy = Z * pow(X, -1, P) % P, Z * pow(Y, -1, P) % P
        zinv = pow(Z, -1, P)
        points.append((X * zinv * sx % P, Y * zinv * sy % P, mults[i]))
    if not pivots:  # the heavy points leave no monomials
        return rank
    packed = [r for x, y, m in points[1:] for r in _rows(x, y, m, a, nbytes, cuts)]
    return rank + _eliminate(packed, len(pivots), nbytes, pivots[:])


@lru_cache(maxsize=100_000)
def _h0_at(d: DivisorClass, seed: int) -> int:
    """h0 of a class whose bi are clamped to >= 0, minimized over seeds seed..seed + 2, which share one _frame.

    The condition matrix has sum bi(bi+1)/2 rows and (a+1)(a+2)/2 columns,
    so no seed's rank exceeds the smaller; the first seed to reach it
    settles the minimum, and the later seeds are not run.
    """
    frame = _frame(d.a, d.b)
    monomials = (d.a + 1) * (d.a + 2) // 2
    top, rank = min(sum(m * (m + 1) // 2 for m in d.b), monomials), 0
    for s in (seed, seed + 1, seed + 2):
        rank = max(rank, condition_rank(frame, point_config(s)))
        if rank == top:
            break
    return monomials - rank


def h0_interpolation(d: DivisorClass, seed: int = 0) -> int:
    """h0 of the class by interpolation mod P, minimized over seeds seed, seed + 1
    and seed + 2, or up to the first whose rank reaches its bound (_h0_at).

    OracleTooLarge when the clamped class has a > A_MAX.  No other bound is
    needed: over every class with a <= A_MAX the work of three seeds is
    largest at (A_MAX; 13^6), p3's 91 rows on 322 monomials once and 182 per
    seed.
    """
    if d.a < 0:
        return 0
    if all(x <= 0 for x in d.b):
        return (d.a + 1) * (d.a + 2) // 2
    clamped = DivisorClass(d.a, tuple(max(x, 0) for x in d.b))
    if clamped.a > A_MAX:
        note = " (negative bi clamped to 0)" if min(d.b) < 0 else ""
        raise OracleTooLarge(
            f"class {clamped}{note} is too large for the interpolation oracle: a = {clamped.a} > {A_MAX}"
        )
    return _h0_at(clamped, seed)
