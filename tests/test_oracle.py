"""Interpolation oracle: exact and modular rank, point configurations, h0 agreement."""

import math
import random
import re
import subprocess
import sys
from collections import Counter
from itertools import combinations, product
from pathlib import Path

import pytest
import sympy

from cubiccurves import oracle
from cubiccurves.cohomology import h0
from cubiccurves.errors import DegeneratePoints, OracleTooLarge, PreconditionError
from cubiccurves.lattice import DivisorClass, K
from cubiccurves.oracle import (
    A_MAX,
    COORD_MAX,
    P,
    P_BITS,
    PointConfig,
    _frame,
    _general_position,
    condition_rank,
    exact_rank,
    h0_interpolation,
    point_config,
)

D = DivisorClass.of


def ref_condition_rows(a: int, mults, cfg: PointConfig):
    """The exact integer condition matrix at the sampled points: the reference.

    One row per partial derivative of order < m at each point of
    multiplicity m, one column per monomial x^u y^v with u + v <= a.
    """
    mons = [(u, s - u) for s in range(a + 1) for u in range(s, -1, -1)]
    rows = []
    for (x, y), m in zip(cfg.points, mults):
        for j in range(m):
            for k in range(m - j):
                rows.append(
                    [
                        math.perm(u, j) * math.perm(v, k) * x ** (u - j) * y ** (v - k) if u >= j and v >= k else 0
                        for u, v in mons
                    ]
                )
    return rows


def ref_degeneracy(pts):
    """The rule _general_position replaced, as the reference: "collinear" if
    some three points are (coincident points included), else "conic" if the
    exact rank of the 6 x 6 conic matrix falls below 6, else None."""
    for (x1, y1), (x2, y2), (x3, y3) in combinations(pts, 3):
        if (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1) == 0:
            return "collinear"
    if exact_rank([[x * x, x * y, y * y, x, y, 1] for x, y in pts]) < 6:
        return "conic"
    return None


def ref_point_config(seed: int):
    """point_config's sampler on ref_degeneracy: the points, or None after ten tries."""
    rng = random.Random(seed)
    for _ in range(10):
        pts = tuple((rng.randint(1, COORD_MAX), rng.randint(1, COORD_MAX)) for _ in range(6))
        if len(set(pts)) == 6 and ref_degeneracy(pts) is None:
            return pts
    return None


def modular_rank(rows) -> int:
    """Rank over Z/P of an integer matrix, by the oracle's packed-row elimination (_eliminate)."""
    cols = len(rows[0]) if rows else 0
    nbytes = oracle._slot_bytes(min(len(rows), cols))
    packed = [oracle._pack([x % P for x in row], nbytes) for row in rows]
    return oracle._eliminate(packed, cols, nbytes, [None] * cols)


def ref_modular_rank(rows) -> int:
    """The list-based elimination modular_rank replaced: the reference.

    Each row is reduced mod P once on entry and stored reversed, so that
    dropping the leading column is a pop; the pivot row is scaled to lead
    with -1, and every entry of every other row is reduced after each update.
    """
    rows = [r for r in ([x % P for x in reversed(row)] for row in rows) if any(r)]
    rank = 0
    while rows and rows[0]:
        piv_idx = next((i for i, r in enumerate(rows) if r[-1]), None)
        if piv_idx is None:
            for r in rows:
                r.pop()
            continue
        pivot_row = rows.pop(piv_idx)
        scale = P - pow(pivot_row.pop(), -1, P)
        pivot_row = [x * scale % P for x in pivot_row]
        rank += 1
        nxt = []
        for r in rows:
            f = r.pop()
            if f:
                r = [(x + f * y) % P for x, y in zip(r, pivot_row)]
                if not any(r):
                    continue
            nxt.append(r)
        rows = nxt
    return rank


def test_exact_rank_against_sympy():
    # modular_rank too: these small matrices have no minor divisible by P
    rng = random.Random(42)
    for trial in range(120):
        n = rng.randint(1, 8)
        m = rng.randint(1, 10)
        rows = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        if trial % 3 == 0 and n >= 2:
            # force rank deficiency: make a row a combination of two others
            i, j = rng.sample(range(n), 2)
            rows[i] = [2 * a - 3 * b for a, b in zip(rows[j], rows[(j + 1) % n])]
        assert modular_rank(rows) == exact_rank(rows) == sympy.Matrix(rows).rank(), rows


def test_modular_rank_on_condition_matrices():
    # the matrices the benchmark's oracle rounds build: a = 10..12, with as
    # many conditions as monomials or one fewer, at seeded point sets
    rng = random.Random(7)
    deficient = 0
    for a in (10, 11, 12):
        cols = (a + 1) * (a + 2) // 2
        for _ in range(3):
            while True:
                b = [rng.randint(-1, a // 2) for _ in range(6)]
                if cols - 1 <= sum(m * (m + 1) // 2 for m in b if m > 0) <= cols:
                    break
            rows = ref_condition_rows(a, [max(m, 0) for m in b], point_config(rng.randrange(1 << 20)))
            rank = exact_rank(rows)
            assert modular_rank(rows) == ref_modular_rank(rows) == rank, (a, b)
            deficient += rank < min(len(rows), cols)
    assert deficient  # the rank-deficient path is exercised


def test_exact_rank_edge_cases():
    for rank in (exact_rank, modular_rank):
        assert rank([]) == 0
        assert rank([[0, 0], [0, 0]]) == 0
        assert rank([[0, 0, 3]]) == 1
        assert rank([[1, 2], [2, 4], [3, 6]]) == 1


def test_modular_rank_matches_reference_on_random_matrices():
    # entries that are 0, +-1 or +-10^30 mod P in several disguises, so that
    # ranks fall short often; every other matrix also gets dependent rows
    entries = (0, 1, -1, P - 1, P, P + 1, 2 * P, 10**30, -(10**30))
    rng = random.Random(61)
    deficient = 0
    for trial in range(300):
        n, m = rng.randint(1, 40), rng.randint(1, 40)
        rows = [[rng.choice(entries) for _ in range(m)] for _ in range(n)]
        if trial % 2 and n >= 3:
            for _ in range(rng.randint(1, n // 3)):
                i, j, k = rng.sample(range(n), 3)
                rows[i] = [2 * x - 3 * y for x, y in zip(rows[j], rows[k])]
        rank = ref_modular_rank(rows)
        assert modular_rank(rows) == rank, rows
        deficient += rank < min(n, m)
    assert deficient > 50


def test_modular_rank_edge_cases_against_reference():
    cases = {
        "no rows": ([], 0),
        "no columns": ([[]], 0),
        "one entry, zero mod P": ([[P]], 0),
        "one column": ([[3], [0], [P], [-2]], 1),
        "one column, zero mod P": ([[0], [-P], [2 * P]], 0),
    }
    for name, (rows, rank) in cases.items():
        assert modular_rank(rows) == ref_modular_rank(rows) == rank, name


def test_modular_rank_slots_never_carry():
    # 300 rows independent mod P and 10 that are sums of two of them, all
    # entries in [P - 2^20, P).  The sums fall to zero mod P only at the last
    # pivot, after 300 updates of up to about P^2 per slot with no reduction
    # in between, so slots sized from P alone, or from P^2 without the pivot
    # count, carry into their neighbours.  (The list-based reference also
    # reads 300 here, in about 4 s.)
    rng = random.Random(20)
    cols = 320
    deltas = [[rng.randint(1, 2**19) for _ in range(cols)] for _ in range(300)]
    deltas += [[x + y for x, y in zip(deltas[-1], deltas[rng.randrange(300)])] for _ in range(10)]
    assert modular_rank([[P - x for x in row] for row in deltas]) == 300


def test_modular_rank_reads_entries_mod_p():
    assert modular_rank([[-1, 2], [1, -2]]) == 1
    assert modular_rank([[P + 1, 5], [1, 5 - P]]) == 1
    assert modular_rank([[P + 3, 0], [0, -5]]) == 2
    assert modular_rank([[-P, 2 * P], [0, 3 * P]]) == 0
    # the rank mod P is never above the rank over Q, and falls below it
    # exactly when P divides every minor of the larger size
    assert modular_rank([[P, 1], [0, 1]]) == 1 < exact_rank([[P, 1], [0, 1]]) == 2


def test_folds_keep_residues_and_bring_slots_below_2_p_bits_plus_1():
    # slots at the top of each bound the elimination folds from (any slot
    # below 2^W before scaling, below (P-1) * 2^(P_BITS+1) after), with all
    # P_BITS low bits set, and random ones: the residues survive, the slots
    # end below 2^(P_BITS+1) and none carries into its neighbour.  The
    # widths are the narrowest slot, the next one and one a word wider.
    rng = random.Random(62)
    narrowest = oracle._slot_bytes(0)
    for nbytes in (narrowest, narrowest + 1, narrowest + 8):
        width = 8 * nbytes
        low = oracle._pack([P] * 6, nbytes)
        high = oracle._pack([(1 << (width - P_BITS)) - 1] * 6, nbytes)
        for bound in (1 << width, (P - 1) << P_BITS + 1):
            top = bound - 1
            slots = [top, top - (1 << P_BITS), P, 0, rng.randrange(bound), rng.randrange(bound)]
            row = oracle._pack(slots, nbytes)
            for _ in range(oracle._folds(bound)):
                row = oracle._fold(row, low, high)
            raw = row.to_bytes(6 * nbytes, "little")
            out = [int.from_bytes(raw[i : i + nbytes], "little") for i in range(0, len(raw), nbytes)]
            assert all(x < 1 << P_BITS + 1 for x in out), (nbytes, bound)
            assert [x % P for x in out] == [x % P for x in slots], (nbytes, bound)
    assert oracle._folds((P - 1) << P_BITS + 1) == 2


def test_the_soundness_argument_holds_for_p():
    # the facts the module docstring's argument reads: P is a prime above
    # every degree, every bracket of grid points (det M among them) and every
    # adj(M)-mapped coordinate X, Y, Z is below P in absolute value, so a
    # nonzero one stays nonzero mod P, and the worst case packs 9-byte slots
    assert P == 2**P_BITS - 1 and all(P % q for q in range(2, math.isqrt(P) + 1))
    assert A_MAX < P
    # a bracket is affine in each of its three points, so its extremes over
    # the grid [1, COORD_MAX]^2 lie at the corners; condition_rank's adj(M)
    # rows dotted with a point are brackets too, and are checked as written
    corners = [(x, y) for x in (1, COORD_MAX) for y in (1, COORD_MAX)]
    brackets = [
        (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1) for (x1, y1), (x2, y2), (x3, y3) in product(corners, repeat=3)
    ]
    mapped = []
    for (x0, y0), (x1, y1), (x2, y2), (x, y) in product(corners, repeat=4):
        adj = (
            (y1 - y0, x0 - x1, x1 * y0 - x0 * y1),
            (y0 - y2, x2 - x0, x0 * y2 - x2 * y0),
            (y2 - y1, x1 - x2, x2 * y1 - x1 * y2),
        )
        mapped += [r[0] * x + r[1] * y + r[2] for r in adj]
    assert max(map(abs, brackets)) == max(map(abs, mapped)) == (COORD_MAX - 1) ** 2 < P
    # (33; 13^6): 273 lighter rows on 322 monomials
    assert _frame(A_MAX, (13,) * 6)[5] == oracle._slot_bytes(273) == 9


def test_condition_rank_matches_exact_reference():
    # a <= 9 with multiplicities up to a + 3 (rows past the degree vanish),
    # ties and zeros among them, at many seeds
    rng = random.Random(909)
    for _ in range(150):
        a = rng.randint(0, 9)
        mults = [max(rng.randint(-2, a + 3), 0) for _ in range(6)]
        cfg = point_config(rng.randrange(1 << 20))
        want = exact_rank(ref_condition_rows(a, mults, cfg))
        assert condition_rank(_frame(a, mults), cfg) == want, (a, mults, cfg.seed)
    # six points on a conic, where these ranks fall below the general ones
    # (6, 24, 40, 15): the frame must move every point, p3 included, by the
    # same change of coordinates, not just to some general position
    parabola = tuple((x, x * x) for x in range(1, 7))
    circle = ((3, 4), (4, 3), (5, 0), (0, 5), (-3, 4), (4, -3))
    special = ((2, (1,) * 6, 5), (6, (3, 2, 3, 2, 2, 2), 23), (8, (4, 3, 3, 3, 3, 3), 38), (4, (2,) * 6, 14))
    for pts in (parabola, circle):
        for a, mults, rank in special:
            cfg = PointConfig(0, pts)
            want = exact_rank(ref_condition_rows(a, mults, cfg))
            assert condition_rank(_frame(a, mults), cfg) == want == rank, (pts, a)


def test_condition_rank_matches_full_modular_rank():
    # a = 10..14 against the elimination of all six points' rows mod P, on
    # square, short and overdetermined condition matrices
    rng = random.Random(1014)
    for a in range(10, 15):
        cols = (a + 1) * (a + 2) // 2
        for lo, hi in ((cols - 1, cols), (cols // 2, cols - 2), (cols + 1, cols + 12)):
            while True:
                mults = [max(rng.randint(-1, a // 2 + 1), 0) for _ in range(6)]
                if lo <= sum(m * (m + 1) // 2 for m in mults) <= hi:
                    break
            cfg = point_config(rng.randrange(1 << 20))
            assert condition_rank(_frame(a, mults), cfg) == modular_rank(ref_condition_rows(a, mults, cfg)), (a, mults)
    # one lighter point, so only p3's shared block is eliminated; and p3's
    # block of rank below its row count and its monomials left: 10 rows on
    # 12 monomials of rank 9, 15 rows on 18 of rank 14
    for a, mults in (
        (11, (5, 5, 5, 5, 0, 0)),
        (12, (6, 6, 6, 4, 0, 0)),
        (14, (7, 7, 5, 6, 0, 0)),
        (10, (1, 4, 4, 8, 3, 4)),
        (12, (9, 2, 4, 5, 5, 5)),
    ):
        for seed in (0, 1, 2):
            cfg = point_config(seed)
            assert condition_rank(_frame(a, mults), cfg) == modular_rank(ref_condition_rows(a, mults, cfg)), (a, mults)


def test_condition_rank_with_fewer_than_three_points():
    cfg = point_config(4)
    for a, mults in [
        (5, (0, 0, 0, 0, 0, 0)),
        (5, (0, 0, 0, 3, 0, 0)),
        (2, (0, 5, 0, 0, 0, 0)),
        (7, (0, 4, 0, 0, 0, 6)),
        (6, (7, 0, 7, 0, 0, 0)),
        (9, (0, 0, 0, 0, 10, 10)),
    ]:
        assert condition_rank(_frame(a, mults), cfg) == exact_rank(ref_condition_rows(a, mults, cfg)), (a, mults)


# (points, multiplicities, the DegeneratePoints message): the three heaviest
# points collinear (det M = 0); a lighter point on the line through two of
# them (its image is at infinity); and p3, the heaviest lighter point, on the
# line through p1 and p0 or through p0 and p2, so that a chart coordinate the
# torus would scale to 1 is 0
COLLINEAR = (
    (((1, 1), (2, 2), (3, 3), (5, 17), (11, 40), (23, 91)), (3, 3, 3, 1, 1, 1), "points [0, 1, 2]"),
    (((1, 1), (2, 2), (3, 3), (5, 17), (11, 40), (23, 91)), (3, 3, 1, 4, 1, 1), "points [1, 0, 2]"),
    (((1, 1), (2, 5), (7, 3), (3, 9), (11, 40), (23, 91)), (4, 3, 2, 1, 1, 1), "points [1, 0, 3]"),
    (((1, 1), (2, 5), (7, 3), (4, 2), (11, 40), (23, 91)), (4, 3, 2, 1, 1, 1), "points [0, 2, 3]"),
)


def test_condition_rank_collinear_points_raise_under_O():
    # asserts would vanish under python -O, the DegeneratePoints checks do not
    want = "".join(f"{who} of seed 0 are collinear mod P\n" for _, _, who in COLLINEAR)
    for pts, mults, who in COLLINEAR:
        with pytest.raises(DegeneratePoints, match=rf"^{re.escape(who)} of seed 0 are collinear mod P$"):
            condition_rank(_frame(8, mults), PointConfig(0, pts))
    src = str(Path(oracle.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from cubiccurves.errors import DegeneratePoints\n"
        "from cubiccurves.oracle import PointConfig, _frame, condition_rank\n"
        f"for pts, mults, _ in {COLLINEAR!r}:\n"
        "    try:\n"
        "        condition_rank(_frame(8, mults), PointConfig(0, pts))\n"
        "    except DegeneratePoints as e:\n"
        "        print(e)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code, src], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want
    # the first two messages as literal bytes
    assert want.startswith(
        "points [0, 1, 2] of seed 0 are collinear mod P\npoints [1, 0, 2] of seed 0 are collinear mod P\n"
    )


def test_point_config_deterministic():
    assert point_config(0) is point_config(0)
    assert PointConfig(0, point_config(0).points) == point_config(0)
    assert point_config(0).points != point_config(1).points
    for x, y in point_config(0).points:
        assert 1 <= x <= COORD_MAX and 1 <= y <= COORD_MAX


def test_point_config_refuses_a_negative_seed():
    # random.Random seeds by |seed|: seed -1 would give the points of seed 1,
    # and h0_interpolation(c, seed=-1) two point sets instead of three
    assert random.Random(-1).random() == random.Random(1).random()
    for seed in (-1, -7):
        with pytest.raises(PreconditionError, match=rf"^seed must be >= 0, got {seed}$"):
            point_config(seed)
    with pytest.raises(PreconditionError, match=r"^seed must be >= 0, got -1$"):
        h0_interpolation(D(12, 4, 4, 4, 4, 2, 2), seed=-1)


def test_point_config_cache_is_bounded():
    # a caller sweeping seeds cannot grow the cache without end; the bench
    # still empties it between operations
    maxsize = point_config.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 4096


def test_general_position_rejects_collinear():
    pts = ((1, 1), (2, 2), (3, 3), (5, 17), (11, 40), (23, 91))
    assert not _general_position(pts)


def test_general_position_rejects_coconic():
    # six points on the parabola y = x^2, no three collinear
    pts = tuple((x, x * x) for x in range(1, 7))
    assert not _general_position(pts)


def test_general_position_accepts_sampled():
    for seed in range(5):
        assert _general_position(point_config(seed).points)


def test_general_position_matches_exact_rank_on_a_small_grid():
    # on the grid 1..12 coincident, collinear and co-conic sets are all common
    rng = random.Random(12)
    seen = Counter()
    for _ in range(100_000):
        pts = tuple((rng.randint(1, 12), rng.randint(1, 12)) for _ in range(6))
        why = ref_degeneracy(pts)
        assert _general_position(pts) == (why is None), pts
        seen["coincident" if len(set(pts)) < 6 else why] += 1
    assert min(seen.values()) > 100, seen
    assert seen.keys() == {"coincident", "collinear", "conic", None}


def test_general_position_on_built_coconic_sets():
    # six points on y = x^2, six of the twelve lattice points on x^2 + y^2 =
    # 25 (no three of either collinear), and three points on each of two
    # lines; then each set with one point moved off its conic by one step
    parabola = [tuple((x, x * x) for x in xs) for xs in combinations(range(-4, 5), 6)]
    circle = [(x, y) for x in range(-5, 6) for y in range(-5, 6) if x * x + y * y == 25]
    circles = list(combinations(circle, 6))
    lines = [((0, 0), (1, 1), (2, 2), (0, 3), (1, 5), (2, 7)), ((1, 0), (4, 0), (9, 0), (0, 2), (0, 5), (0, 11))]
    assert len(circle) == 12 and len(circles) == 924
    for pts in parabola + circles + lines:
        assert ref_degeneracy(pts) == ("collinear" if pts in lines else "conic"), pts
        assert not _general_position(pts), pts
        for dx, dy in ((1, 0), (0, 1), (-1, 0)):
            moved = ((pts[0][0] + dx, pts[0][1] + dy),) + pts[1:]
            assert _general_position(moved) == (ref_degeneracy(moved) is None), moved


def test_point_config_matches_exact_rank_sampler():
    # the cached point_config is bypassed, so the 20,001 sets do not stay in memory
    for seed in range(20_001):
        assert point_config.__wrapped__(seed).points == ref_point_config(seed), seed


def test_derivatives_match_closed_form():
    rng = random.Random(30)
    for x in (0, 1, 2, P - 1, rng.randrange(P), rng.randrange(P)):
        for a in range(A_MAX + 1):
            ref = [[math.perm(u, j) * x ** (u - j) % P if u >= j else 0 for u in range(a + 1)] for j in range(a + 1)]
            for m in range(a + 2):
                assert oracle._derivatives(x, a, m) == ref[:m], (x, a, m)


def test_h0_closed_forms():
    assert h0_interpolation(D(0, 0, 0, 0, 0, 0, 0)) == 1
    assert h0_interpolation(D(4, 0, 0, 0, 0, 0, 0)) == 15
    assert h0_interpolation(D(-2, 1, 1, 0, 0, 0, 0)) == 0
    assert h0_interpolation(D(2, -1, -3, 0, 0, 0, 0)) == 6  # clamps to plain conics


def test_h0_spot_values():
    assert h0_interpolation(-K) == 4
    assert h0_interpolation(D(1, 1, 1, 0, 0, 0, 0)) == 1
    assert h0_interpolation(D(5, 4, 3, 0, 0, 0, 0)) == 6  # superabundant
    assert h0_interpolation(D(12, 4, 4, 4, 4, 2, 2)) == 45


def test_h0_budget():
    # a counts after clamping; a class with no positive bi needs no matrix
    n = (A_MAX + 1) * (A_MAX + 2) // 2
    assert h0_interpolation(D(A_MAX, 1, 0, 0, 0, 0, 0)) == n - 1
    assert h0_interpolation(D(A_MAX + 5, 0, 0, -1, 0, 0, 0)) == (A_MAX + 6) * (A_MAX + 7) // 2
    with pytest.raises(OracleTooLarge):
        h0_interpolation(D(A_MAX + 1, 1, 0, -2, 0, 0, 0))
    assert issubclass(OracleTooLarge, PreconditionError)


def test_h0_on_the_square_condition_matrix():
    # no stub: 496 conditions on 496 monomials; the three points of
    # multiplicity 17 become a count, p3's 36 rows are eliminated once and
    # one row per seed
    c = D(30, 17, 17, 17, 8, 1, 0)
    assert len(ref_condition_rows(30, c.b, point_config(0))) == 496
    assert h0_interpolation(c) == h0(c) == 18


def test_h0_on_tall_condition_matrices():
    # a <= A_MAX is the one size rule: six-point matrices with more rows than
    # 496 columns are taken on, since only the lighter points' rows are
    # eliminated; a heavy point past a leaves no monomials, so no elimination
    assert len(ref_condition_rows(30, (17, 17, 17, 8, 1, 1), point_config(0))) == 497
    for c in (
        D(30, 17, 17, 17, 8, 1, 1),  # 497 x 496, 36 rows once, 2 per seed
        D(30, 13, 13, 13, 13, 13, 13),  # 546 x 496, 91 x 223 once, 182 x 223 per seed
        D(30, 16, 16, 16, 16, 16, 16),  # 816 x 496, 136 x 91 once, 272 x 91 per seed
        D(30, 106, 0, 0, 0, 0, 0),  # 5,671 x 496, nothing eliminated
    ):
        assert h0_interpolation(c) == h0(c), c


def _monomials_left(a: int, m0: int, m1: int, m2: int) -> int:
    """Monomials x^u y^v of degree <= a that the coordinate points of
    multiplicities m0, m1, m2 leave: u + v >= m0, v <= a - m1, u <= a - m2."""
    return sum(max(0, min(a - m2, a - v) + 1 - max(m0 - v, 0)) for v in range(a - m1 + 1))


def _elimination_work(rows: int, cols: int, recorded: int = 0) -> int:
    """Cells an _eliminate pass can touch, with its recorded pivots taken first.

    Each recorded pivot updates every row, each pivot found drops a row, and
    either drops a column.  With recorded = 0 it is sum over pivots k of
    (rows - k)(cols - k).
    """
    return sum(rows * (cols - k) for k in range(recorded)) + sum(
        (rows - k) * (cols - recorded - k) for k in range(min(rows, cols - recorded))
    )


def _call_work(m0: int, m1: int, m2: int) -> int:
    """One h0_interpolation call's work with three light points of multiplicity m2.

    p3's rows are eliminated once; at each of the three seeds the two other
    lighter points' rows are eliminated against p3's pivots (at most
    min(rows, cols) of them) and their own.
    """
    rows, cols = m2 * (m2 + 1) // 2, _monomials_left(A_MAX, m0, m1, m2)
    return _elimination_work(rows, cols) + 3 * _elimination_work(2 * rows, cols, min(rows, cols))


def test_worst_case_elimination_is_a_max_thirteen_sixfold(monkeypatch):
    # The work grows with every lighter point's rows (with p3's too: one more
    # recorded pivot at column k adds rows * (cols - k) cells and saves the
    # other rows at most as many), and none is heavier than the third
    # heaviest point m2, so three copies of m2 are the worst light triple.
    # The monomials left only grow with a, so a = A_MAX covers every smaller
    # a, and a heavy multiplicity past A_MAX leaves none; that leaves the
    # 7,140 sorted heavy triples in 0..A_MAX.
    work, worst = max(
        (_call_work(m0, m1, m2), (m0, m1, m2))
        for m0 in range(A_MAX + 1)
        for m1 in range(m0 + 1)
        for m2 in range(m1 + 1)
    )
    assert (A_MAX, worst, work) == (33, (13, 13, 13), 23_511_670)
    # the kernel eliminates exactly the modelled shapes: p3's 91 rows on 322
    # monomials once, of full rank, then 182 rows against its 91 pivots at a
    # seed; the first seed's rank, 546, is already the 6 * 91 rows' bound, so
    # no second seed runs (the model above still counts three)
    shapes = []
    eliminate = oracle._eliminate

    def spy(packed, cols, nbytes, pivots):
        shapes.append((len(packed), cols, sum(p is not None for p in pivots)))
        return eliminate(packed, cols, nbytes, pivots)

    monkeypatch.setattr(oracle, "_eliminate", spy)
    oracle._h0_at.cache_clear()
    assert h0_interpolation(D(A_MAX, *(13,) * 6)) == h0(D(A_MAX, *(13,) * 6)) == 49
    assert shapes == [(91, 322, 0), (182, 322, 91)]


def test_h0_interpolation_builds_p3_rows_once_per_call(monkeypatch):
    # p3 sits at (1, 1) at every seed, so a call builds its rows once, and
    # each seed it runs builds only the two other lighter points' rows
    built = []
    rows = oracle._rows
    monkeypatch.setattr(oracle, "_rows", lambda x, y, *args: built.append((x, y)) or rows(x, y, *args))
    oracle._h0_at.cache_clear()
    # 46 conditions on 91 monomials: the first seed's rank is 46, the most
    # any seed can reach, so it is the only seed run
    assert h0_interpolation(D(12, 4, 4, 4, 4, 2, 2), 5) == 45 == 91 - 46
    assert built.count((1, 1)) == 1 and len(built) == 3
    # 28 conditions on 28 monomials, but the class meets the line l-e1-e2 in
    # -2, so the rank is 27 at every seed, below the bound: all three seeds run
    built.clear()
    assert h0_interpolation(D(6, 4, 4, 2, 2, 1, 1), 5) == 1 == h0(D(6, 4, 4, 2, 2, 1, 1))
    assert built.count((1, 1)) == 1 and len(built) == 7


def test_oracle_engine_agreement_small():
    rng = random.Random(777)
    for _ in range(150):
        c = D(rng.randint(-2, 7), *(rng.randint(-2, 4) for _ in range(6)))
        for seed in (0, 3):
            assert h0_interpolation(c, seed) == h0(c), (c, seed)
