"""Interpolation oracle: exact and modular rank, point configurations, h0 agreement."""

import random

import pytest
import sympy

from cubiccurves.cohomology import h0
from cubiccurves.errors import OracleTooLarge, PreconditionError
from cubiccurves.lattice import DivisorClass, K
from cubiccurves.oracle import (
    A_MAX,
    COORD_MAX,
    P,
    PointConfig,
    _condition_rows,
    _general_position,
    exact_rank,
    h0_interpolation,
    modular_rank,
    point_config,
)

D = DivisorClass.of


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
            rows = _condition_rows(a, [max(m, 0) for m in b], point_config(rng.randrange(1 << 20)))
            rank = exact_rank(rows)
            assert modular_rank(rows) == rank, (a, b)
            deficient += rank < min(len(rows), cols)
    assert deficient  # the rank-deficient path is exercised


def test_exact_rank_edge_cases():
    for rank in (exact_rank, modular_rank):
        assert rank([]) == 0
        assert rank([[0, 0], [0, 0]]) == 0
        assert rank([[0, 0, 3]]) == 1
        assert rank([[1, 2], [2, 4], [3, 6]]) == 1


def test_modular_rank_reads_entries_mod_p():
    assert modular_rank([[-1, 2], [1, -2]]) == 1
    assert modular_rank([[P + 1, 5], [1, 5 - P]]) == 1
    assert modular_rank([[P + 3, 0], [0, -5]]) == 2
    assert modular_rank([[-P, 2 * P], [0, 3 * P]]) == 0
    # the rank mod P is never above the rank over Q, and falls below it
    # exactly when P divides every minor of the larger size
    assert modular_rank([[P, 1], [0, 1]]) == 1 < exact_rank([[P, 1], [0, 1]]) == 2


def test_point_config_deterministic():
    assert point_config(0) is point_config(0)
    assert PointConfig(0, point_config(0).points) == point_config(0)
    assert point_config(0).points != point_config(1).points
    for x, y in point_config(0).points:
        assert 1 <= x <= COORD_MAX and 1 <= y <= COORD_MAX


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


def test_oracle_engine_agreement_small():
    rng = random.Random(777)
    for _ in range(150):
        c = D(rng.randint(-2, 7), *(rng.randint(-2, 4) for _ in range(6)))
        for seed in (0, 3):
            assert h0_interpolation(c, seed) == h0(c), (c, seed)
