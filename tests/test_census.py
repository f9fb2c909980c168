"""Family enumeration, census sweeps, CSV shape."""

import csv
import hashlib
import io

import pytest

from cubiccurves.census import (
    CSV_COLUMNS,
    census_csv,
    census_range,
    enumerate_families,
)
from cubiccurves.cli import run
from cubiccurves.curve import hodge_genus_bound, invariants
from cubiccurves.errors import DegreeTooSmall, GenusOutOfHodgeRange, NonPositiveDegree
from cubiccurves.lattice import DivisorClass, is_standard

D = DivisorClass.of

D16G29 = D(12, 4, 4, 4, 4, 2, 2)


def _brute_families(d: int, g: int) -> set[DivisorClass]:
    # independent re-enumeration: all descending b >= 0 with a > b1,
    # a >= b1+b2+b3, degree d, genus g
    out = set()
    for a in range(0, d + 1):
        total = 3 * a - d
        if total < 0:
            continue
        for b1 in range(min(a - 1, total), -1, -1):
            for b2 in range(min(b1, total - b1), -1, -1):
                for b3 in range(min(b2, total - b1 - b2, a - b1 - b2), -1, -1):
                    for b4 in range(min(b3, total - b1 - b2 - b3), -1, -1):
                        for b5 in range(min(b4, total - b1 - b2 - b3 - b4), -1, -1):
                            b6 = total - b1 - b2 - b3 - b4 - b5
                            if not 0 <= b6 <= b5:
                                continue
                            c = D(a, b1, b2, b3, b4, b5, b6)
                            if invariants(c) == (d, g):
                                out.add(c)
    return out


@pytest.mark.parametrize("d,g", [(10, 0), (12, 9), (14, 24), (16, 29), (16, 25)])
def test_enumeration_matches_brute_force(d, g):
    got = set(enumerate_families(d, g))
    assert got == _brute_families(d, g)
    for c in got:
        assert is_standard(c) and c.a > c.b[0] and c.b[5] >= 0


def test_enumeration_membership():
    assert D16G29 in enumerate_families(16, 29)
    assert D(12, 4, 4, 4, 4, 4, 2) in enumerate_families(14, 24)


def test_enumeration_exhaustive_over_degree():
    # every family of degree 12 appears in exactly one genus bucket
    buckets = {}
    for g in range(0, hodge_genus_bound(12) + 1):
        for c in enumerate_families(12, g):
            assert c not in buckets
            buckets[c] = g
    assert all(invariants(c) == (12, g) for c, g in buckets.items())
    assert len(buckets) == len(_brute_all_degree_12())


def _brute_all_degree_12():
    out = set()
    for g in range(0, hodge_genus_bound(12) + 1):
        out |= _brute_families(12, g)
    return out


def test_enumeration_param_errors():
    with pytest.raises(NonPositiveDegree):
        enumerate_families(0, 0)
    with pytest.raises(GenusOutOfHodgeRange):
        enumerate_families(10, hodge_genus_bound(10) + 1)
    with pytest.raises(GenusOutOfHodgeRange):
        enumerate_families(10, -1)


def test_census_range_guards():
    with pytest.raises(DegreeTooSmall):
        census_range(9, 12, 0, 10)
    with pytest.raises(GenusOutOfHodgeRange):
        census_range(10, 12, 5, 4)
    with pytest.raises(GenusOutOfHodgeRange):
        census_range(12, 10, 0, 4)


def test_census_small_block():
    records, summary = census_range(10, 12, 0, 20)
    assert summary["records"] == len(records)
    assert summary["cells"] == 63  # 3 degrees x 21 genus cells, all within Hodge
    assert summary["empty_cells"] + sum(1 for _ in {(r.d, r.g) for r in records}) == 63
    for r in records:
        assert 10 <= r.d <= 12 and 0 <= r.g <= 20
        assert invariants(r.cls) == (r.d, r.g)
        assert r.dim_w == r.d + r.g + 18


def test_census_threads_equal():
    one, s1 = census_range(10, 13, 0, 30, threads=1)
    many, s8 = census_range(10, 13, 0, 30, threads=8)
    assert one == many and s1 == s8
    assert census_csv(one) == census_csv(many)


def test_csv_shape():
    records, _ = census_range(16, 16, 29, 29)
    text = census_csv(records)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == CSV_COLUMNS.split(",")
    kleppe_rows = [r for r in rows[1:] if r[2:9] == ["12", "4", "4", "4", "4", "2", "2"]]
    assert kleppe_rows == [
        [
            "16", "29", "12", "4", "4", "4", "4", "2", "2",
            "2", "1", "2", "Obstructed", "m=1",
            "exact", "64", "64", "NotApplicable[g<3d-18]",
        ]
    ]
    assert text.endswith("\n") and "\r" not in text


# sha256 of `census --d-min 10 --d-max 16 --g-min 0 --g-max 105` in each
# format, taken before the census was rebuilt on one analysis pass per class
CENSUS_D10_16_SHA256 = {
    "csv": "86e7909dc112f352dd60f7df69ea2efb46009070127f5f0a8354048edc60f871",
    "json": "7433715fab0236d343ca325410f4583971f68ad3249903a572063e482661952c",
    "table": "3cea1534b5e34fd95e89bddb44aad6b6132eb050a1a8fbd6121c091d7a73c18b",
}


@pytest.mark.parametrize("fmt", sorted(CENSUS_D10_16_SHA256))
def test_census_rendering_bytes_pinned(fmt, capsys):
    argv = ["census", "--d-min", "10", "--d-max", "16", "--g-min", "0", "--g-max", str(hodge_genus_bound(16))]
    assert run([*argv, "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CENSUS_D10_16_SHA256[fmt]
