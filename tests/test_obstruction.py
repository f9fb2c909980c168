"""Obstruction verdicts, Hilbert-scheme dimensions, maximal-family status."""

import pytest

from cubiccurves.census import census_range
from cubiccurves.curve import curve_facts, invariants
from cubiccurves.errors import DegreeTooSmall, DprimeNotNef, InvalidK, NotALine
from cubiccurves.lattice import DivisorClass, K, lines27
from cubiccurves.obstruction import (
    classify,
    gen_obstructed,
    h0_normal,
    hilbert_dim,
    kleppe_verdict,
    restriction_surjective,
)

D = DivisorClass.of

D16G29 = D(12, 4, 4, 4, 4, 2, 2)
MUMFORD = D(12, 4, 4, 4, 4, 4, 2)
UNDET = D(12, 4, 4, 4, 4, 4, 1)  # d=15, g=25: no line certifies
OPEN = D(13, 4, 4, 4, 4, 4, 1)  # d=18, g=36: obstructed, status open
SMOOTHPT = D(5, 4, 1, 0, 0, 0, 0)  # d=10, g=0


def test_restriction_surjective_rejects_non_line():
    with pytest.raises(NotALine):
        restriction_surjective(K, D(1, 1, 0, 0, 0, 0, 0))  # conic, not a line
    with pytest.raises(NotALine):
        restriction_surjective(K, -K)


def test_classify_obstructed_kleppe():
    v = classify(D16G29)
    assert v.kind == "Obstructed"
    assert v.witness_line == D(0, 0, 0, 0, 0, -1, 0)
    assert (v.m, v.rule) == (1, "m=1")
    assert len(v.witnesses) == 2


def test_classify_unobstructed():
    v = classify(SMOOTHPT)
    assert v.kind == "Unobstructed"
    assert v.vanishing  # at least one of h1, h2 vanishes
    assert v.witness_line is None


def test_classify_undetermined():
    v = classify(UNDET)
    assert v.kind == "Undetermined"
    assert v.witness_line is None
    assert "non-surjective" in v.reason


def test_classify_weyl_invariant():
    from cubiccurves.lattice import Cremona, apply_generator

    moved = apply_generator(Cremona(4, 5, 6), D16G29)
    v = classify(moved)
    assert v.kind == "Obstructed"


def test_hilbert_dim_branches():
    r = hilbert_dim(D16G29)
    assert (r.kind, r.value, r.method) == ("exact", 64, "prop-4.5")
    r = hilbert_dim(MUMFORD)
    assert (r.kind, r.value, r.method) == ("exact", 56, "theorem-1.1")
    r = hilbert_dim(D(14, 2, 2, 2, 2, 2, 2))
    assert (r.kind, r.value, r.method) == ("exact", 120, "theorem-1.1")
    r = hilbert_dim(SMOOTHPT)
    assert (r.kind, r.value, r.method) == ("exact", 40, "smooth-point")


def test_hilbert_dim_intervals():
    r = hilbert_dim(UNDET)
    assert (r.kind, r.lo, r.hi, r.method) == ("interval", 60, 61, "theorem-4.3")
    r = hilbert_dim(OPEN)  # obstructed: top end drops by one
    assert (r.kind, r.lo, r.hi) == ("interval", 72, 74)


def test_hilbert_dim_degree_guard():
    with pytest.raises(DegreeTooSmall):
        hilbert_dim(-2 * K)  # d=6
    with pytest.raises(DegreeTooSmall):
        hilbert_dim(-3 * K)  # d=9, still too small


def test_normal_bundle_counts():
    assert curve_facts(D16G29).h2 == 1
    assert h0_normal(D16G29) == 65
    (record,) = [r for r in census_range(16, 16, 29, 29)[0] if r.cls == D16G29]
    assert record.dim_w == 16 + 29 + 18
    assert curve_facts(MUMFORD).h2 == 1
    assert h0_normal(MUMFORD) == 57


def test_h0_normal_reads_one_curve_facts(monkeypatch):
    from cubiccurves import obstruction

    calls = []
    facts = obstruction.curve_facts
    monkeypatch.setattr(obstruction, "curve_facts", lambda c: calls.append(c) or facts(c))
    assert h0_normal(D16G29) == 65
    assert calls == [D16G29]


def test_kleppe_verdicts():
    v = kleppe_verdict(D(14, 2, 2, 2, 2, 2, 2))
    assert (v.kind, v.dim) == ("ProvenTheorem1", 120)
    v = kleppe_verdict(SMOOTHPT)
    assert (v.kind, v.failed_hypothesis) == ("NotApplicable", "g<3d-18")
    v = kleppe_verdict(-2 * K)
    assert (v.kind, v.failed_hypothesis) == ("NotApplicable", "d<=9")
    v = kleppe_verdict(OPEN)
    assert v.kind == "Open"


def test_kleppe_known_range_witness():
    # the smallest cubic-surface class landing in the known range: d=34, g=136
    v = kleppe_verdict(D(25, 8, 8, 8, 8, 8, 1))
    assert (v.kind, v.range_tag) == ("KnownRange", "d18+")


def test_kleppe_decision_table():
    # re-derive each verdict from independently computed parts
    from cubiccurves.census import enumerate_families
    from cubiccurves.curve import abnormality, hodge_genus_bound

    def expected(cls):
        d, g = invariants(cls)
        if d <= 9:
            return ("NotApplicable", "d<=9")
        if g < 3 * d - 18:
            return ("NotApplicable", "g<3d-18")
        if abnormality(cls, 1) != 0:
            return ("NotApplicable", "not-linearly-normal")
        if abnormality(cls, 3) == 0:
            return ("NotApplicable", "h1_ic3=0")
        if abnormality(cls, 2) == 0:
            return ("ProvenTheorem1", None)
        if 14 <= d <= 17 and 8 * (g + 1) > d * d - 4:
            return ("KnownRange", "d14-17")
        if d >= 18 and 8 * (g - 7) > (d - 2) ** 2:
            return ("KnownRange", "d18+")
        return ("Open", None)

    for d in range(10, 19):
        for g in range(0, hodge_genus_bound(d) + 1):
            for cls in enumerate_families(d, g):
                v = kleppe_verdict(cls)
                assert (v.kind, v.failed_hypothesis or v.range_tag) == (
                    expected(cls)[0],
                    expected(cls)[1],
                ), str(cls)


def test_gen_obstructed_validation():
    with pytest.raises(InvalidK):
        gen_obstructed(3)
    with pytest.raises(InvalidK):
        gen_obstructed(-1)
    with pytest.raises(DprimeNotNef):
        gen_obstructed(1, (1, 1, 1, 0, 0, 0))  # a < b1+b2+b3
    with pytest.raises(DprimeNotNef):
        gen_obstructed(1, (3, 0, 1, 0, 0, 0))  # not descending
    with pytest.raises(DprimeNotNef):
        gen_obstructed(0, (1, 0, 0))  # three entries, not six
    with pytest.raises(TypeError):
        gen_obstructed(0, (0.9, 0, 0, 0, 0, 0))  # not truncated to a = 0
    with pytest.raises(TypeError):
        gen_obstructed(0, ("1", "0", "0", "0", "0", "0"))  # digit strings are not integers


def test_gen_obstructed_values():
    assert gen_obstructed(2) == MUMFORD
    assert gen_obstructed(0) == D(14, 4, 4, 4, 4, 4, 0)
    assert gen_obstructed(1, (2, 1, 1, 0, 0, 0)) == D(15, 5, 5, 4, 4, 4, 1)
    assert invariants(gen_obstructed(2)) == (14, 24)


def test_gen_obstructed_grid_all_obstructed():
    # every admissible seed with a <= 4, for each k
    seeds = []
    for a in range(0, 5):
        for b1 in range(a, -1, -1):
            for b2 in range(b1, -1, -1):
                for b3 in range(min(b2, a - b1 - b2), -1, -1):
                    for b4 in range(b3, -1, -1):
                        for b5 in range(b4, -1, -1):
                            seeds.append((a, b1, b2, b3, b4, b5))
    seeds = [s for s in seeds if s[0] >= s[1] + s[2] + s[3]]
    assert len(seeds) == 31
    for k in (0, 1, 2):
        for s in seeds:
            c = gen_obstructed(k, s)
            assert classify(c).kind == "Obstructed"
            assert c.b[5] == k  # meets the sixth exceptional line k times


def test_line_multiplicity_bound_never_trips():
    # classify asserts -L.E <= 3 on its scan path; sweep a block of families
    from cubiccurves.census import enumerate_families
    from cubiccurves.curve import hodge_genus_bound

    for d in (15, 16, 17, 18):
        for g in range(0, hodge_genus_bound(d) + 1):
            for cls in enumerate_families(d, g):
                classify(cls)


def test_restriction_target_is_m_on_census_d10_30():
    # the scan passes m as the target, because Delta = L + K - 2mE meets E in
    # m - 1; restriction_surjective, which computes Delta.E, must agree with it
    from cubiccurves.census import census_range
    from cubiccurves.curve import hodge_genus_bound

    records, _ = census_range(10, 30, 0, hodge_genus_bound(30))
    tests = 0
    for r in records:
        if r.h1_ic3 == 0 or r.h2 == 0:
            continue
        adj = r.cls + 3 * K
        for e in lines27():
            m = -adj.dot(e)
            if m not in (2, 3):
                continue
            delta = adj + K - 2 * m * e
            assert delta.dot(e) == m - 1, (str(r.cls), str(e))
            assert restriction_surjective(delta, e) == ((e, m, "rho-surjective") in r.verdict.witnesses), (
                str(r.cls), str(e))
            tests += 1
    assert tests == 3740
