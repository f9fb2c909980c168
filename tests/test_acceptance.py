"""Acceptance gate: ten criteria, one printed PASS/FAIL line each.

Beside criterion 07 (oracle == engine on small classes) one unprinted test
runs the oracle on the largest classes the d 10..20 census visits, and one
more, marked slow (run it with ``pytest -m slow``), on all of its classes.
Two more rebuild the census records, d 10..26 and (slow) d 10..30 and
d 10..40, with every h0 they read taken from the oracle.

All comparisons are exact integer equality; there are no tolerances to
tune.  Verdict lines are written with capture disabled so they reach
the real stdout even on passing runs.
"""

import random
import sys

import pytest

from cubiccurves import curve, obstruction
from cubiccurves.census import census_csv, census_range, enumerate_families
from cubiccurves.cli import run
from cubiccurves.cohomology import (
    cohomology,
    euler_char,
    fixed_part,
    h0,
    h0_ab,
    is_effective,
    is_nef,
)
from cubiccurves.curve import abnormality, curve_facts, hodge_genus_bound, invariants
from cubiccurves.lattice import (
    Cremona,
    DivisorClass,
    K,
    Perm,
    apply_word,
    conics27,
    degree,
    lines27,
)
from cubiccurves.obstruction import (
    classify,
    gen_obstructed,
    h0_normal,
    hilbert_dim,
    kleppe_verdict,
    restriction_surjective,
)
from cubiccurves.oracle import h0_interpolation
from cubiccurves.verify import run_checks

D = DivisorClass.of

D16G29 = D(12, 4, 4, 4, 4, 2, 2)
MUMFORD = D(12, 4, 4, 4, 4, 4, 2)
ABN5 = D(12, 5, 5, 2, 2, 2, 2)


def _verdict(capfd, n: int, desc: str, failures: list) -> None:
    ok = not failures
    line = f"ACCEPTANCE {n:02d} {'PASS' if ok else 'FAIL'} {desc}"
    if failures:
        line += f"  [{'; '.join(str(f) for f in failures[:4])}]"
    with capfd.disabled():
        sys.stdout.write(line + "\n")
        sys.stdout.flush()
    assert ok, line


@pytest.fixture(scope="module")
def census():
    records, summary = census_range(10, 20, 0, hodge_genus_bound(20))
    return records, summary


def test_criterion_01_regression_d16_g29(capfd):
    bad = []
    if invariants(D16G29) != (16, 29):
        bad.append(f"invariants {invariants(D16G29)}")
    if abnormality(D16G29, 3) != 2:
        bad.append(f"h1_ic3 {abnormality(D16G29, 3)}")
    if h0(D16G29 + 4 * K) != 1:
        bad.append(f"h0(C+4K) {h0(D16G29 + 4 * K)}")
    v = classify(D16G29)
    if (v.kind, v.rule, v.m) != ("Obstructed", "m=1", 1):
        bad.append(f"classify {(v.kind, v.rule, v.m)}")
    r = hilbert_dim(D16G29)
    if (r.kind, r.value, r.method) != ("exact", 64, "prop-4.5"):
        bad.append(f"dim {(r.kind, r.value, r.method)}")
    if h0_normal(D16G29) != 65:
        bad.append(f"h0(N) {h0_normal(D16G29)}")
    _verdict(capfd, 1, "d=16 g=29 regression: dim 64, h0(N)=65, Obstructed(m=1)", bad)


def test_criterion_02_triple_degree_sweep(capfd):
    bad = []
    for lam in range(9):
        c = D(lam + 14, 2, 2, 2, 2, 2, 2)
        want = (3 * (lam + 10), (lam + 16) * (lam + 9) // 2)
        if invariants(c) != want:
            bad.append(f"lam={lam} invariants {invariants(c)} != {want}")
        if abnormality(c, 3) != 6:
            bad.append(f"lam={lam} h1_ic3 {abnormality(c, 3)}")
        if h0(c + 4 * K) != (lam + 4) * (lam + 3) // 2:
            bad.append(f"lam={lam} h0(C+4K) {h0(c + 4 * K)}")
        v = kleppe_verdict(c)
        if (v.kind, v.dim) != ("ProvenTheorem1", sum(want) + 18):
            bad.append(f"lam={lam} kleppe {(v.kind, v.dim)}")
    _verdict(capfd, 2, "lam=0..8 sweep: d=3(lam+10), h1_ic3=6, proven dim d+g+18", bad)


def test_criterion_03_even_degree_sweep_with_flag(capfd):
    bad = []
    for lam in range(9):
        c = D(lam + 17, lam + 8, 7, 2, 2, 2, 2)
        want = (2 * (lam + 14), 8 * lam + 67)
        if invariants(c) != want:
            bad.append(f"lam={lam} invariants {invariants(c)} != {want}")
        if abnormality(c, 3) != 5:
            bad.append(f"lam={lam} h1_ic3 {abnormality(c, 3)}")
        if h0(c + 4 * K) != 2 * lam + 6:
            bad.append(f"lam={lam} h0(C+4K) {h0(c + 4 * K)} != {2 * lam + 6}")
    # the flagged note versus the reference's printed value must be emitted
    rows = [r for r in run_checks() if r.check_id == "obstruction-space-deg-2lam28"]
    if len(rows) != 1 or rows[0].status != "FLAGGED":
        bad.append(f"flag row {rows}")
    elif "2*lam+5" not in rows[0].detail or "2*lam+6" not in rows[0].detail:
        bad.append(f"flag detail {rows[0].detail!r}")
    # independent confirmation by the interpolation oracle
    for lam in range(3):
        c = D(lam + 17, lam + 8, 7, 2, 2, 2, 2)
        for seed in (0, 1, 2):
            got = h0_interpolation(c + 4 * K, seed)
            if got != 2 * lam + 6:
                bad.append(f"oracle lam={lam} seed={seed} {got}")
    _verdict(capfd, 3, "lam=0..8 sweep: h0(C+4K)=2lam+6 derived, FLAGGED vs printed 2lam+5", bad)


def test_criterion_04_adjoint_fixed_part_example(capfd):
    bad = []
    if invariants(ABN5) != (18, 31):
        bad.append(f"invariants {invariants(ABN5)}")
    z = fixed_part(ABN5 + 3 * K)
    mults = [m for _, m in z.fixed]
    if len(z.fixed) != 5 or mults != [1] * 5:
        bad.append(f"fixed {[(str(l), m) for l, m in z.fixed]}")
    if D(1, 1, 1, 0, 0, 0, 0) not in [l for l, _ in z.fixed]:
        bad.append("l-e1-e2 missing from fixed part")
    if abnormality(ABN5, 3) != 5:
        bad.append(f"abnormality {abnormality(ABN5, 3)}")
    _verdict(capfd, 4, "d=18 g=31: adjoint n=3 fixed part = 5 reduced lines, defect 5", bad)


def test_criterion_05_mumford_class(capfd):
    bad = []
    c = gen_obstructed(2)
    if c != MUMFORD:
        bad.append(f"class {c}")
    if invariants(c) != (14, 24):
        bad.append(f"invariants {invariants(c)}")
    if classify(c).kind != "Obstructed":
        bad.append(f"classify {classify(c).kind}")
    r = hilbert_dim(c)
    if (r.kind, r.value, r.method) != ("exact", 56, "theorem-1.1"):
        bad.append(f"dim {(r.kind, r.value, r.method)}")
    # both exact rules must evaluate to the same number
    d, g = invariants(c)
    h1l, h2l = abnormality(c, 3), h0(c + 4 * K)
    if not (h2l == 1 and d + g + 18 == d + g + 17 + h1l == 56):
        bad.append(f"branch agreement h1l={h1l} h2l={h2l}")
    if h0_normal(c) != 57:
        bad.append(f"h0(N) {h0_normal(c)}")
    _verdict(capfd, 5, "gen_obstructed(2) = Mumford (14,24): dim 56, both rules agree", bad)


def _admissible_seeds(a_max: int):
    out = []
    for a in range(0, a_max + 1):
        for b1 in range(a, -1, -1):
            for b2 in range(b1, -1, -1):
                for b3 in range(min(b2, a - b1 - b2), -1, -1):
                    for b4 in range(b3, -1, -1):
                        for b5 in range(b4, -1, -1):
                            out.append((a, b1, b2, b3, b4, b5))
    return out


def test_criterion_06_obstructed_grid(capfd):
    bad = []
    seeds = _admissible_seeds(4)
    n = 0
    for k in (0, 1, 2):
        for s in seeds:
            c = gen_obstructed(k, s)
            n += 1
            v = classify(c)
            if v.kind != "Obstructed":
                bad.append(f"k={k} seed={s}: {v.kind}")
    if n != 3 * len(seeds) or len(seeds) != 31:
        bad.append(f"grid size {n} (seeds {len(seeds)})")
    _verdict(capfd, 6, f"generated grid ({n} classes, all k): every class Obstructed", bad)


def test_criterion_07_oracle_equivalence(capfd):
    bad = []
    rng = random.Random(20260815)
    grid = [
        D(rng.randint(-2, 9), *(rng.randint(-2, 5) for _ in range(6)))
        for _ in range(500)
    ]
    named = [
        D16G29,
        MUMFORD,
        ABN5,
        D(14, 2, 2, 2, 2, 2, 2),
        D(14, 4, 4, 4, 4, 4, 0),
        D(13, 4, 4, 4, 4, 4, 1),
    ]
    pinned = [c for c in named] + [c + n * K for c in named for n in (1, 2, 3, 4)]
    pinned += [D(lam + 17, lam + 8, 7, 2, 2, 2, 2) + n * K for lam in (0, 1, 2) for n in (3, 4)]
    pinned = [c for c in pinned if c.a <= 14]
    for c in grid + pinned:
        want = h0(c)
        for seed in (0, 1, 2):
            got = h0_interpolation(c, seed)
            if got != want:
                bad.append(f"{c} seed={seed}: oracle {got} engine {want}")
    _verdict(capfd, 7, f"oracle == engine on {len(grid)} grid + {len(pinned)} named classes, 3 seeds", bad)


def _twists(records) -> list[DivisorClass]:
    """C+nK, n = 0..4, of each record: the classes whose h0 the census reads."""
    return [r.cls + n * K for r in records for n in range(5)]


def _restriction_classes(records) -> list[DivisorClass]:
    """Delta = C+4K-2mE and Delta-E for each line E that the full line scan
    (every witness, as classify's CLI output lists them) tests by restriction
    on the records, as obstruction.h0_ab reads them."""
    out = []

    def recorded(a, b):
        out.append(DivisorClass(a, b))
        return h0_ab(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(obstruction, "h0_ab", recorded)
        for r in records:
            if r.h1_ic3 and r.h2:
                list(obstruction._witnesses(curve_facts(r.cls)))
    return out


def _census_from_oracle(d_max: int):
    """census_range(10, d_max) with every h0 its records read taken from
    h0_interpolation instead of the engine, and the count of those reads.
    A class past A_MAX raises OracleTooLarge: the engine answers none."""
    reads = []

    def oracle_h0(a, b):
        reads.append((a, b))
        return h0_interpolation(DivisorClass(a, b))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curve, "h0_ab", oracle_h0)
        mp.setattr(obstruction, "h0_ab", oracle_h0)
        return census_range(10, d_max, 0, hodge_genus_bound(d_max)), len(reads)


def _distinct_clamped(classes) -> set[DivisorClass]:
    """The distinct classes the oracle eliminates for: bi clamped to 0, some bi > 0, a >= 0."""
    return {D(c.a, *(max(x, 0) for x in c.b)) for c in classes if c.a >= 0 and max(c.b) > 0}


def _oracle_mismatches(classes) -> list[str]:
    """h0 by the oracle against the engine (the oracle's cache takes each clamped class once)."""
    bad = []
    for c in classes:
        got, want = h0_interpolation(c), h0(c)
        if got != want:
            bad.append(f"{c}: oracle {got} engine {want}")
    return bad


@pytest.fixture(scope="module")
def census_30():
    records, _ = census_range(10, 30, 0, hodge_genus_bound(30))
    return records


def test_oracle_equivalence_on_census_classes(census):
    # every census d 10..20 class with a >= 17 (a = 17..19, the top of the
    # census's range of a)
    records, _ = census
    big = [r for r in records if r.cls.a >= 17]
    assert len(big) >= 10
    assert not (bad := _oracle_mismatches(_twists(big))), bad


def test_oracle_on_restriction_classes(census):
    # h0(Delta) and h0(Delta-E) of every restriction test the d 10..20
    # census's verdicts make
    records, _ = census
    classes = _restriction_classes(records)
    assert len(classes) == 132 and len(_distinct_clamped(classes)) == 30
    assert not (bad := _oracle_mismatches(classes)), bad


def test_census_records_rebuilt_from_oracle_h0():
    # every twist, h2 and restriction h0 of census d 10..26 read from the
    # oracle gives the same records and summary: verdicts, dimensions and
    # Kleppe verdicts, not only the numbers; no class is past A_MAX
    (records, summary), reads = _census_from_oracle(26)
    assert (records, summary) == census_range(10, 26, 0, hodge_genus_bound(26))
    assert len(records) == 3242 and reads == 10922


@pytest.mark.slow
@pytest.mark.parametrize(
    "d_max, n_records, n_reads",
    [(30, 6528, 23072), (40, 28587, 104527)],
    ids=["d10_30", "d10_40"],
)
def test_census_records_rebuilt_from_oracle_h0_slow(d_max, n_records, n_reads):
    # d 10..40 takes about 40 s and reads classes up to a = 33 = A_MAX once
    # clamped, so the oracle answers every one of its h0 reads
    (records, summary), reads = _census_from_oracle(d_max)
    assert (records, summary) == census_range(10, d_max, 0, hodge_genus_bound(d_max))
    assert (len(records), reads) == (n_records, n_reads)


@pytest.mark.slow
def test_oracle_equivalence_on_census_classes_full(census):
    # every census d 10..20 record: 948 classes, 4,740 checks
    records, _ = census
    assert len(records) == 948
    assert not (bad := _oracle_mismatches(_twists(records))), bad


@pytest.mark.slow
def test_oracle_equivalence_on_census_classes_d10_30(census_30):
    # every census d 10..30 record: 6,528 classes, 32,640 checks on 6,736
    # distinct clamped classes with a up to 30
    classes = _twists(census_30)
    assert len(census_30) == 6528 and len(_distinct_clamped(classes)) == 6736
    assert not (bad := _oracle_mismatches(classes)), bad


@pytest.mark.slow
def test_oracle_on_restriction_classes_d10_30(census_30):
    # the restriction tests of the d 10..30 census: 3,740 line tests, 7,480
    # h0 values on 869 distinct clamped classes, all with a <= 10
    classes = _restriction_classes(census_30)
    distinct = _distinct_clamped(classes)
    assert len(distinct) == 869 and max(c.a for c in distinct) <= 10
    assert not (bad := _oracle_mismatches(classes)), bad


def _rand_class(rng, a_lo=-6, a_hi=12, b_lo=-6, b_hi=9):
    return D(rng.randint(a_lo, a_hi), *(rng.randint(b_lo, b_hi) for _ in range(6)))


def _rand_word(rng):
    word = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            word.append(Perm(tuple(rng.sample(range(1, 7), 6))))
        else:
            word.append(Cremona(*rng.sample(range(1, 7), 3)))
    return tuple(word)


def _suite_weyl(n):
    rng = random.Random(81)
    for _ in range(n):
        c = _rand_class(rng)
        moved = apply_word(_rand_word(rng), c)
        t, tm = cohomology(c), cohomology(moved)
        if not (
            moved.square == c.square
            and K.dot(moved) == K.dot(c)
            and (t.h0, t.h1, t.h2) == (tm.h0, tm.h1, tm.h2)
            and is_nef(moved) == is_nef(c)
            and (t.h0 > 0) == (tm.h0 > 0)
        ):
            return n, f"weyl breaks at {c}"
    return n, None


def _suite_serre(n):
    rng = random.Random(82)
    for _ in range(n):
        c = _rand_class(rng)
        if cohomology(c).h2 != h0(K - c):
            return n, f"serre breaks at {c}"
    return n, None


def _suite_chi(n):
    rng = random.Random(83)
    for _ in range(n):
        c = _rand_class(rng)
        t = cohomology(c)
        if t.h0 - t.h1 + t.h2 != t.chi:
            return n, f"chi breaks at {c}"
    return n, None


def _suite_fixed_part_law(n):
    # h1(-L) = sum m(m+1)/2 for effective big L
    rng = random.Random(84)
    hits = 0
    for _ in range(n * 8):
        if hits >= n:
            break
        L = _rand_class(rng, 0, 12, -4, 8)
        if not (is_effective(L) and L.square > 0):
            continue
        hits += 1
        want = sum(m * (m + 1) // 2 for _, m in fixed_part(L).fixed)
        if cohomology(-L).h1 != want:
            return hits, f"law breaks at {L}"
    if hits < n:
        return hits, f"only {hits} hypothesis hits"
    return hits, None


def _suite_not_nef(n):
    # h1(-L) > 0 and h2(-L) > 0 force L+K effective, L not nef
    rng = random.Random(85)
    hits = 0
    for _ in range(n):
        L = _rand_class(rng, -2, 12, -5, 8)
        t = cohomology(-L)
        if t.h1 > 0 and t.h2 > 0:
            hits += 1
            if not (is_effective(L + K) and not is_nef(L)):
                return hits, f"law breaks at {L}"
    if hits < 500:
        return hits, f"only {hits} hypothesis hits"
    return hits, None


def _suite_big(n):
    # L+K effective and chi(-L) >= 0 force L big
    rng = random.Random(86)
    hits = 0
    for _ in range(n):
        L = _rand_class(rng, -2, 12, -5, 8)
        if is_effective(L + K) and euler_char(-L) >= 0:
            hits += 1
            if not L.square > 0:
                return hits, f"law breaks at {L}"
    if hits < 500:
        return hits, f"only {hits} hypothesis hits"
    return hits, None


def _suite_reduced_fixed_vanishing(n):
    # L+K effective, chi(-L) >= 0, all fixed multiplicities <= 1
    # force h1(3F - L) = 0 with F the reduced fixed part
    rng = random.Random(87)
    hits = 0
    for _ in range(n):
        L = _rand_class(rng, 0, 10, -3, 7)
        if not (is_effective(L + K) and euler_char(-L) >= 0):
            continue
        fixed = fixed_part(L).fixed
        if any(m > 1 for _, m in fixed):
            continue
        hits += 1
        F = DivisorClass(0, (0,) * 6)
        for line, _ in fixed:
            F = F + line
        if cohomology(3 * F - L).h1 != 0:
            return hits, f"law breaks at {L}"
    if hits < 300:
        return hits, f"only {hits} hypothesis hits"
    return hits, None


def _suite_lines_conics_exhaustive(_):
    ls = lines27()
    if len(set(ls)) != 27 or any(l.square != -1 or K.dot(l) != -1 for l in ls):
        return 27, "line table corrupt"
    brute = []
    for a in (0, 1, 2):
        stack = [(a, ())]
        while stack:
            aa, b = stack.pop()
            if len(b) == 6:
                c = DivisorClass(aa, b)
                if c.square == -1 and K.dot(c) == -1:
                    brute.append(c)
                continue
            for v in range(-2, 3):
                stack.append((aa, b + (v,)))
    if set(brute) != set(ls):
        return len(brute), f"line search found {len(brute)}"
    qs = conics27()
    bruteq = []
    for a in (1, 2, 3):
        stack = [(a, ())]
        while stack:
            aa, b = stack.pop()
            if len(b) == 6:
                c = DivisorClass(aa, b)
                if c.square == 0 and K.dot(c) == -2:
                    bruteq.append(c)
                continue
            for v in range(-3, 4):
                stack.append((aa, b + (v,)))
    if set(bruteq) != set(qs) or len(qs) != 27:
        return len(bruteq), f"conic search found {len(bruteq)}"
    for i, x in enumerate(ls):
        for y in ls[i + 1 :]:
            if x.dot(y) not in (0, 1):
                return 27, f"pairing {x}.{y} = {x.dot(y)}"
    return len(brute) + len(bruteq) + 351, None


def _suite_hodge_census(records):
    for r in records:
        if not 0 <= r.g <= hodge_genus_bound(r.d):
            return len(records), f"hodge bound broken at {r.cls}"
    return len(records), None


def _suite_restriction_sufficient(n):
    rng = random.Random(88)
    hits = 0
    for _ in range(n):
        delta = _rand_class(rng, -4, 8, -4, 6)
        e = lines27()[rng.randrange(27)]
        cond = any(
            q.dot(e) == 1 and is_effective(delta - delta.dot(e) * q)
            for q in conics27()
        )
        if cond:
            hits += 1
            if not restriction_surjective(delta, e):
                return hits, f"sufficient condition fails at ({delta}, {e})"
    if hits < 1000:
        return hits, f"only {hits} hypothesis hits"
    return hits, None


def test_criterion_08_property_suites(capfd, census):
    records, _ = census
    n = 10_000
    suites = [
        ("weyl-invariance", _suite_weyl(n)),
        ("serre-duality", _suite_serre(n)),
        ("chi-additivity", _suite_chi(n)),
        ("fixed-part-law", _suite_fixed_part_law(n)),
        ("not-nef-law", _suite_not_nef(n)),
        ("bigness-law", _suite_big(n)),
        ("reduced-fixed-vanishing", _suite_reduced_fixed_vanishing(n)),
        ("lines-conics-exhaustive", _suite_lines_conics_exhaustive(None)),
        ("hodge-bound-census", _suite_hodge_census(records)),
        ("restriction-sufficient", _suite_restriction_sufficient(n)),
    ]
    bad = [f"{name}: {err} ({cases} cases)" for name, (cases, err) in suites if err]
    total = sum(cases for _, (cases, _) in suites)
    _verdict(capfd, 8, f"{len(suites)} property suites, {total} cases total", bad)


def test_criterion_09_census_determinism(capfd, census):
    bad = []
    records, summary = census
    argv = ["census", "--d-min", "10", "--d-max", "20", "--g-min", "0", "--g-max", str(hodge_genus_bound(20))]
    code = run([*argv, "--format", "csv", "--threads", "8"])
    if (code, capfd.readouterr().out) != (0, census_csv(records)):
        bad.append(f"census --threads 8 CSV differs from the library CSV (exit {code})")
    keyed = {(r.d, r.g, r.cls): r for r in records}
    if (16, 29, D16G29) not in keyed:
        bad.append("d=16 g=29 record missing")
    # the two sweep examples at lam=0 sit above d=20; spot-check their cells
    for d, g, cls in ((30, 72, D(14, 2, 2, 2, 2, 2, 2)), (28, 67, D(17, 8, 7, 2, 2, 2, 2))):
        cell, _ = census_range(d, d, g, g)
        if cls not in {r.cls for r in cell}:
            bad.append(f"d={d} g={g} record missing")
    _verdict(capfd, 9, f"census d=10..20 ({summary['records']} records): CLI CSV, --threads 8 forked, equals census_csv", bad)


def test_criterion_10_consistency_web(capfd, census):
    # each record's dimension is the one its h0(N) and two verdicts give:
    # smooth-point = h0(N) exactly when Unobstructed; theorem-1.1 exactly when
    # Obstructed and ProvenTheorem1, at the Kleppe dimension d+g+18; prop-4.5
    # = 4d = h0(N) - 1; every interval [4d, h0(N) - 1] when Obstructed and
    # [4d, h0(N)] otherwise.  The bounds dim_of's docstring proves hold on
    # every record: an exact value is >= 4d, an interval is non-empty with
    # d+g+18 <= hi, and theorem-1.1 with h2 = 1 equals prop-4.5's 4d
    bad = []
    records, _ = census
    for r in records:
        n = h0_normal(r.cls)
        obstructed = r.verdict.kind == "Obstructed"
        if n != r.dim_w + r.h1_ic3:
            bad.append(f"{r.cls}: h0(N) {n} != {r.dim_w + r.h1_ic3}")
        if r.dim.kind == "exact" and r.dim.value < 4 * r.d:
            bad.append(f"{r.cls}: exact dimension {r.dim.value} < 4d = {4 * r.d}")
        if r.dim.kind == "interval" and not (r.dim.lo <= r.dim.hi and r.dim_w <= r.dim.hi):
            bad.append(f"{r.cls}: interval [{r.dim.lo}, {r.dim.hi}] empty or below d+g+18 = {r.dim_w}")
        if r.kleppe.kind == "ProvenTheorem1" and r.h2 == 1 and not r.kleppe.dim == n - 1 == 4 * r.d:
            bad.append(f"{r.cls}: theorem-1.1 {r.kleppe.dim}, h0(N) - 1 = {n - 1}, 4d = {4 * r.d}")
        if r.verdict.kind == "Unobstructed":
            want = ("exact", "smooth-point", n)
        elif obstructed and r.kleppe.kind == "ProvenTheorem1":
            want = ("exact", "theorem-1.1", r.dim_w)
            if r.kleppe.dim != r.dim_w:
                bad.append(f"{r.cls}: Kleppe dimension {r.kleppe.dim} != d+g+18 = {r.dim_w}")
        elif obstructed and r.h2 == 1:
            want = ("exact", "prop-4.5", n - 1)
            if n - 1 != 4 * r.d:
                bad.append(f"{r.cls}: prop-4.5 h0(N) - 1 = {n - 1} != 4d = {4 * r.d}")
        else:
            want = ("interval", "theorem-4.3", 4 * r.d, n - obstructed)
        got = (r.dim.kind, r.dim.method) + ((r.dim.value,) if r.dim.kind == "exact" else (r.dim.lo, r.dim.hi))
        if got != want:
            bad.append(f"{r.cls}: {got} != {want}")
    _verdict(capfd, 10, f"dim read off h0(N) and the two verdicts on all {len(records)} records", bad)
