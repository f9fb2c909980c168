"""One CurveFacts pass per class agrees with the public one-class functions.

The census builds each record from a single facts pass on the class's
standard form; every field must equal what abnormality, h0, classify,
hilbert_dim and kleppe_verdict return on their own, for every family with d
in 10..16 and for a W(E6)-moved copy of each.  The twists' h0, h1 and h2 in
CurveFacts are checked against cohomology on the coefficients and their chi
from (d, g) against Riemann-Roch, and the shared verdict constants against
freshly built verdicts.
"""

import random

import pytest

from cubiccurves import curve, obstruction
from cubiccurves.census import _record_of, census_range
from cubiccurves.cli import run
from cubiccurves.cohomology import CohomologyTriple, _chi, cohomology, h0
from cubiccurves.curve import _standard_facts, abnormality, curve_facts, hodge_genus_bound, invariants
from cubiccurves.errors import InvariantViolation, NotSmoothMember
from cubiccurves.lattice import Cremona, DivisorClass, K, Perm, apply_word, lines27
from cubiccurves.obstruction import KleppeVerdict, ObstructionVerdict, classify, hilbert_dim, kleppe_verdict

FAMILIES = census_range(10, 16, 0, hodge_genus_bound(16))[0]


def _twist(f, n: int) -> tuple[int, ...]:
    """(h0, h1) of the twist -(C + nK) as CurveFacts holds them, and h2 = h2(-L)
    at n = 3; the other twists' h2 is then fixed by h1 = h0 + h2 - chi."""
    return (f.h0s[n - 1], f.defects[n - 1]) + ((f.h2,) if n == 3 else ())


def _hs(t: CohomologyTriple, n: int) -> tuple[int, ...]:
    """The same numbers of the twist's cohomology triple t."""
    return (t.h0, t.h1) + ((t.h2,) if n == 3 else ())


def _moved(c: DivisorClass, rng: random.Random) -> DivisorClass:
    word = []
    for _ in range(rng.randint(1, 4)):
        word.append(Perm(tuple(rng.sample(range(1, 7), 6))))
        word.append(Cremona(*sorted(rng.sample(range(1, 7), 3))))
    return apply_word(tuple(word), c)


def _classes():
    rng = random.Random(16)
    for r in FAMILIES:
        yield r.cls
        yield _moved(r.cls, rng)


def test_window_is_the_d10_16_census():
    assert len(FAMILIES) == 342
    assert {r.d for r in FAMILIES} == set(range(10, 17))


def test_record_fields_equal_public_functions():
    for c in _classes():
        std = curve_facts(c).standard
        r = _record_of(std, *invariants(std))
        defects = [abnormality(c, n) for n in (1, 2, 3)]
        normality = next((n - 1 for n, v in enumerate(defects, start=1) if v), 3)
        assert r.cls == std
        assert (r.d, r.g) == invariants(c)
        assert r.h1_ic3 == defects[2]
        assert r.normality == normality
        assert r.h2 == h0(c + 4 * K)
        assert r.verdict == classify(c)
        assert r.dim == hilbert_dim(c)
        assert r.kleppe == kleppe_verdict(c)
        assert r.dim_w == r.d + r.g + 18


def test_facts_pairings_are_those_of_the_adjoint_class(monkeypatch):
    # verdict_of's line scan, the one reader of the 27 pairings, takes them
    # of L = C + 3K, once per class that reaches it
    seen, kernel = [], obstruction.line_pairings

    def recorded(a, b):
        seen.append((a, tuple(b)))
        return kernel(a, b)

    monkeypatch.setattr(obstruction, "line_pairings", recorded)
    for c in _classes():
        f = curve_facts(c)
        L = f.standard + 3 * K
        seen.clear()
        obstruction.verdict_of(f)
        assert seen == ([(L.a, L.b)] if f.defects[2] and f.h2 else [])
        assert kernel(L.a, L.b) == tuple(L.dot(e) for e in lines27())
        assert f.defects == tuple(abnormality(c, n) for n in (1, 2, 3))


def test_census_records_build_no_triples_and_pairings_only_for_the_line_scan(monkeypatch):
    # a record reads the twists' numbers as ints, and the 27 pairings of
    # C+3K are computed only by verdict_of's line scan, which runs when
    # h1(-L) and h2(-L) are both nonzero
    triples, pairings = [], []
    new, kernel = CohomologyTriple.__new__, obstruction.line_pairings

    # a NamedTuple is built in __new__, so that is where a build is counted
    def counted_new(cls, *args, **kwargs):
        triples.append(args)
        return new(cls, *args, **kwargs)

    def counted_pairings(a, b):
        pairings.append((a + 9, tuple(x + 3 for x in b)))
        return kernel(a, b)

    monkeypatch.setattr(CohomologyTriple, "__new__", counted_new)
    monkeypatch.setattr(obstruction, "line_pairings", counted_pairings)
    records, _ = census_range(10, 16, 0, hodge_genus_bound(16))
    assert len(records) == 342
    assert triples == []
    scanned = [(r.cls.a, r.cls.b) for r in records if r.h1_ic3 != 0 and r.h2 != 0]
    assert pairings == scanned and len(scanned) == 8
    # the counters see what a cohomology call and a line scan build
    facts = curve_facts(records[0].cls)
    assert _hs(cohomology(-(facts.standard + K)), 1) == _twist(facts, 1)
    assert classify(DivisorClass(*scanned[0])).kind == "Obstructed"
    assert len(triples) == 1 and len(pairings) == 9


def test_facts_need_a_smooth_member():
    with pytest.raises(NotSmoothMember):
        curve_facts(DivisorClass.of(1, 1, 1, 1, 0, 0, 0))


def test_standard_facts_checks_its_class_and_genus():
    # the one CurveFacts constructor checks its input, so a census record
    # runs the checks that curve_facts runs: a class out of standard form, a
    # standard class with no smooth member (a = b1), a genus outside the
    # Hodge range
    for c in (DivisorClass.of(5, 1, 1, 2, 1, 0, 0), DivisorClass.of(2, 2, 0, 0, 0, 0, 0)):
        with pytest.raises(InvariantViolation, match="is not a standard smooth-member class"):
            _standard_facts(c, *invariants(c))
    mumford = DivisorClass.of(12, 4, 4, 4, 4, 4, 2)
    assert _standard_facts(mumford, 14, 24) == curve_facts(mumford)
    for g in (-1, hodge_genus_bound(14) + 1):
        with pytest.raises(InvariantViolation, match=rf"genus {g} outside \[0, 78\]"):
            _standard_facts(mumford, 14, g)


def test_gen_obstructed_builds_its_facts_once(capsys, monkeypatch):
    # the generator's Obstructed check and the CLI payload read one facts pass
    calls = []
    facts = curve._standard_facts
    monkeypatch.setattr(curve, "_standard_facts", lambda *a: calls.append(a) or facts(*a))
    assert run(["gen-obstructed", "--k", "1"]) == 0
    assert "Obstructed" in capsys.readouterr().out
    assert len(calls) == 1


def test_negative_degree_twist_shortcut_is_strict():
    # -(C + nK) has degree 3n - d; at d = 3n it can still be effective:
    # C = -nK gives -(C + nK) = 0, whose h0 is 1
    for n in (1, 2, 3):
        f = curve_facts(-n * K)
        assert f.d == 3 * n
        assert f.h0s[n - 1] == h0(DivisorClass.of(0, 0, 0, 0, 0, 0, 0)) == 1
    # (3; 1,0,0,0,0,0) has d = 8, so its n = 3 twist has d <= 3n; the last
    # class has d > 3n for every n
    for c in (*(-n * K for n in (1, 2, 3)), DivisorClass.of(3, 1, 0, 0, 0, 0, 0),
              DivisorClass.of(12, 4, 4, 4, 4, 2, 2)):
        f = curve_facts(c)
        for m in (1, 2, 3):
            assert _twist(f, m) == _hs(cohomology(-(f.standard + m * K)), m)


def test_closed_form_twists_match_riemann_roch_on_census_d10_30():
    # the twist -(C+nK) takes chi = g - nd + 3n(n+1)/2 from (d, g), and h0 = 0
    # for d > 3n; it must equal Riemann-Roch on the coefficients and the
    # cohomology of the twist
    records, _ = census_range(10, 30, 0, hodge_genus_bound(30))
    assert len(records) == 6528
    for r in records:
        facts = _standard_facts(r.cls, r.d, r.g)
        a, b = r.cls.a, r.cls.b
        for n in (1, 2, 3):
            assert r.d > 3 * n
            ta, tb = 3 * n - a, tuple(n - x for x in b)
            t = cohomology(DivisorClass(ta, tb))
            assert _twist(facts, n) == _hs(t, n)
            assert t.chi == _chi(ta, tb) == r.g - n * r.d + 3 * n * (n + 1) // 2


def test_normality_of_a_small_class_pinned(capsys):
    # taken before twist chi moved to (d, g); its n = 3 twist has d <= 3n
    assert run(["normality", "3;1,0,0,0,0,0", "--format", "csv"]) == 0
    assert capsys.readouterr().out == (
        "class,standard,d,g,abnormality.1,abnormality.2,abnormality.3,s_invariant,s_note\n"
        '"3;1,0,0,0,0,0","3;1,0,0,0,0,0",8,1,4,6,5,3,curve lies on the cubic\n'
    )


def test_verdict_constants_equal_fresh_verdicts():
    reason = "every line with -L.E > 0 has m in {2,3} and a non-surjective restriction"
    fresh = {
        "_UNOBSTRUCTED_H1": ObstructionVerdict(kind="Unobstructed", vanishing=("h1",)),
        "_UNOBSTRUCTED_H2": ObstructionVerdict(kind="Unobstructed", vanishing=("h2",)),
        "_UNOBSTRUCTED_H1_H2": ObstructionVerdict(kind="Unobstructed", vanishing=("h1", "h2")),
        "_UNDETERMINED": ObstructionVerdict(kind="Undetermined", reason=reason),
        "_NOT_APPLICABLE_D": KleppeVerdict(kind="NotApplicable", failed_hypothesis="d<=9"),
        "_NOT_APPLICABLE_G": KleppeVerdict(kind="NotApplicable", failed_hypothesis="g<3d-18"),
        "_NOT_APPLICABLE_H1_IC1": KleppeVerdict(kind="NotApplicable", failed_hypothesis="not-linearly-normal"),
        "_NOT_APPLICABLE_H1_IC3": KleppeVerdict(kind="NotApplicable", failed_hypothesis="h1_ic3=0"),
        "_KNOWN_RANGE_D18": KleppeVerdict(kind="KnownRange", range_tag="d18+"),
        "_OPEN": KleppeVerdict(kind="Open"),
    }
    for name, verdict in fresh.items():
        assert getattr(obstruction, name) == verdict, name
