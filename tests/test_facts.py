"""One CurveFacts pass per class agrees with the public one-class functions.

The census builds each record from a single curve_facts pass; every field
must equal what abnormality, h0, classify, hilbert_dim and kleppe_verdict
return on their own, for every family with d in 10..16 and for a W(E6)-moved
copy of each.
"""

import random

import pytest

from cubiccurves.census import _record, census_range
from cubiccurves.cohomology import h0
from cubiccurves.curve import abnormality, curve_facts, hodge_genus_bound, invariants
from cubiccurves.errors import NotSmoothMember
from cubiccurves.lattice import Cremona, DivisorClass, K, Perm, apply_word, lines27
from cubiccurves.obstruction import classify, hilbert_dim, kleppe_verdict

FAMILIES = census_range(10, 16, 0, hodge_genus_bound(16))[0]


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
        r = _record(c)
        defects = [abnormality(c, n) for n in (1, 2, 3)]
        normality = next((n - 1 for n, v in enumerate(defects, start=1) if v), 3)
        assert r.cls == c
        assert (r.d, r.g) == invariants(c)
        assert r.h1_ic3 == defects[2]
        assert r.normality == normality
        assert r.h2 == h0(c + 4 * K)
        assert r.verdict == classify(c)
        assert r.dim == hilbert_dim(c)
        assert r.kleppe == kleppe_verdict(c)
        assert r.dim_w == r.d + r.g + 18


def test_facts_pairings_are_those_of_the_adjoint_class():
    for c in _classes():
        f = curve_facts(c)
        L = f.standard + 3 * K
        assert f.pairings == tuple(L.dot(e) for e in lines27())
        assert f.defects == tuple(abnormality(c, n) for n in (1, 2, 3))


def test_facts_need_a_smooth_member():
    with pytest.raises(NotSmoothMember):
        curve_facts(DivisorClass.of(1, 1, 1, 1, 0, 0, 0))


def test_negative_degree_twist_shortcut_is_strict():
    # -(C + nK) has degree 3n - d; at d = 3n it can still be effective:
    # C = -nK gives -(C + nK) = 0, whose h0 is 1
    for n in (1, 2, 3):
        f = curve_facts(-n * K)
        assert f.d == 3 * n
        assert f.twists[n - 1].h0 == h0(DivisorClass.of(0, 0, 0, 0, 0, 0, 0)) == 1
        for m, t in enumerate(f.twists, start=1):
            assert t.h0 == h0(-(f.standard + m * K))
