"""The package's value types stay immutable values.

Every record type is a NamedTuple: a field cannot be assigned, the field
order is pinned (the CLI's JSON follows it through _asdict), two census runs
give equal records with equal hashes, and every record hashes by value.
DivisorClass is a hand-written immutable class with the contract a frozen
dataclass gave it: its repr, hash((a, b)), equality with classes only, no
order, and pickle and copy round-trips.  Perm and Cremona check their
fields however they are built, _make and _replace too.
"""

import copy
import pickle

import pytest

from cubiccurves import census
from cubiccurves.census import CensusRecord, census_range
from cubiccurves.cohomology import CohomologyTriple, ZariskiDecomposition, cohomology, fixed_part
from cubiccurves.curve import CurveFacts, curve_facts
from cubiccurves.lattice import Cremona, DivisorClass, Perm, StandardReduction, reduce_to_standard
from cubiccurves.obstruction import HilbertDimResult, KleppeVerdict, ObstructionVerdict
from cubiccurves.oracle import PointConfig, point_config
from cubiccurves.verify import CheckResult

FIELDS = {
    CurveFacts: ("standard", "d", "g", "h0s", "h2s", "defects", "h2"),
    ObstructionVerdict: ("kind", "vanishing", "witness_line", "m", "rule", "reason", "witnesses"),
    HilbertDimResult: ("kind", "method", "value", "lo", "hi"),
    KleppeVerdict: ("kind", "failed_hypothesis", "dim", "range_tag"),
    CensusRecord: ("cls", "d", "g", "h1_ic3", "h2", "normality", "verdict", "dim", "kleppe", "dim_w"),
    CohomologyTriple: ("h0", "h1", "h2", "chi"),
    ZariskiDecomposition: ("nef_part", "fixed"),
    StandardReduction: ("input", "standard", "word"),
    PointConfig: ("seed", "points"),
    Perm: ("sigma",),
    Cremona: ("i", "j", "k"),
    CheckResult: ("check_id", "status", "detail"),
}


def _fresh_census(d_max: int):
    census._families_by_genus.cache_clear()
    return census_range(10, d_max, 0, 1000)[0]


def _values(r: CensusRecord):
    return {CensusRecord: r, ObstructionVerdict: r.verdict, HilbertDimResult: r.dim,
            KleppeVerdict: r.kleppe, CurveFacts: curve_facts(r.cls), CohomologyTriple: cohomology(r.cls),
            ZariskiDecomposition: fixed_part(r.cls), StandardReduction: reduce_to_standard(r.cls),
            PointConfig: point_config(0),
            Perm: Perm((2, 1, 3, 4, 5, 6)), Cremona: Cremona(1, 2, 3),
            CheckResult: CheckResult("canonical-class", "PASS", "K = (-3;-1,-1,-1,-1,-1,-1)")}


def _regression_record() -> CensusRecord:
    # (12; 4,4,4,4,2,2), the paper's (16, 29) regression class: Obstructed with m = 1
    (r,) = [r for r in census_range(16, 16, 29, 29)[0] if str(r.cls) == "12;4,4,4,4,2,2"]
    return r


@pytest.mark.parametrize("kind", list(FIELDS), ids=lambda t: t.__name__)
def test_fields_are_pinned_and_read_only(kind):
    assert kind._fields == FIELDS[kind]
    value = _values(_regression_record())[kind]
    for field in kind._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 0


@pytest.mark.parametrize("kind", list(FIELDS), ids=lambda t: t.__name__)
def test_records_hash_by_value(kind):
    value = _values(_regression_record())[kind]
    assert hash(value) == hash(kind._make(value)) == hash(tuple(value))


def test_two_census_runs_give_equal_records_and_hashes():
    first, second = _fresh_census(20), _fresh_census(20)
    assert len(first) == 948
    assert first == second
    assert [hash(r) for r in first] == [hash(r) for r in second]
    assert len({*first, *second}) == len(first)


C = DivisorClass(12, (4, 4, 4, 4, 2, 2))


def test_divisor_class_hash_and_repr():
    assert hash(C) == hash((C.a, C.b)) == hash((12, (4, 4, 4, 4, 2, 2)))
    assert repr(C) == "DivisorClass(a=12, b=(4, 4, 4, 4, 2, 2))"


@pytest.mark.parametrize("field", ["a", "b"])
def test_divisor_class_fields_cannot_be_assigned_or_deleted(field):
    with pytest.raises(AttributeError):
        setattr(C, field, 0)
    with pytest.raises(AttributeError):
        delattr(C, field)
    assert (C.a, C.b) == (12, (4, 4, 4, 4, 2, 2))


def test_divisor_class_takes_no_new_attribute():
    with pytest.raises(AttributeError):
        C.extra = 0


def test_divisor_class_equals_classes_only_and_has_no_order():
    assert C == DivisorClass(12, [4, 4, 4, 4, 2, 2])
    assert C != (C.a, C.b)
    assert C != DivisorClass(12, (4, 4, 4, 4, 2, 1))
    with pytest.raises(TypeError):
        C < C


def test_divisor_class_pickle_and_copy_round_trip():
    for twin in (pickle.loads(pickle.dumps(C)), copy.copy(C), copy.deepcopy(C)):
        assert twin == C and type(twin) is DivisorClass
        assert (twin.a, twin.b) == (C.a, C.b)
    assert pickle.loads(pickle.dumps(reduce_to_standard(DivisorClass(2, (1, 1, 1, 0, 0, 0))))).word == (Cremona(1, 2, 3),)


def test_perm_and_cremona_check_fields_through_make_and_replace():
    with pytest.raises(ValueError):
        Cremona(1, 2, 3)._replace(i=9)
    with pytest.raises(ValueError):
        Cremona._make([1, 1, 2])
    with pytest.raises(ValueError):
        Perm._make([(1, 1, 1, 1, 1, 1)])
    with pytest.raises(ValueError):
        Perm((2, 1, 3, 4, 5, 6))._replace(sigma=(0, 1, 2, 3, 4, 5))
    assert Cremona(1, 2, 3)._replace(i=4) == Cremona(4, 2, 3)
    assert Perm._make([(2, 1, 3, 4, 5, 6)]) == Perm((2, 1, 3, 4, 5, 6))
    for gen in (Perm((2, 1, 3, 4, 5, 6)), Cremona(1, 2, 3)):
        for twin in (pickle.loads(pickle.dumps(gen)), copy.copy(gen), copy.deepcopy(gen)):
            assert twin == gen and type(twin) is type(gen)
