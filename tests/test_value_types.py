"""The five value types a census record is built from stay immutable values.

CurveFacts, ObstructionVerdict, HilbertDimResult, KleppeVerdict and
CensusRecord are NamedTuples: a field cannot be assigned, the field order is
pinned (the CLI's JSON follows it through _asdict), two census runs give
equal records with equal hashes, and CurveFacts.pairings is the line pairing
of L = C + 3K.
"""

import pytest

from cubiccurves import census
from cubiccurves.census import CensusRecord, census_range
from cubiccurves.curve import CurveFacts, curve_facts
from cubiccurves.lattice import K, line_pairings
from cubiccurves.obstruction import HilbertDimResult, KleppeVerdict, ObstructionVerdict

FIELDS = {
    CurveFacts: ("standard", "d", "g", "h0s", "h2s", "defects", "h2"),
    ObstructionVerdict: ("kind", "vanishing", "witness_line", "m", "rule", "reason", "witnesses"),
    HilbertDimResult: ("kind", "method", "value", "lo", "hi"),
    KleppeVerdict: ("kind", "failed_hypothesis", "dim", "range_tag"),
    CensusRecord: ("cls", "d", "g", "h1_ic3", "h2", "normality", "verdict", "dim", "kleppe", "dim_w"),
}


def _fresh_census(d_max: int):
    census._families_by_genus.cache_clear()
    return census_range(10, d_max, 0, 1000)[0]


def _values(r: CensusRecord):
    return {CensusRecord: r, ObstructionVerdict: r.verdict, HilbertDimResult: r.dim,
            KleppeVerdict: r.kleppe, CurveFacts: curve_facts(r.cls)}


@pytest.mark.parametrize("kind", list(FIELDS), ids=lambda t: t.__name__)
def test_fields_are_pinned_and_read_only(kind):
    assert kind._fields == FIELDS[kind]
    # (12; 4,4,4,4,2,2), the paper's (16, 29) regression class: Obstructed with m = 1
    (r,) = [r for r in census_range(16, 16, 29, 29)[0] if str(r.cls) == "12;4,4,4,4,2,2"]
    value = _values(r)[kind]
    for field in kind._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 0


def test_two_census_runs_give_equal_records_and_hashes():
    first, second = _fresh_census(20), _fresh_census(20)
    assert len(first) == 948
    assert first == second
    assert [hash(r) for r in first] == [hash(r) for r in second]
    assert len({*first, *second}) == len(first)


def test_pairings_are_the_line_pairings_of_c_plus_3k():
    for r in _fresh_census(16):
        facts = curve_facts(r.cls)
        adjoint = facts.standard + 3 * K
        assert facts.pairings == line_pairings(adjoint.a, adjoint.b)
