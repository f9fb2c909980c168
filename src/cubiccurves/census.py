"""Enumeration of curve families by (degree, genus) and the census report.

A family is a standard-form class (b1 >= ... >= b6 >= 0, a >= b1+b2+b3)
with a smooth member (a > b1).  For fixed degree d the coefficient sum is
pinned to 3a - d and a is confined to [ceil(d/3), d], so enumeration is a
bounded partition walk, and its classes need no reduction.  Census records
are pure functions of the class, each built from one CurveFacts pass on
plain integers, and come out in a fixed (d, g, class) order.  The census
runs in one thread, because a thread pool made it no faster.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass
from functools import lru_cache

from .curve import _genus, _standard_facts, hodge_genus_bound, is_smooth_standard
from .errors import DegreeTooSmall, GenusOutOfHodgeRange, InvariantViolation, NonPositiveDegree
from .lattice import DivisorClass, is_standard
from .obstruction import (
    HilbertDimResult,
    KleppeVerdict,
    ObstructionVerdict,
    dim_of,
    kleppe_of,
    verdict_of,
)


def _standard_coefficients(d: int):
    """(a, b) of every standard smooth-member class of degree d, a ascending
    and, for each a, b descending lexicographically.

    b1 >= ... >= b6 >= 0 sum to s = 3a - d, with b1 <= a - 1 (a smooth
    member) and b1+b2+b3 <= a.  Slot k = 0..5 takes at least
    ceil(remaining / (6 - k)), or the slots after it could not absorb the
    rest; b6 is what is left, and that bound on b5 keeps it in [0, b5].
    """
    for a in range((d + 2) // 3, d + 1):
        s = 3 * a - d
        for b1 in range(min(a - 1, s), (s + 5) // 6 - 1, -1):
            r1 = s - b1
            for b2 in range(min(b1, r1, a - b1), (r1 + 4) // 5 - 1, -1):
                r2 = r1 - b2
                for b3 in range(min(b2, r2, a - b1 - b2), (r2 + 3) // 4 - 1, -1):
                    r3 = r2 - b3
                    for b4 in range(min(b3, r3), (r3 + 2) // 3 - 1, -1):
                        r4 = r3 - b4
                        for b5 in range(min(b4, r4), (r4 + 1) // 2 - 1, -1):
                            yield a, (b1, b2, b3, b4, b5, r4 - b5)


@lru_cache(maxsize=64)
def _families_by_genus(d: int) -> dict[int, tuple[DivisorClass, ...]]:
    """The standard smooth-member classes of degree d by genus, each bucket
    sorted on (a, b1..b6); the genus is read off the coefficients once."""
    out: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for a, b in _standard_coefficients(d):
        out.setdefault(_genus(a, b), []).append((a, b))
    return {g: tuple([DivisorClass(a, b) for a, b in sorted(v)]) for g, v in out.items()}


def enumerate_families(d: int, g: int) -> tuple[DivisorClass, ...]:
    """All standard smooth-member classes of the given degree and genus,
    sorted lexicographically on (a, b1..b6)."""
    if d <= 0:
        raise NonPositiveDegree(f"degree must be positive, got {d}")
    if not 0 <= g <= hodge_genus_bound(d):
        raise GenusOutOfHodgeRange(f"genus {g} outside [0, {hodge_genus_bound(d)}] for degree {d}")
    return _families_by_genus(d).get(g, ())


@dataclass(frozen=True, slots=True)
class CensusRecord:
    cls: DivisorClass
    d: int
    g: int
    h1_ic3: int
    h2: int
    normality: int
    verdict: ObstructionVerdict
    dim: HilbertDimResult
    kleppe: KleppeVerdict
    dim_w: int


def _record_of(cls: DivisorClass, d: int, g: int) -> CensusRecord:
    """The census record of an enumerated class of degree d and genus g.

    The class is already standard, so it is checked, not reduced: sorted
    with a >= b1+b2+b3, and a > b1, b6 >= 0 for a smooth member.
    """
    if not (is_standard(cls) and is_smooth_standard(cls)):
        raise InvariantViolation(f"enumerated class {cls} is not a standard smooth-member class")
    facts = _standard_facts(cls, d, g)
    normality = 0
    for n, defect in enumerate(facts.defects, start=1):
        if defect != 0:
            break
        normality = n
    verdict, kleppe = verdict_of(facts), kleppe_of(facts)
    return CensusRecord(cls, d, g, facts.defects[2], facts.h2, normality, verdict,
                        dim_of(facts, verdict, kleppe), kleppe, d + g + 18)


def census_range(d_min: int, d_max: int, g_min: int, g_max: int) -> tuple[tuple[CensusRecord, ...], dict[str, int]]:
    """Records for every family with d in [d_min, d_max], g in [g_min, g_max].

    One walk over the (d, g) cells up to each degree's Hodge bound: a cell
    is counted, and its families become records as it is reached, or it is
    counted as empty.  Each record is one facts pass over its enumerated
    class, which is standard already and is not reduced (_record_of).
    """
    if d_min <= 9:
        raise DegreeTooSmall(f"census needs d_min > 9, got {d_min}")
    if d_max < d_min or g_max < g_min or g_min < 0:
        raise GenusOutOfHodgeRange(f"empty or negative range d=[{d_min},{d_max}] g=[{g_min},{g_max}]")
    records: list[CensusRecord] = []
    cells = empty = 0
    for d in range(d_min, d_max + 1):
        by_g = _families_by_genus(d)
        for g in range(g_min, min(g_max, hodge_genus_bound(d)) + 1):
            cells += 1
            fams = by_g.get(g, ())
            if fams:
                records.extend([_record_of(c, d, g) for c in fams])
            else:
                empty += 1
    return tuple(records), {"cells": cells, "empty_cells": empty, "records": len(records)}


CSV_COLUMNS = (
    "d,g,a,b1,b2,b3,b4,b5,b6,h1_ic3,h2,normality,verdict,rule,dim_kind,dim_lo,dim_hi,kleppe"
)


def _kleppe_text(k: KleppeVerdict) -> str:
    tag = k.failed_hypothesis or k.range_tag
    return f"{k.kind}[{tag}]" if tag else k.kind


def census_rows(records):
    """The cells of each record, one row (a list) per record in CSV_COLUMNS order."""
    for r in records:
        lo = r.dim.value if r.dim.kind == "exact" else r.dim.lo
        hi = r.dim.value if r.dim.kind == "exact" else r.dim.hi
        yield [
            r.d,
            r.g,
            r.cls.a,
            *r.cls.b,
            r.h1_ic3,
            r.h2,
            r.normality,
            r.verdict.kind,
            r.verdict.rule or "",
            r.dim.kind,
            lo,
            hi,
            _kleppe_text(r.kleppe),
        ]


def census_csv(records) -> str:
    """The fixed-column CSV payload for a sequence of census records."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS.split(","))
    writer.writerows(census_rows(records))
    return buf.getvalue()
